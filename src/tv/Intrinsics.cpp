//===- tv/Intrinsics.cpp - Interpreted runtime helpers ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime helpers both steppers interpret semantically instead of
/// treating as uninterpreted calls. These are exactly the pure arithmetic
/// entry points of runtime/Runtime.cpp — 128-bit division and shifts,
/// overflow-checked arithmetic, crc32 — which matter for two reasons: they
/// can trap (so the trap must surface as an observable on both sides), and
/// back-ends use several of them as *lowering devices* for QIR operations
/// (an i128 sdiv becomes a call to rt_sdiv128), so modeling them as
/// opaque calls would desynchronize the event streams: the QIR side sees an
/// arithmetic instruction, the machine side a call.
///
/// Both this file and runtime/Runtime.cpp evaluate each helper as the QIR
/// opcode it implements, through qir/Semantics.h, so the helper and its
/// model cannot drift apart.
///
//===----------------------------------------------------------------------===//

#include "qir/Semantics.h"
#include "tv/Sim.h"

using namespace qcf;
using namespace qcf::tv;
using qir::Opcode;
using qir::Type;

namespace {

/// A runtime helper and the QIR opcode it evaluates.
struct Helper {
  const char *Name;
  Opcode Op;
  Type Ty;
};

constexpr Helper Helpers[] = {
    {"rt_sdiv128", Opcode::SDiv, Type::I128},
    {"rt_udiv128", Opcode::UDiv, Type::I128},
    {"rt_srem128", Opcode::SRem, Type::I128},
    {"rt_shl128", Opcode::Shl, Type::I128},
    {"rt_lshr128", Opcode::LShr, Type::I128},
    {"rt_ashr128", Opcode::AShr, Type::I128},
    {"rt_mul128_ovf", Opcode::SMulTrap, Type::I128},
    {"rt_add128_ovf", Opcode::SAddTrap, Type::I128},
    {"rt_sub128_ovf", Opcode::SSubTrap, Type::I128},
    {"rt_crc32", Opcode::Crc32, Type::I64},
    {"rt_sadd32_ovf", Opcode::SAddTrap, Type::I32},
    {"rt_ssub32_ovf", Opcode::SSubTrap, Type::I32},
    {"rt_smul32_ovf", Opcode::SMulTrap, Type::I32},
    {"rt_sadd64_ovf", Opcode::SAddTrap, Type::I64},
    {"rt_ssub64_ovf", Opcode::SSubTrap, Type::I64},
    {"rt_smul64_ovf", Opcode::SMulTrap, Type::I64},
};

const Helper *findHelper(const std::string &Name) {
  for (const Helper &H : Helpers)
    if (Name == H.Name)
      return &H;
  return nullptr;
}

} // namespace

bool tv::stepIntrinsic(const std::string &Name, const uint64_t *Args,
                       uint64_t &Lo, uint64_t &Hi, int &TrapCode) {
  TrapCode = static_cast<int>(rt::TrapCode::None);
  Lo = Hi = 0;
  const Helper *H = findHelper(Name);
  if (!H)
    return false;
  // Two-lane operands take two argument slots each; an i128 shift's
  // amount is the third slot, which is all its B operand's low lane holds.
  qir::Lanes A{Args[0]}, B{Args[1]};
  if (qir::isTwoLane(H->Ty)) {
    A = {Args[0], Args[1]};
    B = {Args[2], Args[3]};
  }
  qir::Lanes R;
  rt::TrapCode TC =
      qir::evalScalar(H->Op, H->Ty, H->Ty, qir::CmpPred::Eq, A, B, R);
  if (TC != rt::TrapCode::None) {
    TrapCode = static_cast<int>(TC);
    return true;
  }
  Lo = R.Lo;
  Hi = R.Hi;
  return true;
}

TermRef tv::intrinsicResultTerm(TermArena &TA, const std::string &Name,
                                const TermRef *ArgT) {
  const Helper *H = findHelper(Name);
  TermOp TO;
  if (!H || H->Ty == Type::I128 || !termOpFor(H->Op, qir::CmpPred::Eq, TO))
    return NO_TERM;
  return TA.binary(TO, ArgT[0], ArgT[1], qir::intBits(H->Ty));
}
