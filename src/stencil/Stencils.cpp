//===- stencil/Stencils.cpp - Pre-built copy-and-patch stencils -----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Every fragment is encoded once, at table-construction time, through the
// same x64::Assembler the other native back-ends use; the patch records are
// taken immediately after emitting the instruction that carries the field,
// so offsets are correct by construction. Fields that must be patchable are
// forced into their wide encodings with placeholders (a displacement larger
// than 127 forces disp32; movAbsRI always emits imm64).
//
// The operation cores are the sequences of x64/QirLower.h, the lowering
// DirectEmit also emits through, called on a fixed register convention
// (see Stencils.h). Trap edges come back from the lowering as TrapEdges
// sites and become TrapOvf/TrapDiv patches.
//
//===----------------------------------------------------------------------===//

#include "stencil/Stencils.h"
#include "runtime/Trap.h"
#include "support/Compiler.h"
#include "x64/QirLower.h"
#include <algorithm>
#include <cassert>

using namespace qcf;
using namespace qcf::stencil;
using namespace qcf::x64;
using qir::Opcode;
using qir::Type;

namespace {

/// Placeholder displacement: larger than 127 so the encoder picks the
/// disp32 form, and recognizable in hexdumps of unpatched fragments.
constexpr int32_t DISP_PLACEHOLDER = 0x11223344;
constexpr uint64_t IMM64_PLACEHOLDER = 0x1122334455667788ull;

/// Builds one fragment. Patch records are taken right after emitting the
/// instruction whose trailing bytes form the field; rel32 fields destined
/// for the compiler (continuations, trap edges) target a label bound at the
/// fragment end purely so finalize() succeeds — the compiler overwrites
/// them.
class FB {
public:
  Assembler A;
  LowerSink Sink;

  FB() { Sink.Patches = &Patches; }
  FB(const FB &) = delete;
  FB &operator=(const FB &) = delete;

  void markAt(Patch::Kind K, size_t Off) {
    Patches.push_back({K, static_cast<uint16_t>(Off)});
  }
  void mark(Patch::Kind K, unsigned FieldBytes = 4) {
    markAt(K, A.size() - FieldBytes);
  }

  void pendingJcc(Patch::Kind K, Cond C) {
    Label L = A.newLabel();
    A.jcc(C, L);
    mark(K);
    Pend.push_back(L);
  }

  void pendingJmp(Patch::Kind K) {
    Label L = A.newLabel();
    A.jmp(L);
    mark(K);
    Pend.push_back(L);
  }

  Fragment take() {
    for (Label L : {Sink.Ovf, Sink.Div})
      if (L != LowerSink::NoLabel)
        Pend.push_back(L);
    for (Label L : Pend)
      A.bind(L);
    A.finalize();
    Fragment F;
    F.Bytes = A.code();
    F.Patches = std::move(Patches);
    return F;
  }

private:
  std::vector<Patch> Patches;
  std::vector<Label> Pend;
};

constexpr Type OneLaneInts[] = {Type::I1, Type::I8, Type::I16, Type::I32,
                                Type::I64, Type::Ptr};
constexpr Type IntTypes[] = {Type::I1,  Type::I8,  Type::I16, Type::I32,
                             Type::I64, Type::Ptr, Type::I128};

} // namespace

const char *stencil::patchKindName(Patch::Kind K) {
  switch (K) {
  case Patch::Kind::Disp32:
    return "disp32";
  case Patch::Kind::Imm32:
    return "imm32";
  case Patch::Kind::Imm64:
    return "imm64";
  case Patch::Kind::Rel32:
    return "rel32";
  case Patch::Kind::TrapOvf:
    return "trap-ovf";
  case Patch::Kind::TrapDiv:
    return "trap-div";
  }
  return "?";
}

const StencilTable &StencilTable::get() {
  static const StencilTable Table;
  return Table;
}

void StencilTable::add(Opcode Op, uint8_t A, uint8_t B, Fragment F) {
  assert(A < NumVariants && B < NumVariants && "stencil variant too large");
  Cores.emplace_back(coreKey(Op, A, B), std::move(F));
}

StencilTable::StencilTable() {
  // --- Structural fragments -----------------------------------------------
  auto LdGp = [](Reg R) {
    FB B;
    B.A.movRM(Width::W64, R, Mem::base(Reg::RBP, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    return B.take();
  };
  auto StGp = [](Reg R) {
    FB B;
    B.A.movMR(Width::W64, Mem::base(Reg::RBP, DISP_PLACEHOLDER), R);
    B.mark(Patch::Kind::Disp32);
    return B.take();
  };
  auto LdX = [](Xmm R) {
    FB B;
    B.A.movsdXM(R, Mem::base(Reg::RBP, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    return B.take();
  };
  auto StX = [](Xmm R) {
    FB B;
    B.A.movsdMX(Mem::base(Reg::RBP, DISP_PLACEHOLDER), R);
    B.mark(Patch::Kind::Disp32);
    return B.take();
  };

  LdA = LdGp(Reg::RAX);
  LdAHi = LdGp(Reg::RDX);
  LdB = LdGp(Reg::RCX);
  LdBHi = LdGp(Reg::R8);
  LdCond = LdGp(Reg::R9);
  LdTmp = LdGp(Reg::R11);
  StA = StGp(Reg::RAX);
  StAHi = StGp(Reg::RDX);
  StTmp = StGp(Reg::R11);
  LdAX = LdX(Xmm::XMM0);
  LdBX = LdX(Xmm::XMM1);
  StAX = StX(Xmm::XMM0);
  for (unsigned I = 0; I != 6; ++I) {
    LdArg[I] = LdGp(GpArgRegs[I]);
    StParamGp[I] = StGp(GpArgRegs[I]);
  }
  for (unsigned I = 0; I != 8; ++I)
    StParamXmm[I] = StX(static_cast<Xmm>(I));

  {
    FB B;
    B.A.movAbsRI(Reg::RAX, IMM64_PLACEHOLDER);
    B.mark(Patch::Kind::Imm64, 8);
    ConstA = B.take();
  }
  {
    FB B;
    B.A.movAbsRI(Reg::RDX, IMM64_PLACEHOLDER);
    B.mark(Patch::Kind::Imm64, 8);
    ConstAHi = B.take();
  }
  {
    FB B;
    B.A.lea(Reg::RAX, Mem::base(Reg::RBP, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    LeaSlotA = B.take();
  }
  {
    FB B;
    B.A.pushR(Reg::RBP);
    B.A.movRR(Width::W64, Reg::RBP, Reg::RSP);
    // sub rsp, imm32: the placeholder > 127 forces the 0x81 encoding.
    B.A.aluRI(Assembler::Alu::Sub, Width::W64, Reg::RSP, 0x01000000);
    B.mark(Patch::Kind::Imm32);
    Prologue = B.take();
  }
  {
    FB B;
    B.A.movRR(Width::W64, Reg::RSP, Reg::RBP);
    B.A.popR(Reg::RBP);
    B.A.ret();
    Epilogue = B.take();
  }
  {
    FB B;
    B.A.ud2();
    Ud2 = B.take();
  }
  {
    FB B;
    B.pendingJmp(Patch::Kind::Rel32);
    Jmp = B.take();
  }
  {
    FB B;
    B.A.testRR(Width::W64, Reg::RAX, Reg::RAX);
    B.pendingJcc(Patch::Kind::Rel32, Cond::NE);
    TestJnz = B.take();
  }
  static const qir::CmpPred AllPreds[] = {
      qir::CmpPred::Eq,  qir::CmpPred::Ne,  qir::CmpPred::SLt,
      qir::CmpPred::SLe, qir::CmpPred::SGt, qir::CmpPred::SGe,
      qir::CmpPred::ULt, qir::CmpPred::ULe, qir::CmpPred::UGt,
      qir::CmpPred::UGe};
  for (qir::CmpPred P : AllPreds) {
    FB B;
    B.pendingJcc(Patch::Kind::Rel32, condForPred(P));
    JccPred[static_cast<uint8_t>(P)] = B.take();
  }
  {
    FB B;
    B.markAt(Patch::Kind::Imm64, lowerCallAbs(B.A, IMM64_PLACEHOLDER));
    CallR10 = B.take();
  }
  static const rt::TrapCode TrapCodes[2] = {rt::TrapCode::Overflow,
                                            rt::TrapCode::DivByZero};
  for (unsigned Idx = 0; Idx != 2; ++Idx) {
    FB B;
    B.markAt(Patch::Kind::Imm64,
             lowerTrapStub(B.A, TrapCodes[Idx], IMM64_PLACEHOLDER));
    TrapStub[Idx] = B.take();
  }

  // --- Operation cores ----------------------------------------------------
  // Each core is x64/QirLower's sequence on the stencil convention: the
  // result overwrites operand A. i128 division, shifts and checked
  // multiplies are runtime helper calls (composed by the compiler).
  constexpr Lanes SA{Reg::RAX, Reg::RDX}, SB{Reg::RCX, Reg::R8};
  for (Opcode Op : {Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                    Opcode::Xor, Opcode::SAddTrap, Opcode::SSubTrap,
                    Opcode::Mul, Opcode::SMulTrap}) {
    for (Type Ty : OneLaneInts) {
      FB B;
      lowerArith(B.A, Op, Ty, SA, SA, SB, B.Sink);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
    if (Op == Opcode::SMulTrap)
      continue;
    FB B;
    if (Op == Opcode::Mul)
      lowerMul128(B.A, SA, SA, SB);
    else
      lowerArith(B.A, Op, Type::I128, SA, SA, SB, B.Sink);
    add(Op, static_cast<uint8_t>(Type::I128), 0, B.take());
  }
  for (Opcode Op : {Opcode::Neg, Opcode::Not}) {
    for (Type Ty : IntTypes) {
      FB B;
      lowerNegNot(B.A, Op, Ty, SA, SA);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }
  for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    for (Opcode Op : {Opcode::SDiv, Opcode::UDiv, Opcode::SRem}) {
      FB B;
      lowerDivRem(B.A, Op, Ty, Reg::RCX, Reg::RAX, B.Sink);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
    // The amount already sits in RCX (= CL).
    for (Opcode Op :
         {Opcode::Shl, Opcode::LShr, Opcode::AShr, Opcode::RotR}) {
      FB B;
      lowerShift(B.A, Op, Ty, Reg::RAX, Reg::RAX);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }
  {
    FB B;
    lowerCrc32(B.A, Reg::RAX, Reg::RAX, Reg::RCX);
    add(Opcode::Crc32, 0, 0, B.take());
  }
  {
    FB B;
    lowerLongMulFold(B.A, Reg::RCX);
    add(Opcode::LongMulFold, 0, 0, B.take());
  }
  for (Opcode Op : {Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv}) {
    FB B;
    lowerFArith(B.A, Op, Xmm::XMM0, Xmm::XMM0, Xmm::XMM1);
    add(Op, 0, 0, B.take());
  }
  {
    FB B;
    lowerFNeg(B.A, Xmm::XMM0, Xmm::XMM0, Reg::RAX);
    add(Opcode::FNeg, 0, 0, B.take());
  }
  for (qir::CmpPred P : AllPreds) {
    for (Type OpTy : IntTypes) {
      FB B;
      lowerICmp(B.A, P, OpTy, Reg::RAX, SA, SB);
      add(Opcode::ICmp, static_cast<uint8_t>(OpTy), static_cast<uint8_t>(P),
          B.take());
    }
    FB B;
    lowerFCmp(B.A, P, Reg::RAX, Xmm::XMM0, Xmm::XMM1);
    add(Opcode::FCmp, 0, static_cast<uint8_t>(P), B.take());
  }
  // Condition in R9; true value in RAX(/RDX or XMM0), false in RCX(/R8 or
  // XMM1).
  for (uint8_t Sel : {SelOneLane, SelTwoLane}) {
    FB B;
    lowerSelect(B.A, Sel == SelOneLane ? Type::I64 : Type::I128, Reg::R9, SA,
                SA, SB);
    add(Opcode::Select, Sel, 0, B.take());
  }
  {
    FB B;
    lowerSelectF64(B.A, Reg::R9, Xmm::XMM0, Xmm::XMM0, Xmm::XMM1);
    add(Opcode::Select, SelF64, 0, B.take());
  }

  // --- Width changes ------------------------------------------------------
  {
    // ZExt to a one-lane type is a slot copy; only i128 needs a core.
    FB B;
    lowerZExt(B.A, Type::I128, SA, Reg::RAX);
    add(Opcode::ZExt, static_cast<uint8_t>(Type::I128), 0, B.take());
  }
  for (Type From : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    for (Type To : {Type::I8, Type::I16, Type::I32, Type::I64, Type::I128}) {
      if (To != Type::I128 && qir::intBits(To) <= qir::intBits(From))
        continue;
      FB B;
      lowerSExt(B.A, From, To, SA, Reg::RAX);
      add(Opcode::SExt, static_cast<uint8_t>(From),
          static_cast<uint8_t>(To), B.take());
    }
    FB B;
    lowerSIToFP(B.A, From, Xmm::XMM0, Reg::RAX, Reg::RAX);
    add(Opcode::SIToFP, static_cast<uint8_t>(From), 0, B.take());
  }
  for (Type To : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    if (To != Type::I64) {
      FB B;
      lowerTrunc(B.A, To, Reg::RAX, Reg::RAX);
      add(Opcode::Trunc, static_cast<uint8_t>(To), 0, B.take());
    }
    FB B;
    lowerFPToSI(B.A, To, Reg::RAX, Xmm::XMM0);
    add(Opcode::FPToSI, static_cast<uint8_t>(To), 0, B.take());
  }

  // --- Memory -------------------------------------------------------------
  // Pointer in RAX for loads; value in RAX(/RDX), pointer in RCX for
  // stores. F64 moves raw bits through GP registers (slots hold raw bits).
  for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64,
                  Type::Ptr, Type::F64, Type::I128, Type::D128}) {
    FB L, S;
    lowerLoad(L.A, Ty, SA, Reg::RAX);
    add(Opcode::Load, static_cast<uint8_t>(Ty), 0, L.take());
    lowerStore(S.A, Ty, Reg::RCX, SA);
    add(Opcode::Store, static_cast<uint8_t>(Ty), 0, S.take());
  }
  // Base in RAX, index (if any) in RCX; the displacement and a scale other
  // than 1/2/4/8 are patched.
  static const uint8_t GepVariants[] = {0, 1, 2, 4, 8, GepGenericScale};
  for (uint8_t V : GepVariants) {
    FB B;
    lowerGep(B.A, Reg::RAX, Reg::RAX, V ? Reg::RCX : Reg::NoReg,
             V == GepGenericScale ? DISP_PLACEHOLDER : V, DISP_PLACEHOLDER,
             B.Sink);
    add(Opcode::Gep, V, 0, B.take());
  }

  // --- Atomics ------------------------------------------------------------
  // Value in RAX, pointer in RCX; the old value replaces RAX.
  for (Type Ty : {Type::I32, Type::I64}) {
    FB B;
    B.A.lockXaddMR(aluWidth(Ty), Mem::base(Reg::RCX), Reg::RAX);
    add(Opcode::AtomicAdd, static_cast<uint8_t>(Ty), 0, B.take());
  }

  // --- Index --------------------------------------------------------------
  std::sort(Cores.begin(), Cores.end(),
            [](const auto &X, const auto &Y) { return X.first < Y.first; });
  CoreIndex.assign(slotOf(static_cast<Opcode>(Cores.back().first >> 16),
                          NumVariants - 1, NumVariants - 1) + 1, 0);
  for (size_t I = 0; I != Cores.size(); ++I) {
    uint32_t Key = Cores[I].first;
    uint16_t &Pos = CoreIndex[slotOf(static_cast<Opcode>(Key >> 16),
                                     (Key >> 8) & 0xff, Key & 0xff)];
    assert(Pos == 0 && "duplicate stencil core");
    Pos = static_cast<uint16_t>(I + 1);
  }
}
