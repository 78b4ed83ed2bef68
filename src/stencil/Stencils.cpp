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
// The operation cores reproduce DirectEmit's instruction selection on a
// fixed register convention (see Stencils.h). Keeping the two back-ends
// semantically byte-for-byte aligned is what makes the shared differential
// corpus and translation validation meaningful for both.
//
//===----------------------------------------------------------------------===//

#include "stencil/Stencils.h"
#include "runtime/Trap.h"
#include "support/Compiler.h"
#include "x64/Asm.h"
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

Width widthOf(Type Ty) { return widthForBytes(qir::typeSize(Ty)); }

Width aluWidth(Type Ty) {
  return Ty == Type::I64 || Ty == Type::Ptr ? Width::W64 : Width::W32;
}

Cond condForPred(qir::CmpPred P) {
  switch (P) {
  case qir::CmpPred::Eq:
    return Cond::E;
  case qir::CmpPred::Ne:
    return Cond::NE;
  case qir::CmpPred::SLt:
    return Cond::L;
  case qir::CmpPred::SLe:
    return Cond::LE;
  case qir::CmpPred::SGt:
    return Cond::G;
  case qir::CmpPred::SGe:
    return Cond::GE;
  case qir::CmpPred::ULt:
    return Cond::B;
  case qir::CmpPred::ULe:
    return Cond::BE;
  case qir::CmpPred::UGt:
    return Cond::A;
  case qir::CmpPred::UGe:
    return Cond::AE;
  }
  QCF_UNREACHABLE("invalid predicate");
}

/// Builds one fragment. Patch records are taken right after emitting the
/// instruction whose trailing bytes form the field; rel32 fields destined
/// for the compiler (continuations, trap edges) target a label bound at the
/// fragment end purely so finalize() succeeds — the compiler overwrites
/// them.
class FB {
public:
  Assembler A;

  void mark(Patch::Kind K, unsigned FieldBytes = 4) {
    Patches.push_back(
        {K, static_cast<uint16_t>(A.size() - FieldBytes)});
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

using Alu = Assembler::Alu;
using Sh = Assembler::Shift;

void recanon(FB &B, Type Ty) {
  if (Ty == Type::I1)
    B.A.aluRI(Alu::And, Width::W32, Reg::RAX, 1);
  else if (Ty == Type::I8)
    B.A.movzxRR(Width::W8, Reg::RAX, Reg::RAX);
  else if (Ty == Type::I16)
    B.A.movzxRR(Width::W16, Reg::RAX, Reg::RAX);
}

constexpr Type OneLaneInts[] = {Type::I1, Type::I8, Type::I16, Type::I32,
                                Type::I64, Type::Ptr};

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
  bool Inserted = Cores.emplace(coreKey(Op, A, B), std::move(F)).second;
  assert(Inserted && "duplicate stencil core");
  (void)Inserted;
}

const Fragment &StencilTable::core(Opcode Op, uint8_t A, uint8_t B) const {
  auto It = Cores.find(coreKey(Op, A, B));
  assert(It != Cores.end() && "missing stencil core");
  return It->second;
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
    B.A.aluRI(Alu::Sub, Width::W64, Reg::RSP, 0x01000000);
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
    B.A.movAbsRI(Reg::R10, IMM64_PLACEHOLDER);
    B.mark(Patch::Kind::Imm64, 8);
    B.A.callReg(Reg::R10);
    CallR10 = B.take();
  }
  static const rt::TrapCode TrapCodes[2] = {rt::TrapCode::Overflow,
                                            rt::TrapCode::DivByZero};
  for (unsigned Idx = 0; Idx != 2; ++Idx) {
    FB B;
    B.A.movRI32(Reg::RDI, static_cast<uint32_t>(TrapCodes[Idx]));
    B.A.movAbsRI(Reg::R10, IMM64_PLACEHOLDER);
    B.mark(Patch::Kind::Imm64, 8);
    B.A.callReg(Reg::R10);
    B.A.ud2();
    TrapStub[Idx] = B.take();
  }

  // --- Add/Sub/And/Or/Xor -------------------------------------------------
  struct {
    Opcode Op;
    Alu Lo, Hi;
  } AddLike[] = {{Opcode::Add, Alu::Add, Alu::Adc},
                 {Opcode::Sub, Alu::Sub, Alu::Sbb},
                 {Opcode::And, Alu::And, Alu::And},
                 {Opcode::Or, Alu::Or, Alu::Or},
                 {Opcode::Xor, Alu::Xor, Alu::Xor}};
  for (const auto &AL : AddLike) {
    for (Type Ty : OneLaneInts) {
      FB B;
      B.A.aluRR(AL.Lo, aluWidth(Ty), Reg::RAX, Reg::RCX);
      recanon(B, Ty);
      add(AL.Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
    FB B;
    B.A.aluRR(AL.Lo, Width::W64, Reg::RAX, Reg::RCX);
    B.A.aluRR(AL.Hi, Width::W64, Reg::RDX, Reg::R8);
    add(AL.Op, static_cast<uint8_t>(Type::I128), 0, B.take());
  }

  // --- Mul ----------------------------------------------------------------
  for (Type Ty : OneLaneInts) {
    FB B;
    B.A.imulRR(aluWidth(Ty), Reg::RAX, Reg::RCX);
    recanon(B, Ty);
    add(Opcode::Mul, static_cast<uint8_t>(Ty), 0, B.take());
  }
  {
    // Wrapping 128-bit multiply via three 64-bit multiplies (a.lo/a.hi in
    // rax/rdx, b.lo/b.hi in rcx/r8); mirrors DirectEmit's sequence on the
    // stencil register convention.
    FB B;
    B.A.movRR(Width::W64, Reg::R11, Reg::RAX); // save a.lo
    B.A.movRR(Width::W64, Reg::R9, Reg::RDX);  // a.hi (mul clobbers rdx)
    B.A.mulR(Width::W64, Reg::RCX);            // rdx:rax = a.lo * b.lo
    B.A.movRR(Width::W64, Reg::R10, Reg::RDX); // hi accumulator
    B.A.imulRR(Width::W64, Reg::R9, Reg::RCX); // a.hi * b.lo
    B.A.aluRR(Alu::Add, Width::W64, Reg::R10, Reg::R9);
    B.A.imulRR(Width::W64, Reg::R11, Reg::R8); // a.lo * b.hi
    B.A.aluRR(Alu::Add, Width::W64, Reg::R10, Reg::R11);
    B.A.movRR(Width::W64, Reg::RDX, Reg::R10);
    add(Opcode::Mul, static_cast<uint8_t>(Type::I128), 0, B.take());
  }

  // --- Div / Rem ----------------------------------------------------------
  // i128 division goes through runtime helpers (composed by the compiler).
  for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    for (Opcode Op : {Opcode::SDiv, Opcode::UDiv, Opcode::SRem}) {
      FB B;
      bool Signed = Op != Opcode::UDiv;
      Width W = aluWidth(Ty);
      if (Signed && (Ty == Type::I8 || Ty == Type::I16)) {
        B.A.movsxRR(widthOf(Ty), Reg::RAX, Reg::RAX);
        B.A.movsxRR(widthOf(Ty), Reg::RCX, Reg::RCX);
      }
      B.A.testRR(W, Reg::RCX, Reg::RCX);
      B.pendingJcc(Patch::Kind::TrapDiv, Cond::E);
      if (Signed) {
        Label Ok = B.A.newLabel();
        B.A.aluRI(Alu::Cmp, W, Reg::RCX, -1);
        if (Op == Opcode::SRem) {
          // srem x, -1 == 0 for every x; rewrite the divisor to 1 so idiv
          // cannot fault on INT_MIN (same rewrite as DirectEmit).
          B.A.jcc(Cond::NE, Ok);
          B.A.movRI32(Reg::RCX, 1);
        } else {
          B.A.jcc(Cond::NE, Ok);
          if (Ty == Type::I64) {
            B.A.movRI(Reg::R11, 0x8000000000000000ull);
            B.A.aluRR(Alu::Cmp, Width::W64, Reg::RAX, Reg::R11);
          } else {
            int32_t Min = Ty == Type::I32   ? INT32_MIN
                          : Ty == Type::I16 ? -32768
                                            : -128;
            B.A.aluRI(Alu::Cmp, W, Reg::RAX, Min);
          }
          B.pendingJcc(Patch::Kind::TrapOvf, Cond::E);
        }
        B.A.bind(Ok);
        if (W == Width::W64)
          B.A.cqo();
        else
          B.A.cdq();
        B.A.idivR(W, Reg::RCX);
      } else {
        B.A.movRI32(Reg::RDX, 0);
        B.A.divR(W, Reg::RCX);
      }
      if (Op == Opcode::SRem)
        B.A.movRR(Width::W64, Reg::RAX, Reg::RDX);
      recanon(B, Ty);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }

  // --- Shifts -------------------------------------------------------------
  // The amount already sits in RCX (= CL). i128 shifts are helper calls.
  for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    for (Opcode Op :
         {Opcode::Shl, Opcode::LShr, Opcode::AShr, Opcode::RotR}) {
      FB B;
      unsigned Bits = qir::intBits(Ty);
      if (Bits < 32 && Op != Opcode::RotR)
        B.A.aluRI(Alu::And, Width::W32, Reg::RCX,
                  static_cast<int32_t>(Bits - 1));
      switch (Op) {
      case Opcode::Shl:
        B.A.shiftRC(Sh::Shl, aluWidth(Ty), Reg::RAX);
        recanon(B, Ty);
        break;
      case Opcode::LShr:
        B.A.shiftRC(Sh::Shr, aluWidth(Ty), Reg::RAX);
        recanon(B, Ty);
        break;
      case Opcode::AShr:
        if (Ty == Type::I8 || Ty == Type::I16)
          B.A.movsxRR(widthOf(Ty), Reg::RAX, Reg::RAX);
        B.A.shiftRC(Sh::Sar, aluWidth(Ty), Reg::RAX);
        recanon(B, Ty);
        break;
      default: // RotR rotates at the true width; result stays canonical.
        B.A.shiftRC(Sh::Ror, widthOf(Ty), Reg::RAX);
        break;
      }
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }

  // --- Neg / Not ----------------------------------------------------------
  for (Type Ty : OneLaneInts) {
    {
      FB B;
      B.A.negR(aluWidth(Ty), Reg::RAX);
      recanon(B, Ty);
      add(Opcode::Neg, static_cast<uint8_t>(Ty), 0, B.take());
    }
    {
      FB B;
      B.A.notR(aluWidth(Ty), Reg::RAX);
      recanon(B, Ty);
      add(Opcode::Not, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }
  {
    FB B;
    B.A.movRI32(Reg::R10, 0);
    B.A.movRI32(Reg::R11, 0);
    B.A.aluRR(Alu::Sub, Width::W64, Reg::R10, Reg::RAX);
    B.A.aluRR(Alu::Sbb, Width::W64, Reg::R11, Reg::RDX);
    B.A.movRR(Width::W64, Reg::RAX, Reg::R10);
    B.A.movRR(Width::W64, Reg::RDX, Reg::R11);
    add(Opcode::Neg, static_cast<uint8_t>(Type::I128), 0, B.take());
  }
  {
    FB B;
    B.A.notR(Width::W64, Reg::RAX);
    B.A.notR(Width::W64, Reg::RDX);
    add(Opcode::Not, static_cast<uint8_t>(Type::I128), 0, B.take());
  }

  // --- Checked arithmetic -------------------------------------------------
  for (Opcode Op : {Opcode::SAddTrap, Opcode::SSubTrap}) {
    bool IsAdd = Op == Opcode::SAddTrap;
    for (Type Ty : OneLaneInts) {
      FB B;
      B.A.aluRR(IsAdd ? Alu::Add : Alu::Sub, aluWidth(Ty), Reg::RAX,
                Reg::RCX);
      B.pendingJcc(Patch::Kind::TrapOvf, Cond::O);
      recanon(B, Ty);
      add(Op, static_cast<uint8_t>(Ty), 0, B.take());
    }
    FB B;
    B.A.aluRR(IsAdd ? Alu::Add : Alu::Sub, Width::W64, Reg::RAX, Reg::RCX);
    B.A.aluRR(IsAdd ? Alu::Adc : Alu::Sbb, Width::W64, Reg::RDX, Reg::R8);
    B.pendingJcc(Patch::Kind::TrapOvf, Cond::O);
    add(Op, static_cast<uint8_t>(Type::I128), 0, B.take());
  }
  for (Type Ty : OneLaneInts) {
    // i128 checked multiply calls rt_mul128_ovf (composed).
    FB B;
    B.A.imulRR(aluWidth(Ty), Reg::RAX, Reg::RCX);
    B.pendingJcc(Patch::Kind::TrapOvf, Cond::O);
    recanon(B, Ty);
    add(Opcode::SMulTrap, static_cast<uint8_t>(Ty), 0, B.take());
  }

  // --- Hash / fold --------------------------------------------------------
  {
    FB B;
    B.A.crc32RR(Reg::RAX, Reg::RCX);
    add(Opcode::Crc32, 0, 0, B.take());
  }
  {
    FB B;
    B.A.mulR(Width::W64, Reg::RCX);
    B.A.aluRR(Alu::Xor, Width::W64, Reg::RAX, Reg::RDX);
    add(Opcode::LongMulFold, 0, 0, B.take());
  }

  // --- Scalar f64 ---------------------------------------------------------
  {
    FB B;
    B.A.addsd(Xmm::XMM0, Xmm::XMM1);
    add(Opcode::FAdd, 0, 0, B.take());
  }
  {
    FB B;
    B.A.subsd(Xmm::XMM0, Xmm::XMM1);
    add(Opcode::FSub, 0, 0, B.take());
  }
  {
    FB B;
    B.A.mulsd(Xmm::XMM0, Xmm::XMM1);
    add(Opcode::FMul, 0, 0, B.take());
  }
  {
    FB B;
    B.A.divsd(Xmm::XMM0, Xmm::XMM1);
    add(Opcode::FDiv, 0, 0, B.take());
  }
  {
    // -x == (bitcast) x ^ sign bit.
    FB B;
    B.A.movqRX(Reg::RAX, Xmm::XMM0);
    B.A.movRI(Reg::R11, 0x8000000000000000ull);
    B.A.aluRR(Alu::Xor, Width::W64, Reg::RAX, Reg::R11);
    B.A.movqXR(Xmm::XMM0, Reg::RAX);
    add(Opcode::FNeg, 0, 0, B.take());
  }

  // --- Integer compares ---------------------------------------------------
  for (Type OpTy : OneLaneInts) {
    for (qir::CmpPred P : AllPreds) {
      FB B;
      B.A.aluRR(Alu::Cmp, widthOf(OpTy), Reg::RAX, Reg::RCX);
      B.A.setcc(condForPred(P), Reg::RAX);
      B.A.movzxRR(Width::W8, Reg::RAX, Reg::RAX);
      add(Opcode::ICmp, static_cast<uint8_t>(OpTy),
          static_cast<uint8_t>(P), B.take());
    }
  }
  for (qir::CmpPred P : AllPreds) {
    FB B;
    if (P == qir::CmpPred::Eq || P == qir::CmpPred::Ne) {
      B.A.movRR(Width::W64, Reg::R11, Reg::RAX);
      B.A.aluRR(Alu::Xor, Width::W64, Reg::R11, Reg::RCX);
      B.A.movRR(Width::W64, Reg::R10, Reg::RDX);
      B.A.aluRR(Alu::Xor, Width::W64, Reg::R10, Reg::R8);
      B.A.aluRR(Alu::Or, Width::W64, Reg::R11, Reg::R10);
      B.A.setcc(P == qir::CmpPred::Eq ? Cond::E : Cond::NE, Reg::RAX);
      B.A.movzxRR(Width::W8, Reg::RAX, Reg::RAX);
    } else {
      // lt(x, y) via cmp/sbb; the others are lt with swapped operands
      // and/or an inverted result (same table as DirectEmit).
      bool Swap, Invert, Signed;
      switch (P) {
      case qir::CmpPred::SLt:
        Swap = false; Invert = false; Signed = true; break;
      case qir::CmpPred::SGt:
        Swap = true; Invert = false; Signed = true; break;
      case qir::CmpPred::SLe:
        Swap = true; Invert = true; Signed = true; break;
      case qir::CmpPred::SGe:
        Swap = false; Invert = true; Signed = true; break;
      case qir::CmpPred::ULt:
        Swap = false; Invert = false; Signed = false; break;
      case qir::CmpPred::UGt:
        Swap = true; Invert = false; Signed = false; break;
      case qir::CmpPred::ULe:
        Swap = true; Invert = true; Signed = false; break;
      default:
        Swap = false; Invert = true; Signed = false; break;
      }
      Reg XLo = Swap ? Reg::RCX : Reg::RAX, XHi = Swap ? Reg::R8 : Reg::RDX;
      Reg YLo = Swap ? Reg::RAX : Reg::RCX, YHi = Swap ? Reg::RDX : Reg::R8;
      B.A.movRR(Width::W64, Reg::R11, XHi);
      B.A.aluRR(Alu::Cmp, Width::W64, XLo, YLo);
      B.A.aluRR(Alu::Sbb, Width::W64, Reg::R11, YHi);
      B.A.setcc(Signed ? Cond::L : Cond::B, Reg::RAX);
      if (Invert)
        B.A.aluRI(Alu::Xor, Width::W32, Reg::RAX, 1);
      B.A.movzxRR(Width::W8, Reg::RAX, Reg::RAX);
    }
    add(Opcode::ICmp, static_cast<uint8_t>(Type::I128),
        static_cast<uint8_t>(P), B.take());
  }

  // --- Float compares -----------------------------------------------------
  for (qir::CmpPred P : AllPreds) {
    FB B;
    switch (P) {
    case qir::CmpPred::Eq: // ordered eq: ZF=1 && PF=0
      B.A.ucomisd(Xmm::XMM0, Xmm::XMM1);
      B.A.setcc(Cond::E, Reg::RAX);
      B.A.setcc(Cond::NP, Reg::R11);
      B.A.aluRR(Alu::And, Width::W8, Reg::RAX, Reg::R11);
      break;
    case qir::CmpPred::Ne: // unordered ne: ZF=0 || PF=1
      B.A.ucomisd(Xmm::XMM0, Xmm::XMM1);
      B.A.setcc(Cond::NE, Reg::RAX);
      B.A.setcc(Cond::P, Reg::R11);
      B.A.aluRR(Alu::Or, Width::W8, Reg::RAX, Reg::R11);
      break;
    case qir::CmpPred::SGt:
    case qir::CmpPred::UGt:
      B.A.ucomisd(Xmm::XMM0, Xmm::XMM1);
      B.A.setcc(Cond::A, Reg::RAX);
      break;
    case qir::CmpPred::SGe:
    case qir::CmpPred::UGe:
      B.A.ucomisd(Xmm::XMM0, Xmm::XMM1);
      B.A.setcc(Cond::AE, Reg::RAX);
      break;
    case qir::CmpPred::SLt:
    case qir::CmpPred::ULt:
      B.A.ucomisd(Xmm::XMM1, Xmm::XMM0);
      B.A.setcc(Cond::A, Reg::RAX);
      break;
    default: // SLe / ULe
      B.A.ucomisd(Xmm::XMM1, Xmm::XMM0);
      B.A.setcc(Cond::AE, Reg::RAX);
      break;
    }
    B.A.movzxRR(Width::W8, Reg::RAX, Reg::RAX);
    add(Opcode::FCmp, 0, static_cast<uint8_t>(P), B.take());
  }

  // --- Select -------------------------------------------------------------
  // Condition in R9; true value in RAX(/RDX or XMM0), false in RCX(/R8 or
  // XMM1).
  {
    FB B;
    B.A.testRR(Width::W64, Reg::R9, Reg::R9);
    B.A.cmovcc(Cond::E, Width::W64, Reg::RAX, Reg::RCX);
    add(Opcode::Select, SelOneLane, 0, B.take());
  }
  {
    FB B;
    B.A.testRR(Width::W64, Reg::R9, Reg::R9);
    B.A.cmovcc(Cond::E, Width::W64, Reg::RAX, Reg::RCX);
    B.A.cmovcc(Cond::E, Width::W64, Reg::RDX, Reg::R8);
    add(Opcode::Select, SelTwoLane, 0, B.take());
  }
  {
    FB B;
    Label Skip = B.A.newLabel();
    B.A.testRR(Width::W64, Reg::R9, Reg::R9);
    B.A.jcc(Cond::NE, Skip);
    B.A.movsdXX(Xmm::XMM0, Xmm::XMM1);
    B.A.bind(Skip);
    add(Opcode::Select, SelF64, 0, B.take());
  }

  // --- Width changes ------------------------------------------------------
  {
    // ZExt to i128: the canonical lo lane is already in RAX.
    FB B;
    B.A.movRI32(Reg::RDX, 0);
    add(Opcode::ZExt, static_cast<uint8_t>(Type::I128), 0, B.take());
  }
  for (Type From : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    for (Type To : {Type::I8, Type::I16, Type::I32, Type::I64, Type::I128}) {
      if (To != Type::I128 && qir::intBits(To) <= qir::intBits(From))
        continue;
      FB B;
      if (From == Type::I1) {
        B.A.negR(Width::W64, Reg::RAX); // i1: 0 -> 0, 1 -> -1
      } else if (From != Type::I64) {
        B.A.movsxRR(widthOf(From), Reg::RAX, Reg::RAX);
      }
      if (To != Type::I128 && To != Type::I64) {
        B.A.movRI(Reg::R11, qir::typeMask(To));
        B.A.aluRR(Alu::And, Width::W64, Reg::RAX, Reg::R11);
      }
      if (To == Type::I128) {
        B.A.movRR(Width::W64, Reg::RDX, Reg::RAX);
        B.A.shiftRI(Sh::Sar, Width::W64, Reg::RDX, 63);
      }
      add(Opcode::SExt, static_cast<uint8_t>(From),
          static_cast<uint8_t>(To), B.take());
    }
  }
  for (Type To : {Type::I1, Type::I8, Type::I16, Type::I32}) {
    FB B;
    B.A.movRI(Reg::R11, qir::typeMask(To));
    B.A.aluRR(Alu::And, Width::W64, Reg::RAX, Reg::R11);
    add(Opcode::Trunc, static_cast<uint8_t>(To), 0, B.take());
  }
  for (Type From : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    FB B;
    if (From != Type::I64)
      B.A.movsxRR(widthOf(From), Reg::RAX, Reg::RAX);
    B.A.cvtsi2sd(Xmm::XMM0, Reg::RAX);
    add(Opcode::SIToFP, static_cast<uint8_t>(From), 0, B.take());
  }
  for (Type To : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64}) {
    FB B;
    B.A.cvttsd2si(Reg::RAX, Xmm::XMM0);
    if (To != Type::I64) {
      B.A.movRI(Reg::R11, qir::typeMask(To));
      B.A.aluRR(Alu::And, Width::W64, Reg::RAX, Reg::R11);
    }
    add(Opcode::FPToSI, static_cast<uint8_t>(To), 0, B.take());
  }

  // --- Memory -------------------------------------------------------------
  // Pointer in RAX for loads; value in RAX(/RDX), pointer in RCX for
  // stores. F64 moves raw bits through GP registers (slots hold raw bits).
  for (Type Ty : {Type::I1, Type::I8, Type::I16, Type::I32, Type::I64,
                  Type::Ptr, Type::F64, Type::I128, Type::D128}) {
    {
      FB B;
      if (qir::isTwoLane(Ty)) {
        B.A.movRM(Width::W64, Reg::RDX, Mem::base(Reg::RAX, 8));
        B.A.movRM(Width::W64, Reg::RAX, Mem::base(Reg::RAX));
      } else if (Ty == Type::I64 || Ty == Type::Ptr || Ty == Type::F64) {
        B.A.movRM(Width::W64, Reg::RAX, Mem::base(Reg::RAX));
      } else {
        B.A.movzxRM(widthOf(Ty), Reg::RAX, Mem::base(Reg::RAX));
      }
      add(Opcode::Load, static_cast<uint8_t>(Ty), 0, B.take());
    }
    {
      FB B;
      if (qir::isTwoLane(Ty)) {
        B.A.movMR(Width::W64, Mem::base(Reg::RCX), Reg::RAX);
        B.A.movMR(Width::W64, Mem::base(Reg::RCX, 8), Reg::RDX);
      } else if (Ty == Type::F64) {
        B.A.movMR(Width::W64, Mem::base(Reg::RCX), Reg::RAX);
      } else {
        B.A.movMR(widthOf(Ty), Mem::base(Reg::RCX), Reg::RAX);
      }
      add(Opcode::Store, static_cast<uint8_t>(Ty), 0, B.take());
    }
  }

  // --- Gep ----------------------------------------------------------------
  // Base in RAX, index (if any) in RCX; displacement is a Disp32 patch.
  {
    FB B;
    B.A.lea(Reg::RAX, Mem::base(Reg::RAX, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    add(Opcode::Gep, 0, 0, B.take());
  }
  for (uint8_t Scale : {1, 2, 4, 8}) {
    FB B;
    B.A.lea(Reg::RAX,
            Mem::baseIndex(Reg::RAX, Reg::RCX, Scale, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    add(Opcode::Gep, Scale, 0, B.take());
  }
  {
    FB B;
    B.A.imulRRI(Width::W64, Reg::R11, Reg::RCX, DISP_PLACEHOLDER);
    B.mark(Patch::Kind::Imm32);
    B.A.lea(Reg::RAX,
            Mem::baseIndex(Reg::RAX, Reg::R11, 1, DISP_PLACEHOLDER));
    B.mark(Patch::Kind::Disp32);
    add(Opcode::Gep, GepGenericScale, 0, B.take());
  }

  // --- Atomics ------------------------------------------------------------
  // Value in RAX, pointer in RCX; the old value replaces RAX.
  for (Type Ty : {Type::I32, Type::I64}) {
    FB B;
    B.A.lockXaddMR(aluWidth(Ty), Mem::base(Reg::RCX), Reg::RAX);
    add(Opcode::AtomicAdd, static_cast<uint8_t>(Ty), 0, B.take());
  }
}
