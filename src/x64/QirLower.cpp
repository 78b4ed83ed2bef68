//===- x64/QirLower.cpp - x86-64 lowering of QIR scalar opcodes -----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/QirLower.h"
#include <cassert>

using namespace qcf;
using namespace qcf::x64;
using qir::CmpPred;
using qir::Opcode;
using qir::Type;
using Alu = Assembler::Alu;
using Sh = Assembler::Shift;

namespace {

void copy(Assembler &A, Reg D, Reg S) {
  if (D != S)
    A.movRR(Width::W64, D, S);
}

void copy(Assembler &A, Xmm D, Xmm S) {
  if (D != S)
    A.movsdXX(D, S);
}

/// Records the 4-byte field that ends the last instruction.
void record(LowerSink &S, Patch::Kind K, const Assembler &A) {
  if (S.Patches)
    S.Patches->push_back({K, static_cast<uint16_t>(A.size() - 4)});
}

void trapIf(Assembler &A, Cond C, rt::TrapCode Code, LowerSink &S) {
  bool Ovf = Code == rt::TrapCode::Overflow;
  Label &L = Ovf ? S.Ovf : S.Div;
  if (L == LowerSink::NoLabel)
    L = A.newLabel();
  A.jcc(C, L);
  record(S, Ovf ? Patch::Kind::TrapOvf : Patch::Kind::TrapDiv, A);
}

} // namespace

Width x64::widthOf(Type Ty) { return widthForBytes(qir::typeSize(Ty)); }

Width x64::aluWidth(Type Ty) {
  return Ty == Type::I64 || Ty == Type::Ptr ? Width::W64 : Width::W32;
}

Cond x64::condForPred(CmpPred P) {
  switch (P) {
  case CmpPred::Eq:
    return Cond::E;
  case CmpPred::Ne:
    return Cond::NE;
  case CmpPred::SLt:
    return Cond::L;
  case CmpPred::SLe:
    return Cond::LE;
  case CmpPred::SGt:
    return Cond::G;
  case CmpPred::SGe:
    return Cond::GE;
  case CmpPred::ULt:
    return Cond::B;
  case CmpPred::ULe:
    return Cond::BE;
  case CmpPred::UGt:
    return Cond::A;
  case CmpPred::UGe:
    return Cond::AE;
  }
  QCF_UNREACHABLE("invalid predicate");
}

void x64::recanonicalize(Assembler &A, Reg R, Type Ty) {
  if (Ty == Type::I1)
    A.aluRI(Alu::And, Width::W32, R, 1);
  else if (Ty == Type::I8)
    A.movzxRR(Width::W8, R, R);
  else if (Ty == Type::I16)
    A.movzxRR(Width::W16, R, R);
}

void x64::canonicalize(Assembler &A, Reg R, Type Ty) {
  A.movRI(Reg::R11, qir::typeMask(Ty));
  A.aluRR(Alu::And, Width::W64, R, Reg::R11);
}

const char *x64::runtimeHelper128(Opcode Op) {
  switch (Op) {
  case Opcode::SDiv:
    return "rt_sdiv128";
  case Opcode::UDiv:
    return "rt_udiv128";
  case Opcode::SRem:
    return "rt_srem128";
  case Opcode::Shl:
    return "rt_shl128";
  case Opcode::LShr:
    return "rt_lshr128";
  case Opcode::AShr:
    return "rt_ashr128";
  case Opcode::SMulTrap:
    // Umbra-style: the hand-optimized checked multiplication (§V-A1),
    // which traps on overflow itself.
    return "rt_mul128_ovf";
  case Opcode::RotR:
    QCF_UNREACHABLE("128-bit rotate is not supported");
  default:
    return nullptr;
  }
}

size_t x64::lowerCallAbs(Assembler &A, uint64_t Target) {
  A.movAbsRI(Reg::R10, Target);
  size_t Field = A.size() - 8;
  A.callReg(Reg::R10);
  return Field;
}

size_t x64::lowerTrapStub(Assembler &A, rt::TrapCode Code, uint64_t Target) {
  A.movRI32(Reg::RDI, static_cast<uint32_t>(Code));
  size_t Field = lowerCallAbs(A, Target);
  A.ud2();
  return Field;
}

void x64::lowerArith(Assembler &A, Opcode Op, Type Ty, Lanes D, Lanes Av,
                     Lanes Bv, LowerSink &S) {
  Alu Lo = Alu::Add, Hi = Alu::Adc;
  if (Op == Opcode::Sub || Op == Opcode::SSubTrap)
    Lo = Alu::Sub, Hi = Alu::Sbb;
  else if (Op == Opcode::And || Op == Opcode::Or || Op == Opcode::Xor)
    Lo = Hi = Op == Opcode::And  ? Alu::And
              : Op == Opcode::Or ? Alu::Or
                                 : Alu::Xor;
  bool IsMul = Op == Opcode::Mul || Op == Opcode::SMulTrap;
  bool Traps = Op == Opcode::SAddTrap || Op == Opcode::SSubTrap ||
               Op == Opcode::SMulTrap;
  copy(A, D.Lo, Av.Lo);
  if (Ty == Type::I128) {
    assert(!IsMul && "i128 multiplies have their own lowering");
    copy(A, D.Hi, Av.Hi);
    A.aluRR(Lo, Width::W64, D.Lo, Bv.Lo);
    A.aluRR(Hi, Width::W64, D.Hi, Bv.Hi);
  } else if (IsMul) {
    A.imulRR(aluWidth(Ty), D.Lo, Bv.Lo);
  } else {
    A.aluRR(Lo, aluWidth(Ty), D.Lo, Bv.Lo);
  }
  if (Traps)
    trapIf(A, Cond::O, rt::TrapCode::Overflow, S);
  recanonicalize(A, D.Lo, Ty);
}

void x64::lowerMul128(Assembler &A, Lanes D, Lanes Av, Lanes Bv) {
  // Three 64-bit multiplies: lo*lo in full, the two cross terms into the
  // high lane.
  assert(Av.Lo == Reg::RAX && "mul takes a.lo in rax");
  Reg AHi = Av.Hi;
  A.movRR(Width::W64, Reg::R11, Reg::RAX); // save a.lo
  if (AHi == Reg::RDX) {                   // mul clobbers rdx
    A.movRR(Width::W64, Reg::R10, Reg::RDX);
    AHi = Reg::R10;
  }
  A.mulR(Width::W64, Bv.Lo); // rdx:rax = a.lo * b.lo
  copy(A, D.Lo, Reg::RAX);
  copy(A, D.Hi, Reg::RDX);
  A.imulRR(Width::W64, AHi, Bv.Lo); // a.hi * b.lo
  A.aluRR(Alu::Add, Width::W64, D.Hi, AHi);
  A.imulRR(Width::W64, Reg::R11, Bv.Hi); // a.lo * b.hi
  A.aluRR(Alu::Add, Width::W64, D.Hi, Reg::R11);
}

void x64::lowerDivRem(Assembler &A, Opcode Op, Type Ty, Reg Divisor,
                      Reg Result, LowerSink &S) {
  bool Signed = Op != Opcode::UDiv;
  Width W = aluWidth(Ty);
  // Narrow signed operands are divided at 32 bits, sign-extended first.
  if (Signed && (Ty == Type::I8 || Ty == Type::I16)) {
    A.movsxRR(widthOf(Ty), Reg::RAX, Reg::RAX);
    A.movsxRR(widthOf(Ty), Divisor, Divisor);
  }
  A.testRR(W, Divisor, Divisor);
  trapIf(A, Cond::E, rt::TrapCode::DivByZero, S);
  if (Signed) {
    Label Ok = A.newLabel();
    A.aluRI(Alu::Cmp, W, Divisor, -1);
    A.jcc(Cond::NE, Ok);
    if (Op == Opcode::SRem) {
      // srem x, -1 == 0 for every x (see Opcode.h); rewrite the divisor to
      // 1 — same remainder for all inputs — so idiv cannot fault on
      // INT_MIN.
      A.movRI32(Divisor, 1);
    } else if (Ty == Type::I64) {
      // sdiv INT_MIN / -1 overflows: trap.
      A.movRI(Reg::R11, 0x8000000000000000ull);
      A.aluRR(Alu::Cmp, Width::W64, Reg::RAX, Reg::R11);
      trapIf(A, Cond::E, rt::TrapCode::Overflow, S);
    } else {
      int32_t Min = Ty == Type::I32   ? INT32_MIN
                    : Ty == Type::I16 ? -32768
                                      : -128;
      A.aluRI(Alu::Cmp, W, Reg::RAX, Min);
      trapIf(A, Cond::E, rt::TrapCode::Overflow, S);
    }
    A.bind(Ok);
    if (W == Width::W64)
      A.cqo();
    else
      A.cdq();
    A.idivR(W, Divisor);
  } else {
    A.movRI32(Reg::RDX, 0);
    A.divR(W, Divisor);
  }
  // 32-bit divides leave eax/edx zero-extended; narrow results still need
  // re-canonicalizing.
  copy(A, Result, Op == Opcode::SRem ? Reg::RDX : Reg::RAX);
  recanonicalize(A, Result, Ty);
}

void x64::lowerShift(Assembler &A, Opcode Op, Type Ty, Reg D, Reg Av) {
  assert((Op == Opcode::Shl || Op == Opcode::LShr || Op == Opcode::AShr ||
          Op == Opcode::RotR) &&
         "not a shift");
  unsigned Bits = qir::intBits(Ty);
  if (Bits < 32 && Op != Opcode::RotR)
    A.aluRI(Alu::And, Width::W32, Reg::RCX, static_cast<int32_t>(Bits - 1));
  if (Op == Opcode::AShr && (Ty == Type::I8 || Ty == Type::I16))
    A.movsxRR(widthOf(Ty), D, Av);
  else
    copy(A, D, Av);
  if (Op == Opcode::RotR) {
    // Rotates at the true width, so the result stays canonical.
    A.shiftRC(Sh::Ror, widthOf(Ty), D);
    return;
  }
  A.shiftRC(Op == Opcode::Shl    ? Sh::Shl
            : Op == Opcode::LShr ? Sh::Shr
                                 : Sh::Sar,
            aluWidth(Ty), D);
  recanonicalize(A, D, Ty);
}

void x64::lowerNegNot(Assembler &A, Opcode Op, Type Ty, Lanes D, Lanes Av) {
  bool IsNeg = Op == Opcode::Neg;
  if (Ty != Type::I128) {
    copy(A, D.Lo, Av.Lo);
    if (IsNeg)
      A.negR(aluWidth(Ty), D.Lo);
    else
      A.notR(aluWidth(Ty), D.Lo);
    recanonicalize(A, D.Lo, Ty);
    return;
  }
  if (!IsNeg) {
    copy(A, D.Lo, Av.Lo);
    A.notR(Width::W64, D.Lo);
    copy(A, D.Hi, Av.Hi);
    A.notR(Width::W64, D.Hi);
    return;
  }
  // 0 - a, built in registers that do not hold a.
  bool Alias = D.Lo == Av.Lo || D.Lo == Av.Hi || D.Hi == Av.Lo ||
               D.Hi == Av.Hi;
  Lanes T = Alias ? Lanes{Reg::R10, Reg::R11} : D;
  A.movRI32(T.Lo, 0);
  A.movRI32(T.Hi, 0);
  A.aluRR(Alu::Sub, Width::W64, T.Lo, Av.Lo);
  A.aluRR(Alu::Sbb, Width::W64, T.Hi, Av.Hi);
  copy(A, D.Lo, T.Lo);
  copy(A, D.Hi, T.Hi);
}

void x64::lowerCrc32(Assembler &A, Reg D, Reg Av, Reg Bv) {
  copy(A, D, Av);
  A.crc32RR(D, Bv);
}

void x64::lowerLongMulFold(Assembler &A, Reg Bv) {
  A.mulR(Width::W64, Bv);
  A.aluRR(Alu::Xor, Width::W64, Reg::RAX, Reg::RDX);
}

void x64::lowerLoad(Assembler &A, Type Ty, Lanes D, Reg P) {
  if (!qir::isTwoLane(Ty)) {
    A.movzxRM(widthOf(Ty), D.Lo, Mem::base(P));
    return;
  }
  // The high lane goes first when the low lane overwrites the pointer.
  bool HiFirst = D.Lo == P;
  if (HiFirst)
    A.movRM(Width::W64, D.Hi, Mem::base(P, 8));
  A.movRM(Width::W64, D.Lo, Mem::base(P));
  if (!HiFirst)
    A.movRM(Width::W64, D.Hi, Mem::base(P, 8));
}

void x64::lowerStore(Assembler &A, Type Ty, Reg P, Lanes V) {
  if (!qir::isTwoLane(Ty)) {
    A.movMR(widthOf(Ty), Mem::base(P), V.Lo);
    return;
  }
  A.movMR(Width::W64, Mem::base(P), V.Lo);
  A.movMR(Width::W64, Mem::base(P, 8), V.Hi);
}

void x64::lowerGep(Assembler &A, Reg D, Reg Base, Reg Idx, int32_t Scale,
                   int32_t Disp, LowerSink &S) {
  if (Idx != Reg::NoReg && Scale != 1 && Scale != 2 && Scale != 4 &&
      Scale != 8) {
    A.imulRRI(Width::W64, Reg::R11, Idx, Scale);
    record(S, Patch::Kind::Imm32, A);
    Idx = Reg::R11;
    Scale = 1;
  }
  A.lea(D, Idx == Reg::NoReg ? Mem::base(Base, Disp)
                             : Mem::baseIndex(Base, Idx,
                                              static_cast<uint8_t>(Scale),
                                              Disp));
  record(S, Patch::Kind::Disp32, A);
}

void x64::lowerFArith(Assembler &A, Opcode Op, Xmm D, Xmm Av, Xmm Bv) {
  copy(A, D, Av);
  switch (Op) {
  case Opcode::FAdd:
    A.addsd(D, Bv);
    return;
  case Opcode::FSub:
    A.subsd(D, Bv);
    return;
  case Opcode::FMul:
    A.mulsd(D, Bv);
    return;
  case Opcode::FDiv:
    A.divsd(D, Bv);
    return;
  default:
    QCF_UNREACHABLE("not a float binary op");
  }
}

void x64::lowerFNeg(Assembler &A, Xmm D, Xmm Av, Reg Tmp) {
  // -x == (bitcast) x ^ sign bit.
  A.movqRX(Tmp, Av);
  A.movRI(Reg::R11, 0x8000000000000000ull);
  A.aluRR(Alu::Xor, Width::W64, Tmp, Reg::R11);
  A.movqXR(D, Tmp);
}

void x64::lowerICmp(Assembler &A, CmpPred P, Type OpTy, Reg D, Lanes Av,
                    Lanes Bv) {
  if (OpTy != Type::I128) {
    A.aluRR(Alu::Cmp, widthOf(OpTy), Av.Lo, Bv.Lo);
    A.setcc(condForPred(P), D);
  } else if (P == CmpPred::Eq || P == CmpPred::Ne) {
    A.movRR(Width::W64, Reg::R11, Av.Lo);
    A.aluRR(Alu::Xor, Width::W64, Reg::R11, Bv.Lo);
    A.movRR(Width::W64, Reg::R10, Av.Hi);
    A.aluRR(Alu::Xor, Width::W64, Reg::R10, Bv.Hi);
    A.aluRR(Alu::Or, Width::W64, Reg::R11, Reg::R10);
    A.setcc(condForPred(P), D);
  } else {
    // lt(x, y) via cmp/sbb; the other predicates are lt with swapped
    // operands and/or an inverted result.
    bool Swap = P == CmpPred::SGt || P == CmpPred::SLe ||
                P == CmpPred::UGt || P == CmpPred::ULe;
    bool Invert = P == CmpPred::SLe || P == CmpPred::SGe ||
                  P == CmpPred::ULe || P == CmpPred::UGe;
    bool Signed = P == CmpPred::SLt || P == CmpPred::SGt ||
                  P == CmpPred::SLe || P == CmpPred::SGe;
    Lanes X = Swap ? Bv : Av, Y = Swap ? Av : Bv;
    A.movRR(Width::W64, Reg::R11, X.Hi);
    A.aluRR(Alu::Cmp, Width::W64, X.Lo, Y.Lo);
    A.aluRR(Alu::Sbb, Width::W64, Reg::R11, Y.Hi);
    A.setcc(Signed ? Cond::L : Cond::B, D);
    if (Invert)
      A.aluRI(Alu::Xor, Width::W32, D, 1);
  }
  A.movzxRR(Width::W8, D, D);
}

void x64::lowerFCmp(Assembler &A, CmpPred P, Reg D, Xmm Av, Xmm Bv) {
  if (P == CmpPred::Eq || P == CmpPred::Ne) {
    // Ordered eq is ZF=1 && PF=0; unordered ne is ZF=0 || PF=1.
    bool Eq = P == CmpPred::Eq;
    A.ucomisd(Av, Bv);
    A.setcc(Eq ? Cond::E : Cond::NE, D);
    A.setcc(Eq ? Cond::NP : Cond::P, Reg::R11);
    A.aluRR(Eq ? Alu::And : Alu::Or, Width::W8, D, Reg::R11);
  } else {
    // Ordered relations, signed or not: gt/ge read CF/ZF ("above"), and
    // lt/le are gt/ge with the operands swapped.
    bool Swap = P == CmpPred::SLt || P == CmpPred::ULt ||
                P == CmpPred::SLe || P == CmpPred::ULe;
    bool OrEq = P == CmpPred::SGe || P == CmpPred::UGe ||
                P == CmpPred::SLe || P == CmpPred::ULe;
    A.ucomisd(Swap ? Bv : Av, Swap ? Av : Bv);
    A.setcc(OrEq ? Cond::AE : Cond::A, D);
  }
  A.movzxRR(Width::W8, D, D);
}

void x64::lowerSelect(Assembler &A, Type Ty, Reg C, Lanes D, Lanes Tv,
                      Lanes Fv) {
  A.testRR(Width::W64, C, C);
  copy(A, D.Lo, Tv.Lo);
  A.cmovcc(Cond::E, Width::W64, D.Lo, Fv.Lo);
  if (qir::isTwoLane(Ty)) {
    copy(A, D.Hi, Tv.Hi);
    A.cmovcc(Cond::E, Width::W64, D.Hi, Fv.Hi);
  }
}

void x64::lowerSelectF64(Assembler &A, Reg C, Xmm D, Xmm Tv, Xmm Fv) {
  Label Skip = A.newLabel();
  copy(A, D, Tv);
  A.testRR(Width::W64, C, C);
  A.jcc(Cond::NE, Skip);
  A.movsdXX(D, Fv);
  A.bind(Skip);
}

void x64::lowerZExt(Assembler &A, Type To, Lanes D, Reg Av) {
  copy(A, D.Lo, Av); // Canonical form: already zero-extended.
  if (To == Type::I128)
    A.movRI32(D.Hi, 0);
}

void x64::lowerSExt(Assembler &A, Type From, Type To, Lanes D, Reg Av) {
  if (From == Type::I1) {
    copy(A, D.Lo, Av);
    A.negR(Width::W64, D.Lo); // 0 -> 0, 1 -> -1
  } else if (From == Type::I64) {
    copy(A, D.Lo, Av);
  } else {
    A.movsxRR(widthOf(From), D.Lo, Av);
  }
  if (To == Type::I128) {
    A.movRR(Width::W64, D.Hi, D.Lo);
    A.shiftRI(Sh::Sar, Width::W64, D.Hi, 63);
  } else if (To != Type::I64) {
    canonicalize(A, D.Lo, To);
  }
}

void x64::lowerTrunc(Assembler &A, Type To, Reg D, Reg Av) {
  copy(A, D, Av);
  if (To != Type::I64)
    canonicalize(A, D, To);
}

void x64::lowerSIToFP(Assembler &A, Type From, Xmm D, Reg Tmp, Reg Av) {
  if (From == Type::I64)
    copy(A, Tmp, Av);
  else
    A.movsxRR(widthOf(From), Tmp, Av);
  A.cvtsi2sd(D, Tmp);
}

void x64::lowerFPToSI(Assembler &A, Type To, Reg D, Xmm Av) {
  A.cvttsd2si(D, Av);
  if (To != Type::I64)
    canonicalize(A, D, To);
}
