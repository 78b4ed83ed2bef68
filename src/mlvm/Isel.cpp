//===- mlvm/Isel.cpp - MLVM instruction selection ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "mlvm/Isel.h"
#include "mlvm/KnownBits.h"
#include "mlvm/MirVerify.h"
#include "runtime/Runtime.h"
#include "runtime/Trap.h"
#include <set>
#include <unordered_map>

using namespace qcf;
using namespace qcf::mlvm;
using namespace qcf::x64;
using qir::Type;
using AluOp = Assembler::Alu;
using ShiftOp = Assembler::Shift;

namespace {

Width widthFor(Type Ty) { return widthForBytes(qir::typeSize(Ty)); }

Width aluWidthFor(Type Ty) {
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

/// Register-level machine code builder: the shared expansion library that
/// all three selectors bottom out in. Maintains the canonical
/// zero-extension invariant for narrow values; two-lane values are vreg
/// pairs.
class MirBuilder {
public:
  MirBuilder(MirFunction &MF) : MF(MF) {}

  MachineBasicBlock *CurMBB = nullptr;

  MachineInstr *mi(MOpc Opc) {
    auto *I = MF.createInstr(Opc);
    CurMBB->Insts.push_back(I);
    return I;
  }

  void copy(MReg D, MReg S) {
    if (D == S)
      return;
    MachineInstr *I = mi(MOpc::COPY);
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(S));
  }

  void movRI(MReg D, uint64_t Imm) {
    MachineInstr *I = mi(MOpc::MOVRI);
    I->addOperand(MOperand::def(D));
    I->Imm = static_cast<int64_t>(Imm);
  }

  void alu3(AluOp Op, Width W, MReg D, MReg A, MReg B) {
    MachineInstr *I = mi(MOpc::ALU3);
    I->W = W;
    I->Aux = static_cast<uint16_t>(Op);
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(A));
    I->addOperand(MOperand::use(B));
  }

  void aluRI3(AluOp Op, Width W, MReg D, MReg A, int32_t Imm) {
    MachineInstr *I = mi(MOpc::ALURI3);
    I->W = W;
    I->Aux = static_cast<uint16_t>(Op);
    I->Imm = Imm;
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(A));
  }

  void movzx2(Width SrcW, MReg D, MReg A) {
    MachineInstr *I = mi(MOpc::MOVZX2);
    I->Aux = static_cast<uint16_t>(SrcW);
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(A));
  }

  void movsx2(Width SrcW, MReg D, MReg A) {
    MachineInstr *I = mi(MOpc::MOVSX2);
    I->Aux = static_cast<uint16_t>(SrcW);
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(A));
  }

  void setccZx(Cond CC, MReg D) {
    MachineInstr *I = mi(MOpc::SETCC);
    I->CC = CC;
    I->addOperand(MOperand::def(D));
    movzx2(Width::W8, D, D);
  }

  void trapIf(Cond CC, rt::TrapCode Code) {
    MachineInstr *I = mi(MOpc::TRAPIF);
    I->CC = CC;
    I->Imm = static_cast<int64_t>(Code);
  }

  MReg fresh(MRegClass RC = MRegClass::Int) { return MF.newVReg(RC); }

  void recanon(MReg R, Type Ty) {
    if (Ty == Type::I1)
      aluRI3(AluOp::And, Width::W32, R, R, 1);
    else if (Ty == Type::I8)
      movzx2(Width::W8, R, R);
    else if (Ty == Type::I16)
      movzx2(Width::W16, R, R);
  }

  // --- Full expansion routines (used by DAG select and GlobalISel) ---------

  void emitBinop(qir::Opcode Op, Type Ty, MReg DLo, MReg DHi, MReg ALo,
                 MReg AHi, MReg BLo, MReg BHi, int64_t BImm, bool BIsImm) {
    switch (Op) {
    case qir::Opcode::Add:
    case qir::Opcode::Sub:
    case qir::Opcode::And:
    case qir::Opcode::Or:
    case qir::Opcode::Xor: {
      AluOp A = Op == qir::Opcode::Add   ? AluOp::Add
                : Op == qir::Opcode::Sub ? AluOp::Sub
                : Op == qir::Opcode::And ? AluOp::And
                : Op == qir::Opcode::Or  ? AluOp::Or
                                         : AluOp::Xor;
      if (Ty == Type::I128) {
        AluOp Lo = A, Hi = A;
        if (Op == qir::Opcode::Add)
          Hi = AluOp::Adc;
        if (Op == qir::Opcode::Sub)
          Hi = AluOp::Sbb;
        alu3(Lo, Width::W64, DLo, ALo, BLo);
        alu3(Hi, Width::W64, DHi, AHi, BHi);
        return;
      }
      if (BIsImm)
        aluRI3(A, aluWidthFor(Ty), DLo, ALo, static_cast<int32_t>(BImm));
      else
        alu3(A, aluWidthFor(Ty), DLo, ALo, BLo);
      recanon(DLo, Ty);
      return;
    }
    case qir::Opcode::Mul:
      if (Ty == Type::I128) {
        emitMul128(DLo, DHi, ALo, AHi, BLo, BHi);
        return;
      }
      {
        MachineInstr *I = mi(MOpc::MUL3);
        I->W = aluWidthFor(Ty);
        I->addOperand(MOperand::def(DLo));
        I->addOperand(MOperand::use(ALo));
        I->addOperand(MOperand::use(BLo));
        recanon(DLo, Ty);
      }
      return;
    case qir::Opcode::SDiv:
    case qir::Opcode::UDiv:
    case qir::Opcode::SRem:
      if (Ty == Type::I128) {
        const char *H = Op == qir::Opcode::SDiv   ? "rt_sdiv128"
                        : Op == qir::Opcode::UDiv ? "rt_udiv128"
                                                  : "rt_srem128";
        emitLibcall128(H, DLo, DHi, ALo, AHi, BLo, BHi, true);
        return;
      }
      emitDiv(Op, Ty, DLo, ALo, BLo);
      return;
    case qir::Opcode::Shl:
    case qir::Opcode::LShr:
    case qir::Opcode::AShr:
      if (Ty == Type::I128) {
        const char *H = Op == qir::Opcode::Shl    ? "rt_shl128"
                        : Op == qir::Opcode::LShr ? "rt_lshr128"
                                                  : "rt_ashr128";
        emitLibcall128(H, DLo, DHi, ALo, AHi, BLo, MREG_NONE, false);
        return;
      }
      [[fallthrough]];
    case qir::Opcode::RotR:
      emitShift(Op, Ty, DLo, ALo, BLo, BImm, BIsImm);
      return;
    case qir::Opcode::SAddTrap:
    case qir::Opcode::SSubTrap: {
      bool IsAdd = Op == qir::Opcode::SAddTrap;
      if (Ty == Type::I128) {
        alu3(IsAdd ? AluOp::Add : AluOp::Sub, Width::W64, DLo, ALo, BLo);
        alu3(IsAdd ? AluOp::Adc : AluOp::Sbb, Width::W64, DHi, AHi, BHi);
        trapIf(Cond::O, rt::TrapCode::Overflow);
        return;
      }
      alu3(IsAdd ? AluOp::Add : AluOp::Sub, aluWidthFor(Ty), DLo, ALo, BLo);
      trapIf(Cond::O, rt::TrapCode::Overflow);
      recanon(DLo, Ty);
      return;
    }
    case qir::Opcode::SMulTrap: {
      if (Ty == Type::I128) {
        emitLibcall128("rt_mul128_ovf", DLo, DHi, ALo, AHi, BLo, BHi, true);
        return;
      }
      MachineInstr *I = mi(MOpc::MUL3);
      I->W = aluWidthFor(Ty);
      I->addOperand(MOperand::def(DLo));
      I->addOperand(MOperand::use(ALo));
      I->addOperand(MOperand::use(BLo));
      trapIf(Cond::O, rt::TrapCode::Overflow);
      recanon(DLo, Ty);
      return;
    }
    case qir::Opcode::Crc32: {
      MachineInstr *I = mi(MOpc::CRC323);
      I->addOperand(MOperand::def(DLo));
      I->addOperand(MOperand::use(ALo));
      I->addOperand(MOperand::use(BLo));
      return;
    }
    case qir::Opcode::LongMulFold: {
      // RDX:RAX = a * b; fold halves.
      copy(pgp(Reg::RAX), ALo);
      MachineInstr *I = mi(MOpc::MULWIDE);
      I->Aux = 0;
      I->addOperand(MOperand::use(BLo));
      MReg LoT = fresh(), HiT = fresh();
      copy(LoT, pgp(Reg::RAX));
      copy(HiT, pgp(Reg::RDX));
      alu3(AluOp::Xor, Width::W64, DLo, LoT, HiT);
      return;
    }
    case qir::Opcode::FAdd:
    case qir::Opcode::FSub:
    case qir::Opcode::FMul:
    case qir::Opcode::FDiv: {
      MachineInstr *I = mi(MOpc::FALU3);
      I->Aux = Op == qir::Opcode::FAdd   ? 0
               : Op == qir::Opcode::FSub ? 1
               : Op == qir::Opcode::FMul ? 2
                                         : 3;
      I->addOperand(MOperand::def(DLo));
      I->addOperand(MOperand::use(ALo));
      I->addOperand(MOperand::use(BLo));
      return;
    }
    case qir::Opcode::PackD128:
    case qir::Opcode::PackI128:
      copy(DLo, ALo);
      copy(DHi, BLo);
      return;
    default:
      QCF_UNREACHABLE("unhandled binop in MIR builder");
    }
  }

  void emitMul128(MReg DLo, MReg DHi, MReg ALo, MReg AHi, MReg BLo,
                  MReg BHi) {
    copy(pgp(Reg::RAX), ALo);
    MachineInstr *I = mi(MOpc::MULWIDE);
    I->Aux = 0;
    I->addOperand(MOperand::use(BLo));
    MReg LoT = fresh(), HiT = fresh();
    copy(LoT, pgp(Reg::RAX));
    copy(HiT, pgp(Reg::RDX));
    MReg T1 = fresh();
    MachineInstr *M1 = mi(MOpc::MUL3);
    M1->W = Width::W64;
    M1->addOperand(MOperand::def(T1));
    M1->addOperand(MOperand::use(AHi));
    M1->addOperand(MOperand::use(BLo));
    MReg Hi2 = fresh();
    alu3(AluOp::Add, Width::W64, Hi2, HiT, T1);
    MReg T2 = fresh();
    MachineInstr *M2 = mi(MOpc::MUL3);
    M2->W = Width::W64;
    M2->addOperand(MOperand::def(T2));
    M2->addOperand(MOperand::use(ALo));
    M2->addOperand(MOperand::use(BHi));
    alu3(AluOp::Add, Width::W64, DHi, Hi2, T2);
    copy(DLo, LoT);
  }

  /// Calls a 128-bit libcall: (i128 [, i128 | i64]) -> i128.
  void emitLibcall128(const char *Name, MReg DLo, MReg DHi, MReg ALo,
                      MReg AHi, MReg BLo, MReg BHi, bool SecondIs128) {
    copy(pgp(Reg::RDI), ALo);
    copy(pgp(Reg::RSI), AHi);
    copy(pgp(Reg::RDX), BLo);
    unsigned Slots = 3;
    if (SecondIs128 && BHi != MREG_NONE) {
      copy(pgp(Reg::RCX), BHi);
      Slots = 4;
    }
    void *Addr = rt::runtimeSymbolAddress(Name);
    assert(Addr && "unknown libcall");
    MachineInstr *C = mi(MOpc::CALL);
    C->Imm = MF.addCallee(Name, Addr);
    C->Aux = static_cast<uint16_t>(Slots);
    copy(DLo, pgp(Reg::RAX));
    copy(DHi, pgp(Reg::RDX));
  }

  void emitDiv(qir::Opcode Op, Type Ty, MReg D, MReg A, MReg B) {
    bool Signed = Op != qir::Opcode::UDiv;
    bool IsRem = Op == qir::Opcode::SRem;
    Width W = aluWidthFor(Ty);
    bool Narrow = Ty == Type::I8 || Ty == Type::I16;

    if (Signed && Narrow)
      movsx2(widthFor(Ty), pgp(Reg::RAX), A);
    else
      copy(pgp(Reg::RAX), A);
    MReg Divisor = fresh();
    if (Signed && Narrow)
      movsx2(widthFor(Ty), Divisor, B);
    else
      copy(Divisor, B);

    MachineInstr *T = mi(MOpc::TEST);
    T->W = W;
    T->addOperand(MOperand::use(Divisor));
    T->addOperand(MOperand::use(Divisor));
    trapIf(Cond::E, rt::TrapCode::DivByZero);

    if (Signed && IsRem) {
      // srem x, -1 == 0 for every x (see Opcode.h); rewrite the divisor
      // to 1 — same remainder for all inputs — so idiv cannot fault on
      // INT_MIN.
      MReg One = fresh();
      movRI(One, 1);
      MachineInstr *C1 = mi(MOpc::CMPRI);
      C1->W = W;
      C1->Imm = -1;
      C1->addOperand(MOperand::use(Divisor));
      MReg Adjusted = fresh();
      cmov3(Cond::E, Adjusted, Divisor, One);
      Divisor = Adjusted;
    } else if (Signed) {
      MReg IsM1 = fresh(), IsMin = fresh();
      MachineInstr *C1 = mi(MOpc::CMPRI);
      C1->W = W;
      C1->Imm = -1;
      C1->addOperand(MOperand::use(Divisor));
      setccZx(Cond::E, IsM1);
      MReg MinC = fresh();
      int64_t MinVal = Ty == Type::I64   ? INT64_MIN
                       : Ty == Type::I32 ? INT32_MIN
                       : Ty == Type::I16 ? -32768
                                         : -128;
      movRI(MinC, static_cast<uint64_t>(MinVal));
      MachineInstr *C2 = mi(MOpc::CMP);
      // At the ALU width: narrow dividends sit sign-extended in RAX and
      // i32 dividends zero-extended, so the upper 32 bits must not
      // participate for sub-64-bit types.
      C2->W = W;
      C2->addOperand(MOperand::use(pgp(Reg::RAX)));
      C2->addOperand(MOperand::use(MinC));
      setccZx(Cond::E, IsMin);
      MReg Both = fresh();
      alu3(AluOp::And, Width::W32, Both, IsM1, IsMin);
      MachineInstr *T2 = mi(MOpc::TEST);
      T2->W = Width::W32;
      T2->addOperand(MOperand::use(Both));
      T2->addOperand(MOperand::use(Both));
      trapIf(Cond::NE, rt::TrapCode::Overflow);
    }
    if (Signed) {
      MachineInstr *Q = mi(MOpc::CQO);
      Q->W = W;
      MachineInstr *Dv = mi(MOpc::DIVREM);
      Dv->W = W;
      Dv->Aux = 1;
      Dv->addOperand(MOperand::use(Divisor));
    } else {
      movRI(pgp(Reg::RDX), 0);
      MachineInstr *Dv = mi(MOpc::DIVREM);
      Dv->W = W;
      Dv->Aux = 0;
      Dv->addOperand(MOperand::use(Divisor));
    }
    copy(D, pgp(IsRem ? Reg::RDX : Reg::RAX));
    recanon(D, Ty);
  }

  void emitShift(qir::Opcode Op, Type Ty, MReg D, MReg A, MReg B,
                 int64_t BImm, bool BIsImm) {
    unsigned Bits = qir::intBits(Ty);
    ShiftOp S = Op == qir::Opcode::Shl    ? ShiftOp::Shl
                : Op == qir::Opcode::LShr ? ShiftOp::Shr
                : Op == qir::Opcode::AShr ? ShiftOp::Sar
                                          : ShiftOp::Ror;
    bool NeedSext =
        Op == qir::Opcode::AShr && (Bits == 8 || Bits == 16);
    MReg Src = A;
    if (NeedSext) {
      MReg T = fresh();
      movsx2(widthFor(Ty), T, A);
      Src = T;
    }
    Width W = Op == qir::Opcode::RotR ? widthFor(Ty) : aluWidthFor(Ty);
    if (BIsImm) {
      MachineInstr *I = mi(MOpc::SHIFT3I);
      I->W = W;
      I->Aux = static_cast<uint16_t>(S);
      I->Imm = BImm & (Bits - 1);
      I->addOperand(MOperand::def(D));
      I->addOperand(MOperand::use(Src));
    } else {
      copy(pgp(Reg::RCX), B);
      if (Bits < 32 && Op != qir::Opcode::RotR)
        aluRI3(AluOp::And, Width::W32, pgp(Reg::RCX), pgp(Reg::RCX),
               static_cast<int32_t>(Bits - 1));
      MachineInstr *I = mi(MOpc::SHIFT3C);
      I->W = W;
      I->Aux = static_cast<uint16_t>(S);
      I->addOperand(MOperand::def(D));
      I->addOperand(MOperand::use(Src));
    }
    if (Op != qir::Opcode::RotR)
      recanon(D, Ty);
  }

  void emitICmp(qir::CmpPred P, Type OpTy, MReg D, MReg ALo, MReg AHi,
                MReg BLo, MReg BHi, int64_t BImm, bool BIsImm) {
    if (OpTy == Type::I128) {
      emitICmp128(P, D, ALo, AHi, BLo, BHi);
      return;
    }
    if (BIsImm) {
      MachineInstr *C = mi(MOpc::CMPRI);
      C->W = widthFor(OpTy);
      C->Imm = BImm;
      C->addOperand(MOperand::use(ALo));
    } else {
      MachineInstr *C = mi(MOpc::CMP);
      C->W = widthFor(OpTy);
      C->addOperand(MOperand::use(ALo));
      C->addOperand(MOperand::use(BLo));
    }
    setccZx(condForPred(P), D);
  }

  void emitICmp128(qir::CmpPred P, MReg D, MReg ALo, MReg AHi, MReg BLo,
                   MReg BHi) {
    if (P == qir::CmpPred::Eq || P == qir::CmpPred::Ne) {
      MReg T1 = fresh(), T2 = fresh(), T3 = fresh();
      alu3(AluOp::Xor, Width::W64, T1, ALo, BLo);
      alu3(AluOp::Xor, Width::W64, T2, AHi, BHi);
      alu3(AluOp::Or, Width::W64, T3, T1, T2);
      setccZx(P == qir::CmpPred::Eq ? Cond::E : Cond::NE, D);
      return;
    }
    bool Swap, Invert, Signed;
    switch (P) {
    case qir::CmpPred::SLt: Swap = false; Invert = false; Signed = true; break;
    case qir::CmpPred::SGt: Swap = true; Invert = false; Signed = true; break;
    case qir::CmpPred::SLe: Swap = true; Invert = true; Signed = true; break;
    case qir::CmpPred::SGe: Swap = false; Invert = true; Signed = true; break;
    case qir::CmpPred::ULt: Swap = false; Invert = false; Signed = false; break;
    case qir::CmpPred::UGt: Swap = true; Invert = false; Signed = false; break;
    case qir::CmpPred::ULe: Swap = true; Invert = true; Signed = false; break;
    default: Swap = false; Invert = true; Signed = false; break;
    }
    MReg XLo = Swap ? BLo : ALo, XHi = Swap ? BHi : AHi;
    MReg YLo = Swap ? ALo : BLo, YHi = Swap ? AHi : BHi;
    MachineInstr *C = mi(MOpc::CMP);
    C->W = Width::W64;
    C->addOperand(MOperand::use(XLo));
    C->addOperand(MOperand::use(YLo));
    MReg T = fresh();
    alu3(AluOp::Sbb, Width::W64, T, XHi, YHi);
    setccZx(Signed ? Cond::L : Cond::B, D);
    if (Invert)
      aluRI3(AluOp::Xor, Width::W32, D, D, 1);
  }

  void emitFCmp(qir::CmpPred P, MReg D, MReg A, MReg B) {
    auto Ucomi = [&](MReg X, MReg Y) {
      MachineInstr *U = mi(MOpc::UCOMISD);
      U->addOperand(MOperand::use(X));
      U->addOperand(MOperand::use(Y));
    };
    switch (P) {
    case qir::CmpPred::Eq: {
      Ucomi(A, B);
      MReg T = fresh();
      MachineInstr *S1 = mi(MOpc::SETCC);
      S1->CC = Cond::E;
      S1->addOperand(MOperand::def(D));
      MachineInstr *S2 = mi(MOpc::SETCC);
      S2->CC = Cond::NP;
      S2->addOperand(MOperand::def(T));
      alu3(AluOp::And, Width::W8, D, D, T);
      movzx2(Width::W8, D, D);
      return;
    }
    case qir::CmpPred::Ne: {
      Ucomi(A, B);
      MReg T = fresh();
      MachineInstr *S1 = mi(MOpc::SETCC);
      S1->CC = Cond::NE;
      S1->addOperand(MOperand::def(D));
      MachineInstr *S2 = mi(MOpc::SETCC);
      S2->CC = Cond::P;
      S2->addOperand(MOperand::def(T));
      alu3(AluOp::Or, Width::W8, D, D, T);
      movzx2(Width::W8, D, D);
      return;
    }
    case qir::CmpPred::SGt:
    case qir::CmpPred::UGt:
      Ucomi(A, B);
      setccZx(Cond::A, D);
      return;
    case qir::CmpPred::SGe:
    case qir::CmpPred::UGe:
      Ucomi(A, B);
      setccZx(Cond::AE, D);
      return;
    case qir::CmpPred::SLt:
    case qir::CmpPred::ULt:
      Ucomi(B, A);
      setccZx(Cond::A, D);
      return;
    case qir::CmpPred::SLe:
    case qir::CmpPred::ULe:
      Ucomi(B, A);
      setccZx(Cond::AE, D);
      return;
    }
    QCF_UNREACHABLE("invalid predicate");
  }

  void emitSelect(Type Ty, MReg Cond_, MReg DLo, MReg DHi, MReg TLo,
                  MReg THi, MReg FLo, MReg FHi) {
    MachineInstr *T = mi(MOpc::TEST);
    T->W = Width::W64;
    T->addOperand(MOperand::use(Cond_));
    T->addOperand(MOperand::use(Cond_));
    if (Ty == Type::F64) {
      MReg TG = fresh(), FG = fresh(), RG = fresh();
      // Move through GP registers (no fcmov); flags survive MOVGX.
      MachineInstr *G1 = mi(MOpc::MOVGX);
      G1->addOperand(MOperand::def(TG));
      G1->addOperand(MOperand::use(TLo));
      MachineInstr *G2 = mi(MOpc::MOVGX);
      G2->addOperand(MOperand::def(FG));
      G2->addOperand(MOperand::use(FLo));
      cmov3(Cond::E, RG, TG, FG);
      MachineInstr *X = mi(MOpc::MOVXG);
      X->addOperand(MOperand::def(DLo));
      X->addOperand(MOperand::use(RG));
      return;
    }
    cmov3(Cond::E, DLo, TLo, FLo);
    if (qir::isTwoLane(Ty))
      cmov3(Cond::E, DHi, THi, FHi);
  }

  /// d = CC ? b : a (CMOV3 semantics: d starts as a, cmovCC from b).
  void cmov3(Cond CC, MReg D, MReg A, MReg B) {
    MachineInstr *I = mi(MOpc::CMOV3);
    I->CC = CC;
    I->W = Width::W64;
    I->addOperand(MOperand::def(D));
    I->addOperand(MOperand::use(A));
    I->addOperand(MOperand::use(B));
  }

  void emitUnop(qir::Opcode Op, Type DstTy, Type SrcTy, MReg DLo, MReg DHi,
                MReg ALo, MReg AHi) {
    switch (Op) {
    case qir::Opcode::Neg:
      if (DstTy == Type::I128) {
        MReg Z1 = fresh(), Z2 = fresh();
        movRI(Z1, 0);
        movRI(Z2, 0);
        alu3(AluOp::Sub, Width::W64, DLo, Z1, ALo);
        alu3(AluOp::Sbb, Width::W64, DHi, Z2, AHi);
        return;
      }
      {
        MachineInstr *I = mi(MOpc::NEG2);
        I->W = aluWidthFor(DstTy);
        I->addOperand(MOperand::def(DLo));
        I->addOperand(MOperand::use(ALo));
        recanon(DLo, DstTy);
      }
      return;
    case qir::Opcode::Not:
      if (DstTy == Type::I128) {
        MachineInstr *N1 = mi(MOpc::NOT2);
        N1->W = Width::W64;
        N1->addOperand(MOperand::def(DLo));
        N1->addOperand(MOperand::use(ALo));
        MachineInstr *N2 = mi(MOpc::NOT2);
        N2->W = Width::W64;
        N2->addOperand(MOperand::def(DHi));
        N2->addOperand(MOperand::use(AHi));
        return;
      }
      if (DstTy == Type::I1) {
        aluRI3(AluOp::Xor, Width::W32, DLo, ALo, 1);
        return;
      }
      {
        MachineInstr *I = mi(MOpc::NOT2);
        I->W = aluWidthFor(DstTy);
        I->addOperand(MOperand::def(DLo));
        I->addOperand(MOperand::use(ALo));
        recanon(DLo, DstTy);
      }
      return;
    case qir::Opcode::FNeg: {
      MReg T = fresh(), S = fresh(), R = fresh();
      MachineInstr *G = mi(MOpc::MOVGX);
      G->addOperand(MOperand::def(T));
      G->addOperand(MOperand::use(ALo));
      movRI(S, 0x8000000000000000ull);
      alu3(AluOp::Xor, Width::W64, R, T, S);
      MachineInstr *X = mi(MOpc::MOVXG);
      X->addOperand(MOperand::def(DLo));
      X->addOperand(MOperand::use(R));
      return;
    }
    case qir::Opcode::ZExt:
      copy(DLo, ALo);
      if (DstTy == Type::I128)
        movRI(DHi, 0);
      return;
    case qir::Opcode::SExt: {
      if (SrcTy == Type::I1) {
        MReg T = fresh();
        copy(T, ALo);
        MachineInstr *N = mi(MOpc::NEG2);
        N->W = Width::W64;
        N->addOperand(MOperand::def(DLo));
        N->addOperand(MOperand::use(T));
        if (DstTy != Type::I64 && DstTy != Type::I128) {
          MReg M = fresh();
          movRI(M, qir::typeMask(DstTy));
          alu3(AluOp::And, Width::W64, DLo, DLo, M);
        }
        if (DstTy == Type::I128) {
          MachineInstr *Sh = mi(MOpc::SHIFT3I);
          Sh->W = Width::W64;
          Sh->Aux = static_cast<uint16_t>(ShiftOp::Sar);
          Sh->Imm = 63;
          Sh->addOperand(MOperand::def(DHi));
          Sh->addOperand(MOperand::use(DLo));
        }
        return;
      }
      if (SrcTy == Type::I64)
        copy(DLo, ALo);
      else
        movsx2(widthFor(SrcTy), DLo, ALo);
      if (DstTy != Type::I64 && DstTy != Type::I128) {
        MReg M = fresh();
        movRI(M, qir::typeMask(DstTy));
        alu3(AluOp::And, Width::W64, DLo, DLo, M);
      }
      if (DstTy == Type::I128) {
        MachineInstr *Sh = mi(MOpc::SHIFT3I);
        Sh->W = Width::W64;
        Sh->Aux = static_cast<uint16_t>(ShiftOp::Sar);
        Sh->Imm = 63;
        Sh->addOperand(MOperand::def(DHi));
        Sh->addOperand(MOperand::use(DLo));
      }
      return;
    }
    case qir::Opcode::Trunc:
      if (DstTy == Type::I32) {
        // 32-bit self-move zero-extends.
        MachineInstr *I = mi(MOpc::MOVZX2);
        I->Aux = static_cast<uint16_t>(Width::W32);
        I->addOperand(MOperand::def(DLo));
        I->addOperand(MOperand::use(ALo));
        return;
      }
      copy(DLo, ALo);
      recanon(DLo, DstTy);
      return;
    case qir::Opcode::SIToFP: {
      MReg T = ALo;
      if (SrcTy != Type::I64) {
        T = fresh();
        movsx2(widthFor(SrcTy), T, ALo);
      }
      MachineInstr *C = mi(MOpc::CVTSI2SD);
      C->addOperand(MOperand::def(DLo));
      C->addOperand(MOperand::use(T));
      return;
    }
    case qir::Opcode::FPToSI: {
      MReg T = DstTy == Type::I64 ? DLo : fresh();
      MachineInstr *C = mi(MOpc::CVTTSD2SI);
      C->addOperand(MOperand::def(T));
      C->addOperand(MOperand::use(ALo));
      if (DstTy != Type::I64) {
        MReg M = fresh();
        movRI(M, qir::typeMask(DstTy));
        alu3(AluOp::And, Width::W64, DLo, T, M);
      }
      return;
    }
    case qir::Opcode::Bitcast: {
      if (SrcTy == Type::F64) {
        MachineInstr *G = mi(MOpc::MOVGX);
        G->addOperand(MOperand::def(DLo));
        G->addOperand(MOperand::use(ALo));
      } else if (DstTy == Type::F64) {
        MachineInstr *X = mi(MOpc::MOVXG);
        X->addOperand(MOperand::def(DLo));
        X->addOperand(MOperand::use(ALo));
      } else {
        copy(DLo, ALo);
      }
      return;
    }
    case qir::Opcode::ExtractLo:
      copy(DLo, ALo);
      return;
    case qir::Opcode::ExtractHi:
      copy(DLo, AHi);
      return;
    default:
      QCF_UNREACHABLE("unhandled unop in MIR builder");
    }
  }

  void emitLoad(Type Ty, MReg DLo, MReg DHi, MReg Addr, int32_t Disp) {
    if (Ty == Type::F64) {
      MachineInstr *L = mi(MOpc::FLOAD);
      L->Disp = Disp;
      L->addOperand(MOperand::def(DLo));
      L->addOperand(MOperand::use(Addr));
      return;
    }
    if (qir::isTwoLane(Ty)) {
      loadLane(DLo, Addr, Disp, Width::W64);
      loadLane(DHi, Addr, Disp + 8, Width::W64);
      return;
    }
    loadLane(DLo, Addr, Disp, widthFor(Ty));
  }

  void loadLane(MReg D, MReg Addr, int32_t Disp, Width W) {
    MachineInstr *L = mi(MOpc::LOADZX);
    L->W = W;
    L->Disp = Disp;
    L->addOperand(MOperand::def(D));
    L->addOperand(MOperand::use(Addr));
  }

  void emitStore(Type Ty, MReg VLo, MReg VHi, MReg Addr, int32_t Disp) {
    if (Ty == Type::F64) {
      MachineInstr *S = mi(MOpc::FSTORE);
      S->Disp = Disp;
      S->addOperand(MOperand::use(VLo));
      S->addOperand(MOperand::use(Addr));
      return;
    }
    if (qir::isTwoLane(Ty)) {
      storeLane(VLo, Addr, Disp, Width::W64);
      storeLane(VHi, Addr, Disp + 8, Width::W64);
      return;
    }
    storeLane(VLo, Addr, Disp, widthFor(Ty));
  }

  void storeLane(MReg V, MReg Addr, int32_t Disp, Width W) {
    MachineInstr *S = mi(MOpc::STORE);
    S->W = W;
    S->Disp = Disp;
    S->addOperand(MOperand::use(V));
    S->addOperand(MOperand::use(Addr));
  }

  void emitGep(MReg D, MReg Base, MReg Index, uint32_t Scale,
               int64_t Off) {
    if (Index == MREG_NONE) {
      MachineInstr *L = mi(MOpc::LEA);
      L->Disp = static_cast<int32_t>(Off);
      L->addOperand(MOperand::def(D));
      L->addOperand(MOperand::use(Base));
      return;
    }
    if (Scale == 1 || Scale == 2 || Scale == 4 || Scale == 8) {
      MachineInstr *L = mi(MOpc::LEA);
      L->Disp = static_cast<int32_t>(Off);
      L->Scale = static_cast<uint8_t>(Scale);
      L->addOperand(MOperand::def(D));
      L->addOperand(MOperand::use(Base));
      L->addOperand(MOperand::use(Index));
      return;
    }
    MReg T = fresh(), SC = fresh();
    movRI(SC, Scale);
    MachineInstr *M = mi(MOpc::MUL3);
    M->W = Width::W64;
    M->addOperand(MOperand::def(T));
    M->addOperand(MOperand::use(Index));
    M->addOperand(MOperand::use(SC));
    MachineInstr *L = mi(MOpc::LEA);
    L->Disp = static_cast<int32_t>(Off);
    L->Scale = 1;
    L->addOperand(MOperand::def(D));
    L->addOperand(MOperand::use(Base));
    L->addOperand(MOperand::use(T));
  }

  void emitAtomicAdd(Type Ty, MReg D, MReg Addr, MReg Val) {
    MachineInstr *X = mi(MOpc::XADD3);
    X->W = widthFor(Ty);
    X->addOperand(MOperand::def(D));
    X->addOperand(MOperand::use(Val));
    X->addOperand(MOperand::use(Addr));
  }

  /// Emits a call: \p ArgLanes are lane vregs (already expanded), \p Ret
  /// receives up to two lanes.
  void emitCall(uint32_t CalleeIdx, const std::vector<MReg> &ArgLanes,
                MReg RetLo, MReg RetHi) {
    assert(ArgLanes.size() <= 6 && "too many call argument slots");
    for (size_t K = 0; K != ArgLanes.size(); ++K)
      copy(pgp(GpArgRegs[K]), ArgLanes[K]);
    MachineInstr *C = mi(MOpc::CALL);
    C->Imm = CalleeIdx;
    C->Aux = static_cast<uint16_t>(ArgLanes.size());
    if (RetLo != MREG_NONE)
      copy(RetLo, pgp(Reg::RAX));
    if (RetHi != MREG_NONE)
      copy(RetHi, pgp(Reg::RDX));
  }

  MirFunction &MF;
};

// ===--------------------------------------------------------------------===
// Shared IR-value -> vreg resolution.
// ===--------------------------------------------------------------------===

class IselContext {
public:
  IselContext(const MFunction &F, MirFunction &MF, MirBuilder &B)
      : F(F), MF(MF), B(B) {}

  const MFunction &F;
  MirFunction &MF;
  MirBuilder &B;

  /// Lazily assigns the lo-lane vreg of an instruction/argument result.
  MReg resultLo(Value *V) {
    if (V->Scratch == 0xffffffffu)
      V->Scratch = MF.newVReg(
          V->type() == Type::F64 ? MRegClass::Float : MRegClass::Int);
    return V->Scratch;
  }
  MReg resultHi(Value *V) {
    assert(qir::isTwoLane(V->type()));
    if (V->Scratch2 == 0xffffffffu)
      V->Scratch2 = MF.newVReg(MRegClass::Int);
    return V->Scratch2;
  }

  /// Materializes an operand's lo lane in the current block.
  MReg useLo(Value *V) {
    switch (V->kind()) {
    case Value::Kind::ConstInt: {
      MReg R = B.fresh();
      B.movRI(R, static_cast<ConstantInt *>(V)->Val &
                     qir::typeMask(V->type()));
      return R;
    }
    case Value::Kind::ConstI128: {
      MReg R = B.fresh();
      B.movRI(R, lo64(static_cast<ConstantI128 *>(V)->Val));
      return R;
    }
    case Value::Kind::ConstF64: {
      MReg T = B.fresh();
      B.movRI(T, static_cast<ConstantF64 *>(V)->Bits);
      MReg X = B.fresh(MRegClass::Float);
      MachineInstr *M = B.mi(MOpc::MOVXG);
      M->addOperand(MOperand::def(X));
      M->addOperand(MOperand::use(T));
      return X;
    }
    case Value::Kind::ConstPtr: {
      MReg R = B.fresh();
      B.movRI(R, static_cast<ConstantPtr *>(V)->Addr);
      return R;
    }
    default:
      return resultLo(V);
    }
  }

  MReg useHi(Value *V) {
    if (V->kind() == Value::Kind::ConstI128) {
      MReg R = B.fresh();
      B.movRI(R, hi64(static_cast<ConstantI128 *>(V)->Val));
      return R;
    }
    return resultHi(V);
  }

  /// Immediate-operand fold check (for DAG-style selection).
  bool asImm(Value *V, int64_t *Out) {
    if (V->kind() != Value::Kind::ConstInt)
      return false;
    auto *C = static_cast<ConstantInt *>(V);
    int64_t Val = static_cast<int64_t>(C->Val & qir::typeMask(C->type()));
    if (C->type() == Type::I64 &&
        (static_cast<int64_t>(C->Val) < INT32_MIN ||
         static_cast<int64_t>(C->Val) > INT32_MAX))
      return false;
    if (C->type() == Type::I32 && Val > INT32_MAX)
      return false;
    *Out = Val;
    return true;
  }
};

} // namespace

// The selector implementations live in IselImpl.cpp to keep file sizes
// manageable; they include this file's anonymous-namespace helpers via the
// functions below.

#include "mlvm/IselImpl.inc"
