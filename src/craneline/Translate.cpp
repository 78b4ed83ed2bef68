//===- craneline/Translate.cpp - QIR to CIR translation -------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "craneline/Translate.h"
#include "runtime/Runtime.h"
#include "runtime/Trap.h"
#include <unordered_map>

using namespace qcf;
using namespace qcf::craneline;
using qir::Opcode;

namespace {

CType ctypeFor(qir::Type Ty) {
  switch (Ty) {
  case qir::Type::I1:
  case qir::Type::I8:
    return CType::I8;
  case qir::Type::I16:
    return CType::I16;
  case qir::Type::I32:
    return CType::I32;
  case qir::Type::I64:
  case qir::Type::Ptr:
    return CType::I64;
  case qir::Type::I128:
    return CType::I128;
  case qir::Type::F64:
    return CType::F64;
  case qir::Type::D128:
  case qir::Type::Void:
    QCF_UNREACHABLE("type has no direct CIR equivalent");
  }
  QCF_UNREACHABLE("invalid type");
}

IntCC intCCFor(qir::CmpPred P) {
  switch (P) {
  case qir::CmpPred::Eq:
    return IntCC::Eq;
  case qir::CmpPred::Ne:
    return IntCC::Ne;
  case qir::CmpPred::SLt:
    return IntCC::Slt;
  case qir::CmpPred::SLe:
    return IntCC::Sle;
  case qir::CmpPred::SGt:
    return IntCC::Sgt;
  case qir::CmpPred::SGe:
    return IntCC::Sge;
  case qir::CmpPred::ULt:
    return IntCC::Ult;
  case qir::CmpPred::ULe:
    return IntCC::Ule;
  case qir::CmpPred::UGt:
    return IntCC::Ugt;
  case qir::CmpPred::UGe:
    return IntCC::Uge;
  }
  QCF_UNREACHABLE("invalid predicate");
}

FloatCC floatCCFor(qir::CmpPred P) {
  switch (P) {
  case qir::CmpPred::Eq:
    return FloatCC::Eq;
  case qir::CmpPred::Ne:
    return FloatCC::Ne;
  case qir::CmpPred::SLt:
  case qir::CmpPred::ULt:
    return FloatCC::Lt;
  case qir::CmpPred::SLe:
  case qir::CmpPred::ULe:
    return FloatCC::Le;
  case qir::CmpPred::SGt:
  case qir::CmpPred::UGt:
    return FloatCC::Gt;
  case qir::CmpPred::SGe:
  case qir::CmpPred::UGe:
    return FloatCC::Ge;
  }
  QCF_UNREACHABLE("invalid predicate");
}

/// A QIR value maps to one CIR value, or two for d128.
struct MappedValue {
  CValue Lo = C_INVALID;
  CValue Hi = C_INVALID; ///< Only for d128.
};

class Translator {
public:
  Translator(const qir::Function &F, const CranelineOptions &Opts,
             CFunction &Out)
      : F(F), Opts(Opts), Out(Out) {}

  void run() {
    setupMetadata();  // Pass 1.
    translateBody();  // Pass 2.
  }

private:
  // --- Pass 1: metadata ----------------------------------------------------

  void setupMetadata() {
    Out.Name = F.name();

    // Blocks mirror QIR blocks one-to-one.
    BlockMap.resize(F.numBlocks());
    for (qir::BlockId B = 0; B != F.numBlocks(); ++B)
      BlockMap[B] = Out.createBlock();

    // Entry parameters become entry block parameters.
    for (unsigned P = 0; P != F.numParams(); ++P) {
      qir::Type Ty = F.paramTypes()[P];
      MappedValue MV;
      if (Ty == qir::Type::D128) {
        MV.Lo = Out.addBlockParam(BlockMap[0], CType::I64);
        MV.Hi = Out.addBlockParam(BlockMap[0], CType::I64);
        Out.NumParamSlots += 2;
      } else {
        MV.Lo = Out.addBlockParam(BlockMap[0], ctypeFor(Ty));
        Out.NumParamSlots += qir::isTwoLane(Ty) ? 2 : 1;
      }
      VMap[F.paramValue(P)] = MV;
    }

    // Phis become block parameters, in block order.
    for (qir::BlockId B = 0; B != F.numBlocks(); ++B) {
      for (uint32_t I = F.block(B).Begin; I != F.block(B).End; ++I) {
        const qir::Inst &Ins = F.Insts[I];
        if (Ins.Op != Opcode::Phi)
          continue;
        MappedValue MV;
        if (Ins.Ty == qir::Type::D128) {
          MV.Lo = Out.addBlockParam(BlockMap[B], CType::I64);
          MV.Hi = Out.addBlockParam(BlockMap[B], CType::I64);
        } else {
          MV.Lo = Out.addBlockParam(BlockMap[B], ctypeFor(Ins.Ty));
        }
        VMap[I] = MV;
      }
    }

    // Stack slots are declared outside the instruction stream.
    for (uint32_t I = 0; I != F.numInsts(); ++I)
      if (F.Insts[I].Op == Opcode::StackSlot) {
        SlotMap[I] = static_cast<uint32_t>(Out.StackSlotSizes.size());
        Out.StackSlotSizes.push_back(
            static_cast<uint32_t>(F.Insts[I].Imm));
      }

    // Return shape.
    switch (F.returnType()) {
    case qir::Type::Void:
      Out.RetLanes = 0;
      break;
    case qir::Type::I128:
    case qir::Type::D128:
      Out.RetLanes = 2;
      break;
    case qir::Type::F64:
      Out.RetLanes = 1;
      Out.RetIsF64 = true;
      break;
    default:
      Out.RetLanes = 1;
      break;
    }
  }

  // --- Pass 2: instruction translation --------------------------------------

  void translateBody() {
    for (qir::BlockId B = 0; B != F.numBlocks(); ++B) {
      Cur = BlockMap[B];
      CurQir = B;
      for (uint32_t I = F.block(B).Begin; I != F.block(B).End; ++I)
        translateInst(I, F.Insts[I]);
    }
  }

  CValue emit(COp Op, CType Ty, CValue A = C_INVALID, uint32_t B = C_INVALID,
              uint32_t C = C_INVALID, uint64_t Imm = 0, uint8_t Flags = 0,
              bool HasResult = true) {
    CInst I;
    I.Op = Op;
    I.Ty = Ty;
    I.Flags = Flags;
    I.A = A;
    I.B = B;
    I.C = C;
    I.Imm = Imm;
    return Out.append(Cur, I, HasResult);
  }

  CValue lo(qir::ValueId V) {
    auto It = VMap.find(V);
    assert(It != VMap.end() && "unmapped QIR value");
    return It->second.Lo;
  }
  CValue hi(qir::ValueId V) {
    auto It = VMap.find(V);
    assert(It != VMap.end() && It->second.Hi != C_INVALID &&
           "value has no high lane");
    return It->second.Hi;
  }

  void map(qir::ValueId V, CValue Lo, CValue Hi = C_INVALID) {
    VMap[V] = {Lo, Hi};
  }

  /// i1 shares i8's CIR type, so a result whose bits 1-7 may be set (a
  /// truncation, or arithmetic that can carry out of bit 0) is masked back
  /// to one bit.
  CValue maskI1(qir::Type Ty, CValue V) {
    if (Ty != qir::Type::I1)
      return V;
    return emit(COp::Band, CType::I8, V,
                emit(COp::Iconst, CType::I8, C_INVALID, C_INVALID, C_INVALID,
                     1));
  }

  CValue iconst64(uint64_t V) {
    return emit(COp::Iconst, CType::I64, C_INVALID, C_INVALID, C_INVALID, V);
  }

  /// Builds a helper call. \p Args are CIR values; i128 values count as
  /// two slots automatically.
  CValue helperCall(const char *Name, CType RetTy, uint8_t RetLanes,
                    std::initializer_list<CValue> Args) {
    void *Addr = rt::runtimeSymbolAddress(Name);
    assert(Addr && "unknown runtime helper");
    uint32_t ArgOff = static_cast<uint32_t>(Out.ValuePool.size());
    uint8_t Slots = 0;
    for (CValue A : Args) {
      Out.ValuePool.push_back(A);
      Slots += Out.valueType(A) == CType::I128 ? 2 : 1;
    }
    uint32_t SigId = static_cast<uint32_t>(Out.Sigs.size());
    Out.Sigs.push_back({Slots, RetLanes});
    return emit(COp::CallInd, RetTy, ArgOff,
                static_cast<uint32_t>(Args.size()), SigId,
                reinterpret_cast<uint64_t>(Addr), 0,
                /*HasResult=*/RetLanes != 0);
  }

  /// Zero/sign-extends a CIR integer value to i64 if narrower.
  CValue toI64(CValue V, bool Signed) {
    CType Ty = Out.valueType(V);
    if (Ty == CType::I64)
      return V;
    assert(Ty != CType::I128 && Ty != CType::F64);
    return emit(Signed ? COp::Sextend : COp::Uextend, CType::I64, V);
  }

  void translateInst(qir::ValueId Id, const qir::Inst &I) {
    switch (I.Op) {
    case Opcode::Param:
    case Opcode::Phi:
      return; // Block parameters, pass 1.

    case Opcode::ConstInt: {
      uint64_t Mask = I.Ty == qir::Type::I1    ? 1
                      : I.Ty == qir::Type::I8  ? 0xff
                      : I.Ty == qir::Type::I16 ? 0xffff
                      : I.Ty == qir::Type::I32 ? 0xffffffffull
                                               : ~0ull;
      map(Id, emit(COp::Iconst, ctypeFor(I.Ty), C_INVALID, C_INVALID,
                   C_INVALID, I.Imm & Mask));
      return;
    }
    case Opcode::ConstI128: {
      Int128 C = F.i128Constant(I);
      uint32_t Idx = static_cast<uint32_t>(Out.I128Pool.size());
      Out.I128Pool.push_back({lo64(C), hi64(C)});
      map(Id, emit(COp::Iconst128, CType::I128, Idx));
      return;
    }
    case Opcode::ConstF64:
      map(Id, emit(COp::F64const, CType::F64, C_INVALID, C_INVALID,
                   C_INVALID, I.Imm));
      return;
    case Opcode::ConstPtr:
      map(Id, iconst64(I.Imm));
      return;
    case Opcode::StackSlot:
      map(Id, emit(COp::StackAddr, CType::I64, SlotMap.at(Id)));
      return;

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor: {
      COp Op = I.Op == Opcode::Add   ? COp::Iadd
               : I.Op == Opcode::Sub ? COp::Isub
               : I.Op == Opcode::Mul ? COp::Imul
               : I.Op == Opcode::And ? COp::Band
               : I.Op == Opcode::Or  ? COp::Bor
                                     : COp::Bxor;
      CValue R = emit(Op, ctypeFor(I.Ty), lo(I.A), lo(I.B));
      bool Bitwise = Op == COp::Band || Op == COp::Bor || Op == COp::Bxor;
      map(Id, Bitwise ? R : maskI1(I.Ty, R));
      return;
    }
    case Opcode::Neg:
      map(Id, maskI1(I.Ty, emit(COp::Ineg, ctypeFor(I.Ty), lo(I.A))));
      return;
    case Opcode::Not:
      map(Id, maskI1(I.Ty, emit(COp::Bnot, ctypeFor(I.Ty), lo(I.A))));
      return;

    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr: {
      if (I.Ty == qir::Type::I128) {
        const char *H = I.Op == Opcode::Shl    ? "rt_shl128"
                        : I.Op == Opcode::LShr ? "rt_lshr128"
                                               : "rt_ashr128";
        CValue Amt = toI64(lo(I.B), /*Signed=*/false);
        map(Id, helperCall(H, CType::I128, 2, {lo(I.A), Amt}));
        return;
      }
      COp Op = I.Op == Opcode::Shl    ? COp::Ishl
               : I.Op == Opcode::LShr ? COp::Ushr
                                      : COp::Sshr;
      map(Id, emit(Op, ctypeFor(I.Ty), lo(I.A), lo(I.B)));
      return;
    }
    case Opcode::RotR:
      assert(I.Ty != qir::Type::I128 && "128-bit rotate not supported");
      map(Id, emit(COp::RotrOp, ctypeFor(I.Ty), lo(I.A), lo(I.B)));
      return;

    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem: {
      if (I.Ty == qir::Type::I128) {
        const char *H = I.Op == Opcode::SDiv   ? "rt_sdiv128"
                        : I.Op == Opcode::UDiv ? "rt_udiv128"
                                               : "rt_srem128";
        map(Id, helperCall(H, CType::I128, 2, {lo(I.A), lo(I.B)}));
        return;
      }
      COp Op = I.Op == Opcode::SDiv   ? COp::Sdiv
               : I.Op == Opcode::UDiv ? COp::Udiv
                                      : COp::Srem;
      map(Id, emit(Op, ctypeFor(I.Ty), lo(I.A), lo(I.B)));
      return;
    }

    case Opcode::SAddTrap:
    case Opcode::SSubTrap: {
      bool IsAdd = I.Op == Opcode::SAddTrap;
      if (Opts.NativeOverflowArith) {
        map(Id, emit(IsAdd ? COp::IaddOvfTrap : COp::IsubOvfTrap,
                     ctypeFor(I.Ty), lo(I.A), lo(I.B)));
        return;
      }
      const char *H;
      if (I.Ty == qir::Type::I128)
        H = IsAdd ? "rt_add128_ovf" : "rt_sub128_ovf";
      else if (I.Ty == qir::Type::I64)
        H = IsAdd ? "rt_sadd64_ovf" : "rt_ssub64_ovf";
      else
        H = IsAdd ? "rt_sadd32_ovf" : "rt_ssub32_ovf";
      CType Ty = ctypeFor(I.Ty);
      uint8_t Lanes = Ty == CType::I128 ? 2 : 1;
      CValue R = helperCall(H, Ty == CType::I128 ? CType::I128 : CType::I64,
                            Lanes, {lo(I.A), lo(I.B)});
      // 32-bit helper returns a canonical i64 lane; reduce back.
      if (Ty == CType::I32)
        R = emit(COp::Ireduce, CType::I32, R);
      map(Id, R);
      return;
    }
    case Opcode::SMulTrap: {
      if (I.Ty == qir::Type::I128) {
        // Always a helper: Cranelift-style ISels do not inline checked
        // 128-bit multiplication (§VI-A1).
        map(Id, helperCall("rt_mul128_ovf", CType::I128, 2,
                           {lo(I.A), lo(I.B)}));
        return;
      }
      if (Opts.NativeOverflowArith) {
        map(Id, emit(COp::ImulOvfTrap, ctypeFor(I.Ty), lo(I.A), lo(I.B)));
        return;
      }
      const char *H =
          I.Ty == qir::Type::I64 ? "rt_smul64_ovf" : "rt_smul32_ovf";
      CValue R = helperCall(H, CType::I64, 1, {lo(I.A), lo(I.B)});
      if (I.Ty == qir::Type::I32)
        R = emit(COp::Ireduce, CType::I32, R);
      map(Id, R);
      return;
    }

    case Opcode::Crc32: {
      if (Opts.NativeCrc32) {
        map(Id, emit(COp::Crc32Native, CType::I64, lo(I.A), lo(I.B)));
        return;
      }
      map(Id, helperCall("rt_crc32", CType::I64, 1, {lo(I.A), lo(I.B)}));
      return;
    }
    case Opcode::LongMulFold: {
      if (Opts.NativeMulFull) {
        CValue Full = emit(COp::ImulFull, CType::I128, lo(I.A), lo(I.B));
        CValue Lo = emit(COp::IsplitLo, CType::I64, Full);
        CValue Hi = emit(COp::IsplitHi, CType::I64, Full);
        map(Id, emit(COp::Bxor, CType::I64, Lo, Hi));
        return;
      }
      // Two separate multiplications (low and high results).
      CValue Lo = emit(COp::Imul, CType::I64, lo(I.A), lo(I.B));
      CValue Hi = emit(COp::Umulhi, CType::I64, lo(I.A), lo(I.B));
      map(Id, emit(COp::Bxor, CType::I64, Lo, Hi));
      return;
    }

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      COp Op = I.Op == Opcode::FAdd   ? COp::Fadd
               : I.Op == Opcode::FSub ? COp::Fsub
               : I.Op == Opcode::FMul ? COp::Fmul
                                      : COp::Fdiv;
      map(Id, emit(Op, CType::F64, lo(I.A), lo(I.B)));
      return;
    }
    case Opcode::FNeg:
      map(Id, emit(COp::Fneg, CType::F64, lo(I.A)));
      return;

    case Opcode::ICmp: {
      assert(F.valueType(I.A) != qir::Type::D128 && "cannot compare d128");
      map(Id, emit(COp::IcmpOp, CType::I8, lo(I.A), lo(I.B), C_INVALID, 0,
                   static_cast<uint8_t>(intCCFor(I.cmpPred()))));
      return;
    }
    case Opcode::FCmp:
      map(Id, emit(COp::FcmpOp, CType::I8, lo(I.A), lo(I.B), C_INVALID, 0,
                   static_cast<uint8_t>(floatCCFor(I.cmpPred()))));
      return;
    case Opcode::Select: {
      if (I.Ty == qir::Type::D128) {
        CValue L = emit(COp::SelectOp, CType::I64, lo(I.A), lo(I.B), lo(I.C));
        CValue H = emit(COp::SelectOp, CType::I64, lo(I.A), hi(I.B), hi(I.C));
        map(Id, L, H);
        return;
      }
      map(Id, emit(COp::SelectOp, ctypeFor(I.Ty), lo(I.A), lo(I.B),
                   lo(I.C)));
      return;
    }

    case Opcode::ZExt:
      map(Id, emit(COp::Uextend, ctypeFor(I.Ty), lo(I.A)));
      return;
    case Opcode::SExt: {
      if (F.valueType(I.A) == qir::Type::I1) {
        // i1 sign extension: 0/-1.
        CValue Ext = emit(COp::Uextend, ctypeFor(I.Ty), lo(I.A));
        map(Id, emit(COp::Ineg, ctypeFor(I.Ty), Ext));
        return;
      }
      map(Id, emit(COp::Sextend, ctypeFor(I.Ty), lo(I.A)));
      return;
    }
    case Opcode::Trunc:
      map(Id, maskI1(I.Ty, emit(COp::Ireduce, ctypeFor(I.Ty), lo(I.A))));
      return;
    case Opcode::SIToFP: {
      CValue Wide = toI64(lo(I.A), /*Signed=*/true);
      map(Id, emit(COp::FcvtFromSint, CType::F64, Wide));
      return;
    }
    case Opcode::FPToSI: {
      CValue AsI64 = emit(COp::FcvtToSint, CType::I64, lo(I.A));
      map(Id, I.Ty == qir::Type::I64
                  ? AsI64
                  : maskI1(I.Ty, emit(COp::Ireduce, ctypeFor(I.Ty), AsI64)));
      return;
    }
    case Opcode::Bitcast: {
      qir::Type From = F.valueType(I.A);
      if ((From == qir::Type::Ptr && I.Ty == qir::Type::I64) ||
          (From == qir::Type::I64 && I.Ty == qir::Type::Ptr)) {
        map(Id, lo(I.A)); // Both are i64 in CIR.
        return;
      }
      map(Id, emit(COp::BitcastOp, ctypeFor(I.Ty), lo(I.A)));
      return;
    }

    case Opcode::PackD128:
      map(Id, lo(I.A), lo(I.B));
      return;
    case Opcode::PackI128:
      map(Id, emit(COp::Iconcat, CType::I128, lo(I.A), lo(I.B)));
      return;
    case Opcode::ExtractLo: {
      if (F.valueType(I.A) == qir::Type::D128) {
        map(Id, lo(I.A));
        return;
      }
      map(Id, emit(COp::IsplitLo, CType::I64, lo(I.A)));
      return;
    }
    case Opcode::ExtractHi: {
      if (F.valueType(I.A) == qir::Type::D128) {
        map(Id, hi(I.A));
        return;
      }
      map(Id, emit(COp::IsplitHi, CType::I64, lo(I.A)));
      return;
    }

    case Opcode::Load: {
      CValue Addr = lo(I.A);
      if (I.Ty == qir::Type::D128) {
        CValue L = emit(COp::LoadOp, CType::I64, Addr, C_INVALID, C_INVALID, 0);
        CValue H = emit(COp::LoadOp, CType::I64, Addr, C_INVALID, C_INVALID, 8);
        map(Id, L, H);
        return;
      }
      map(Id, emit(COp::LoadOp, ctypeFor(I.Ty), Addr));
      return;
    }
    case Opcode::Store: {
      CValue Addr = lo(I.A);
      if (I.Ty == qir::Type::D128) {
        emit(COp::StoreOp, CType::I64, Addr, lo(I.B), C_INVALID, 0, 0,
             /*HasResult=*/false);
        emit(COp::StoreOp, CType::I64, Addr, hi(I.B), C_INVALID, 8, 0,
             /*HasResult=*/false);
        return;
      }
      emit(COp::StoreOp, ctypeFor(I.Ty), Addr, lo(I.B), C_INVALID, 0, 0,
           /*HasResult=*/false);
      return;
    }
    case Opcode::Gep: {
      // Pointer arithmetic in plain i64 ops (§VI: getelementptr becomes
      // integer arithmetic).
      CValue Addr = lo(I.A);
      if (I.B != qir::INVALID_VALUE) {
        CValue Scaled = lo(I.B);
        if (I.C != 1) {
          CValue ScaleC = iconst64(I.C);
          Scaled = emit(COp::Imul, CType::I64, Scaled, ScaleC);
        }
        Addr = emit(COp::Iadd, CType::I64, Addr, Scaled);
      }
      if (I.Imm != 0) {
        CValue OffC = iconst64(I.Imm);
        Addr = emit(COp::Iadd, CType::I64, Addr, OffC);
      }
      map(Id, Addr);
      return;
    }
    case Opcode::AtomicAdd:
      map(Id, emit(COp::AtomicAdd, ctypeFor(I.Ty), lo(I.A), lo(I.B)));
      return;

    case Opcode::Call:
      translateCall(Id, I);
      return;

    case Opcode::Br: {
      uint32_t EdgeId = buildEdge(I.A);
      const CEdge &E = Out.Edges[EdgeId];
      emit(COp::Jump, CType::I64, E.Target, E.ArgOff, E.ArgCount, 0, 0,
           /*HasResult=*/false);
      return;
    }
    case Opcode::CondBr: {
      uint32_t True = buildEdge(I.B);
      uint32_t False = buildEdge(I.C);
      emit(COp::Brif, CType::I64, lo(I.A), True, False, 0, 0,
           /*HasResult=*/false);
      return;
    }
    case Opcode::Ret: {
      if (I.A == qir::INVALID_VALUE) {
        emit(COp::Return, CType::I64, C_INVALID, C_INVALID, C_INVALID, 0, 0,
             /*HasResult=*/false);
        return;
      }
      if (F.valueType(I.A) == qir::Type::D128) {
        emit(COp::Return, CType::I64, lo(I.A), hi(I.A), C_INVALID, 0, 0,
             /*HasResult=*/false);
        return;
      }
      emit(COp::Return, CType::I64, lo(I.A), C_INVALID, C_INVALID, 0, 0,
           /*HasResult=*/false);
      return;
    }
    case Opcode::Unreachable:
      emit(COp::TrapOp, CType::I64, C_INVALID, C_INVALID, C_INVALID, 0xff, 0,
           /*HasResult=*/false);
      return;
    }
    QCF_UNREACHABLE("unhandled QIR opcode in Craneline translation");
  }

  void translateCall(qir::ValueId Id, const qir::Inst &I) {
    const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(I));
    assert(Sig.Address && "unbound runtime symbol");
    uint32_t ArgOff = static_cast<uint32_t>(Out.ValuePool.size());
    uint8_t Slots = 0;
    uint32_t NumArgs = 0;
    for (unsigned K = 0, E = F.numCallArgs(I); K != E; ++K) {
      qir::ValueId Arg = F.callArgs(I)[K];
      if (F.valueType(Arg) == qir::Type::D128) {
        Out.ValuePool.push_back(lo(Arg));
        Out.ValuePool.push_back(hi(Arg));
        Slots += 2;
        NumArgs += 2;
      } else {
        Out.ValuePool.push_back(lo(Arg));
        Slots += F.valueType(Arg) == qir::Type::I128 ? 2 : 1;
        NumArgs += 1;
      }
    }
    uint32_t SigId = static_cast<uint32_t>(Out.Sigs.size());
    uint8_t RetLanes = Sig.RetType == qir::Type::Void ? 0
                       : qir::isTwoLane(Sig.RetType) ? 2
                                                     : 1;
    Out.Sigs.push_back({Slots, RetLanes});

    if (Sig.RetType == qir::Type::D128) {
      CInstId CallId = static_cast<CInstId>(Out.Insts.size());
      CValue Lo = emit(COp::CallInd, CType::I64, ArgOff, NumArgs, SigId,
                       reinterpret_cast<uint64_t>(Sig.Address));
      CValue Hi = emit(COp::RetHi, CType::I64, CallId);
      map(Id, Lo, Hi);
      return;
    }
    CType RetTy = Sig.RetType == qir::Type::Void
                      ? CType::I64
                      : ctypeFor(Sig.RetType);
    CValue R = emit(COp::CallInd, RetTy, ArgOff, NumArgs, SigId,
                    reinterpret_cast<uint64_t>(Sig.Address), 0,
                    /*HasResult=*/RetLanes != 0);
    if (RetLanes != 0)
      map(Id, R);
  }

  /// Builds a CEdge to QIR block \p Target with the phi arguments for the
  /// current predecessor.
  uint32_t buildEdge(qir::BlockId Target) {
    uint32_t ArgOff = static_cast<uint32_t>(Out.ValuePool.size());
    uint32_t Count = 0;
    qir::BlockId Pred = CurQir;
    for (uint32_t I = F.block(Target).Begin; I != F.block(Target).End; ++I) {
      const qir::Inst &P = F.Insts[I];
      if (P.Op != Opcode::Phi)
        break;
      qir::ValueId In = qir::INVALID_VALUE;
      for (unsigned K = 0, E = F.numPhiIncomings(P); K != E; ++K)
        if (F.phiIncomings(P)[K].Pred == Pred)
          In = F.phiIncomings(P)[K].Val;
      assert(In != qir::INVALID_VALUE && "missing phi incoming");
      if (P.Ty == qir::Type::D128) {
        Out.ValuePool.push_back(lo(In));
        Out.ValuePool.push_back(hi(In));
        Count += 2;
      } else {
        Out.ValuePool.push_back(lo(In));
        Count += 1;
      }
    }
    uint32_t EdgeId = static_cast<uint32_t>(Out.Edges.size());
    Out.Edges.push_back({BlockMap[Target], ArgOff, Count});
    return EdgeId;
  }

  const qir::Function &F;
  const CranelineOptions &Opts;
  CFunction &Out;
  CBlock Cur = 0;
  qir::BlockId CurQir = 0;
  std::vector<CBlock> BlockMap;
  std::unordered_map<qir::ValueId, MappedValue> VMap;
  std::unordered_map<qir::ValueId, uint32_t> SlotMap;
};

} // namespace

void craneline::translateFunction(const qir::Function &F,
                                  const CranelineOptions &Opts,
                                  CFunction *Out) {
  Translator(F, Opts, *Out).run();
}
