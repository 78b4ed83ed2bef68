//===- craneline/Lower.cpp - CIR lowering to VCode -------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "craneline/Lower.h"
#include "runtime/Trap.h"
#include <algorithm>

using namespace qcf;
using namespace qcf::craneline;
using x64::Cond;
using x64::Width;
using AluOp = x64::Assembler::Alu;
using ShiftOp = x64::Assembler::Shift;

namespace {

Width widthFor(CType Ty) {
  switch (Ty) {
  case CType::I8:
    return Width::W8;
  case CType::I16:
    return Width::W16;
  case CType::I32:
    return Width::W32;
  case CType::I64:
  case CType::F64:
    return Width::W64;
  case CType::I128:
    QCF_UNREACHABLE("i128 has no single machine width");
  }
  QCF_UNREACHABLE("invalid ctype");
}

Width aluWidthFor(CType Ty) {
  return Ty == CType::I64 ? Width::W64 : Width::W32;
}

Cond condForIntCC(IntCC CC) {
  switch (CC) {
  case IntCC::Eq:
    return Cond::E;
  case IntCC::Ne:
    return Cond::NE;
  case IntCC::Slt:
    return Cond::L;
  case IntCC::Sle:
    return Cond::LE;
  case IntCC::Sgt:
    return Cond::G;
  case IntCC::Sge:
    return Cond::GE;
  case IntCC::Ult:
    return Cond::B;
  case IntCC::Ule:
    return Cond::BE;
  case IntCC::Ugt:
    return Cond::A;
  case IntCC::Uge:
    return Cond::AE;
  }
  QCF_UNREACHABLE("invalid IntCC");
}

class Lowerer {
public:
  Lowerer(const CFunction &CF, VCode &VC, TimeTrace *Trace)
      : CF(CF), VC(VC), Trace(Trace) {}

  LowerStats run() {
    {
      TimeTraceScope Scope(Trace, "craneline.iselprepare");
      prepassVRegs();
      prepassSideEffects();
      prepassUseCounts();
    }
    TimeTraceScope Scope(Trace, "craneline.isel");
    lowerAllBlocks();
    return Stats;
  }

private:
  // --- ISelPrepare: three metadata passes over the complete IR -------------

  void prepassVRegs() {
    size_t N = CF.Values.size();
    ValLo.assign(N, VR_NONE);
    ValHi.assign(N, VR_NONE);
    for (CValue V = 0; V != N; ++V) {
      CType Ty = CF.Values[V].Ty;
      if (Ty == CType::F64) {
        ValLo[V] = VC.newVReg(RegClass::Float);
      } else if (Ty == CType::I128) {
        ValLo[V] = VC.newVReg(RegClass::Int);
        ValHi[V] = VC.newVReg(RegClass::Int);
      } else {
        ValLo[V] = VC.newVReg(RegClass::Int);
      }
    }
  }

  static bool hasSideEffect(COp Op) {
    switch (Op) {
    case COp::StoreOp:
    case COp::AtomicAdd:
    case COp::CallInd:
    case COp::Sdiv:
    case COp::Udiv:
    case COp::Srem:
    case COp::IaddOvfTrap:
    case COp::IsubOvfTrap:
    case COp::ImulOvfTrap:
    case COp::TrapOp:
      return true;
    default:
      return false;
    }
  }

  void prepassSideEffects() {
    InstGroup.assign(CF.Insts.size(), 0);
    InstBlock.assign(CF.Insts.size(), 0);
    uint32_t Group = 0;
    for (CBlock B = CF.FirstBlock; B != C_INVALID; B = CF.BlockNext[B]) {
      for (uint32_t I = CF.Blocks[B].FirstInst; I != C_INVALID;
           I = CF.InstNext[I]) {
        InstBlock[I] = B;
        InstGroup[I] = Group;
        if (hasSideEffect(CF.Insts[I].Op))
          ++Group;
      }
    }
  }

  void prepassUseCounts() {
    UseCount.assign(CF.Values.size(), 0);
    auto Count = [&](CValue V) {
      if (V != C_INVALID && UseCount[V] < 2)
        ++UseCount[V];
    };
    for (uint32_t I = 0; I != CF.Insts.size(); ++I) {
      const CInst &Ins = CF.Insts[I];
      switch (Ins.Op) {
      case COp::Iconst:
      case COp::Iconst128:
      case COp::F64const:
      case COp::StackAddr:
        break;
      case COp::CallInd:
        for (uint32_t K = 0; K != Ins.B; ++K)
          Count(CF.ValuePool[Ins.A + K]);
        break;
      case COp::Jump:
        for (uint32_t K = 0; K != Ins.C; ++K)
          Count(CF.ValuePool[Ins.B + K]);
        break;
      case COp::Brif: {
        Count(Ins.A);
        for (uint32_t EIdx : {Ins.B, Ins.C}) {
          const CEdge &E = CF.Edges[EIdx];
          for (uint32_t K = 0; K != E.ArgCount; ++K)
            Count(CF.ValuePool[E.ArgOff + K]);
        }
        break;
      }
      case COp::Return:
        Count(Ins.A);
        Count(Ins.B);
        break;
      case COp::SelectOp:
        Count(Ins.A);
        Count(Ins.B);
        Count(Ins.C);
        break;
      case COp::RetHi:
        break; // References the call *instruction*, not a value.
      case COp::StoreOp:
      case COp::AtomicAdd:
        Count(Ins.A);
        Count(Ins.B);
        break;
      default:
        Count(Ins.A);
        if (Ins.B != C_INVALID)
          Count(Ins.B);
        break;
      }
    }
  }

  // --- Pattern helpers -------------------------------------------------------

  /// If \p V is a single-use Iconst defined in \p Block whose value fits
  /// in a signed 32-bit immediate, returns the defining inst id.
  CInstId matchImmConst(CValue V, CBlock Block) const {
    if (V == C_INVALID || CF.Values[V].IsBlockParam || UseCount[V] != 1)
      return C_INVALID;
    CInstId Def = CF.Values[V].Def;
    if (CF.Insts[Def].Op != COp::Iconst || InstBlock[Def] != Block)
      return C_INVALID;
    int64_t Imm = static_cast<int64_t>(CF.Insts[Def].Imm);
    if (Imm < INT32_MIN || Imm > INT32_MAX)
      return C_INVALID;
    return Def;
  }

  /// If \p V is a single-use icmp/fcmp in \p Block, returns its inst id.
  CInstId matchCmp(CValue V, CBlock Block) const {
    if (V == C_INVALID || CF.Values[V].IsBlockParam || UseCount[V] != 1)
      return C_INVALID;
    CInstId Def = CF.Values[V].Def;
    COp Op = CF.Insts[Def].Op;
    if ((Op != COp::IcmpOp && Op != COp::FcmpOp) || InstBlock[Def] != Block)
      return C_INVALID;
    return Def;
  }

  // --- Emission helpers --------------------------------------------------------

  void push(MInst I) { Chunk.push_back(I); }

  MInst make(MOp Op) {
    MInst I;
    I.Op = Op;
    return I;
  }

  void movRR(VReg Dst, VReg Src, Width W = Width::W64) {
    MInst I = make(MOp::MovRR);
    I.W = W;
    I.Dst = Dst;
    I.Src1 = Src;
    push(I);
  }

  void movRI(VReg Dst, uint64_t Imm) {
    MInst I = make(MOp::MovRI);
    I.Dst = Dst;
    I.Imm = static_cast<int64_t>(Imm);
    push(I);
  }

  void aluRR(AluOp Op, Width W, VReg Dst, VReg Src) {
    MInst I = make(MOp::AluRR);
    I.W = W;
    I.Aux = static_cast<uint8_t>(Op);
    I.Dst = Dst;
    I.Src1 = Src;
    push(I);
  }

  void aluRI(AluOp Op, Width W, VReg Dst, int32_t Imm) {
    MInst I = make(MOp::AluRI);
    I.W = W;
    I.Aux = static_cast<uint8_t>(Op);
    I.Dst = Dst;
    I.Imm = Imm;
    push(I);
  }

  void setcc(Cond CC, VReg Dst) {
    MInst I = make(MOp::SetccR);
    I.CC = CC;
    I.Dst = Dst;
    push(I);
    MInst Z = make(MOp::MovzxRR);
    Z.Aux = static_cast<uint8_t>(Width::W8);
    Z.Dst = Dst;
    Z.Src1 = Dst;
    push(Z);
  }

  void trapIf(Cond CC, rt::TrapCode Code) {
    MInst I = make(MOp::TrapIf);
    I.CC = CC;
    I.Imm = static_cast<int64_t>(Code);
    push(I);
  }

  /// Re-canonicalizes an 8/16-bit result computed at 32-bit width.
  void recanon(VReg R, CType Ty) {
    if (Ty == CType::I8) {
      MInst I = make(MOp::MovzxRR);
      I.Aux = static_cast<uint8_t>(Width::W8);
      I.Dst = R;
      I.Src1 = R;
      push(I);
    } else if (Ty == CType::I16) {
      MInst I = make(MOp::MovzxRR);
      I.Aux = static_cast<uint8_t>(Width::W16);
      I.Dst = R;
      I.Src1 = R;
      push(I);
    }
  }

  // --- Lowering --------------------------------------------------------------

  void lowerAllBlocks() {
    Matched.assign(CF.Insts.size(), false);

    // Main blocks in CIR layout order.
    uint32_t NumMain = static_cast<uint32_t>(CF.Blocks.size());
    VC.Blocks.resize(NumMain);

    // Entry block prologue chunk: bind parameter vregs to the incoming
    // argument registers.
    std::vector<MInst> EntryPrefix;
    {
      unsigned GpSlot = 0;
      for (CValue P : CF.Blocks[CF.FirstBlock].Params) {
        MInst I = make(MOp::MovRR);
        I.Dst = ValLo[P];
        I.Src1 = physGp(x64::GpArgRegs[GpSlot++]);
        EntryPrefix.push_back(I);
        if (CF.Values[P].Ty == CType::I128) {
          MInst H = make(MOp::MovRR);
          H.Dst = ValHi[P];
          H.Src1 = physGp(x64::GpArgRegs[GpSlot++]);
          EntryPrefix.push_back(H);
        }
      }
    }

    uint32_t BlockIdx = 0;
    for (CBlock B = CF.FirstBlock; B != C_INVALID;
         B = CF.BlockNext[B], ++BlockIdx) {
      // Backward tree-matching pass: chunks are generated per instruction
      // walking backwards, then stitched in forward order.
      std::vector<std::vector<MInst>> Chunks;
      for (uint32_t I = CF.Blocks[B].LastInst; I != C_INVALID;
           I = CF.InstPrev[I]) {
        Chunk.clear();
        if (!Matched[I])
          lowerInst(I, CF.Insts[I], B);
        Chunks.push_back(Chunk);
      }

      VCode::VBlock &VB = VC.Blocks[BlockIdx];
      VB.Begin = static_cast<uint32_t>(VC.Insts.size());
      if (B == CF.FirstBlock)
        VC.Insts.insert(VC.Insts.end(), EntryPrefix.begin(),
                        EntryPrefix.end());
      for (auto It = Chunks.rbegin(); It != Chunks.rend(); ++It)
        VC.Insts.insert(VC.Insts.end(), It->begin(), It->end());
      VB.End = static_cast<uint32_t>(VC.Insts.size());
    }

    // Append edge-argument stub blocks and resolve stub markers.
    std::vector<uint32_t> StubBlockIdx(Stubs.size());
    for (size_t SI = 0; SI != Stubs.size(); ++SI) {
      PendingStub &S = Stubs[SI];
      VCode::VBlock VB;
      VB.Begin = static_cast<uint32_t>(VC.Insts.size());
      VC.Insts.insert(VC.Insts.end(), S.Insts.begin(), S.Insts.end());
      VB.End = static_cast<uint32_t>(VC.Insts.size());
      VB.Succs.push_back(S.Target);
      StubBlockIdx[SI] = static_cast<uint32_t>(VC.Blocks.size());
      VC.Blocks.push_back(VB);
    }
    for (MInst &I : VC.Insts)
      if ((I.Op == MOp::Jmp || I.Op == MOp::Jcc) && (I.Target & StubMark))
        I.Target = StubBlockIdx[I.Target & ~StubMark];

    // Successor lists for the main blocks (from terminators).
    for (uint32_t BI = 0; BI != NumMain; ++BI) {
      VCode::VBlock &VB = VC.Blocks[BI];
      for (uint32_t P = VB.Begin; P != VB.End; ++P) {
        const MInst &I = VC.Insts[P];
        if (I.Op == MOp::Jmp || I.Op == MOp::Jcc)
          VB.Succs.push_back(I.Target);
      }
    }
  }

  static constexpr uint32_t StubMark = 0x80000000u;

  VReg lo(CValue V) const { return ValLo[V]; }
  VReg hi(CValue V) const {
    assert(ValHi[V] != VR_NONE && "value has no high lane");
    return ValHi[V];
  }

  void lowerInst(CInstId Id, const CInst &I, CBlock B) {
    CValue Res = CF.InstResult[Id];
    switch (I.Op) {
    case COp::Iconst:
      movRI(lo(Res), I.Imm);
      return;
    case COp::Iconst128: {
      auto [LoV, HiV] = CF.I128Pool[I.A];
      movRI(lo(Res), LoV);
      movRI(hi(Res), HiV);
      return;
    }
    case COp::F64const: {
      VReg Tmp = VC.newVReg(RegClass::Int);
      movRI(Tmp, I.Imm);
      MInst M = make(MOp::MovXG);
      M.Dst = lo(Res);
      M.Src1 = Tmp;
      push(M);
      return;
    }

    case COp::Iadd:
    case COp::Isub:
    case COp::Band:
    case COp::Bor:
    case COp::Bxor:
      lowerAddLike(Id, I, Res, B);
      return;
    case COp::Imul:
      lowerMul(Id, I, Res, B);
      return;
    case COp::Ineg:
      if (I.Ty == CType::I128) {
        movRI(lo(Res), 0);
        movRI(hi(Res), 0);
        aluRR(AluOp::Sub, Width::W64, lo(Res), lo(I.A));
        aluRR(AluOp::Sbb, Width::W64, hi(Res), hi(I.A));
        return;
      }
      movRR(lo(Res), lo(I.A));
      {
        MInst N = make(MOp::NegR);
        N.W = aluWidthFor(I.Ty);
        N.Dst = lo(Res);
        push(N);
      }
      recanon(lo(Res), I.Ty);
      return;
    case COp::Bnot:
      if (I.Ty == CType::I128) {
        movRR(lo(Res), lo(I.A));
        movRR(hi(Res), hi(I.A));
        MInst N = make(MOp::NotR);
        N.Dst = lo(Res);
        push(N);
        MInst N2 = make(MOp::NotR);
        N2.Dst = hi(Res);
        push(N2);
        return;
      }
      movRR(lo(Res), lo(I.A));
      {
        MInst N = make(MOp::NotR);
        N.W = aluWidthFor(I.Ty);
        N.Dst = lo(Res);
        push(N);
      }
      recanon(lo(Res), I.Ty);
      return;

    case COp::Ishl:
    case COp::Ushr:
    case COp::Sshr:
    case COp::RotrOp:
      lowerShift(Id, I, Res, B);
      return;

    case COp::Sdiv:
    case COp::Udiv:
    case COp::Srem:
      lowerDiv(Id, I, Res);
      return;

    case COp::IaddOvfTrap:
    case COp::IsubOvfTrap: {
      bool IsAdd = I.Op == COp::IaddOvfTrap;
      if (I.Ty == CType::I128) {
        movRR(lo(Res), lo(I.A));
        movRR(hi(Res), hi(I.A));
        aluRR(IsAdd ? AluOp::Add : AluOp::Sub, Width::W64, lo(Res), lo(I.B));
        aluRR(IsAdd ? AluOp::Adc : AluOp::Sbb, Width::W64, hi(Res), hi(I.B));
        trapIf(Cond::O, rt::TrapCode::Overflow);
        return;
      }
      movRR(lo(Res), lo(I.A));
      aluRR(IsAdd ? AluOp::Add : AluOp::Sub, aluWidthFor(I.Ty), lo(Res),
            lo(I.B));
      trapIf(Cond::O, rt::TrapCode::Overflow);
      recanon(lo(Res), I.Ty);
      return;
    }
    case COp::ImulOvfTrap: {
      movRR(lo(Res), lo(I.A));
      MInst M = make(MOp::MulRR);
      M.W = aluWidthFor(I.Ty);
      M.Dst = lo(Res);
      M.Src1 = lo(I.B);
      push(M);
      trapIf(Cond::O, rt::TrapCode::Overflow);
      recanon(lo(Res), I.Ty);
      return;
    }

    case COp::Crc32Native: {
      movRR(lo(Res), lo(I.A));
      MInst C = make(MOp::Crc32RR);
      C.Dst = lo(Res);
      C.Src1 = lo(I.B);
      push(C);
      return;
    }
    case COp::ImulFull:
    case COp::Umulhi: {
      // RDX:RAX = a * b.
      movRR(physGp(x64::Reg::RAX), lo(I.A));
      MInst M = make(MOp::MulWide);
      M.Aux = 0; // unsigned
      M.Src1 = lo(I.B);
      push(M);
      if (I.Op == COp::ImulFull) {
        movRR(lo(Res), physGp(x64::Reg::RAX));
        movRR(hi(Res), physGp(x64::Reg::RDX));
      } else {
        movRR(lo(Res), physGp(x64::Reg::RDX));
      }
      return;
    }

    case COp::Fadd:
    case COp::Fsub:
    case COp::Fmul:
    case COp::Fdiv: {
      MInst Mv = make(MOp::FMovRR);
      Mv.Dst = lo(Res);
      Mv.Src1 = lo(I.A);
      push(Mv);
      MInst Al = make(MOp::FAluRR);
      Al.Aux = I.Op == COp::Fadd   ? 0
               : I.Op == COp::Fsub ? 1
               : I.Op == COp::Fmul ? 2
                                   : 3;
      Al.Dst = lo(Res);
      Al.Src1 = lo(I.B);
      push(Al);
      return;
    }
    case COp::Fneg: {
      VReg T = VC.newVReg(RegClass::Int);
      VReg S = VC.newVReg(RegClass::Int);
      MInst G = make(MOp::MovGX);
      G.Dst = T;
      G.Src1 = lo(I.A);
      push(G);
      movRI(S, 0x8000000000000000ull);
      aluRR(AluOp::Xor, Width::W64, T, S);
      MInst X = make(MOp::MovXG);
      X.Dst = lo(Res);
      X.Src1 = T;
      push(X);
      return;
    }

    case COp::IcmpOp:
      lowerIcmp(Id, I, lo(Res), static_cast<IntCC>(I.Flags), B);
      return;
    case COp::FcmpOp:
      lowerFcmp(I, lo(Res), static_cast<FloatCC>(I.Flags));
      return;
    case COp::SelectOp: {
      MInst T = make(MOp::TestRR);
      T.Src1 = lo(I.A);
      T.Src2 = lo(I.A);
      if (I.Ty == CType::F64) {
        // Branchless via GP registers.
        VReg TV = VC.newVReg(RegClass::Int);
        VReg FV = VC.newVReg(RegClass::Int);
        MInst G1 = make(MOp::MovGX);
        G1.Dst = TV;
        G1.Src1 = lo(I.B);
        push(G1);
        MInst G2 = make(MOp::MovGX);
        G2.Dst = FV;
        G2.Src1 = lo(I.C);
        push(G2);
        push(T);
        MInst Cm = make(MOp::CmovRR);
        Cm.CC = Cond::E;
        Cm.Dst = TV;
        Cm.Src1 = FV;
        push(Cm);
        MInst X = make(MOp::MovXG);
        X.Dst = lo(Res);
        X.Src1 = TV;
        push(X);
        return;
      }
      if (I.Ty == CType::I128) {
        movRR(lo(Res), lo(I.B));
        movRR(hi(Res), hi(I.B));
        push(T);
        MInst C1 = make(MOp::CmovRR);
        C1.CC = Cond::E;
        C1.Dst = lo(Res);
        C1.Src1 = lo(I.C);
        push(C1);
        MInst C2 = make(MOp::CmovRR);
        C2.CC = Cond::E;
        C2.Dst = hi(Res);
        C2.Src1 = hi(I.C);
        push(C2);
        return;
      }
      movRR(lo(Res), lo(I.B));
      push(T);
      MInst Cm = make(MOp::CmovRR);
      Cm.CC = Cond::E;
      Cm.Dst = lo(Res);
      Cm.Src1 = lo(I.C);
      push(Cm);
      return;
    }

    case COp::Uextend: {
      movRR(lo(Res), lo(I.A)); // canonical zero-extension
      if (I.Ty == CType::I128)
        movRI(hi(Res), 0);
      return;
    }
    case COp::Sextend: {
      CType From = CF.valueType(I.A);
      MInst S = make(MOp::MovsxRR);
      S.Aux = static_cast<uint8_t>(widthFor(From));
      S.Dst = lo(Res);
      S.Src1 = lo(I.A);
      push(S);
      if (I.Ty == CType::I16)
        recanon(lo(Res), CType::I16);
      else if (I.Ty == CType::I32)
        movRR(lo(Res), lo(Res), Width::W32);
      if (I.Ty == CType::I128) {
        movRR(hi(Res), lo(Res));
        MInst Sh = make(MOp::ShiftRI);
        Sh.Aux = static_cast<uint8_t>(ShiftOp::Sar);
        Sh.Dst = hi(Res);
        Sh.Imm = 63;
        push(Sh);
      }
      return;
    }
    case COp::Ireduce: {
      movRR(lo(Res), lo(I.A)); // For i128 sources this is the low lane.
      if (I.Ty == CType::I32)
        movRR(lo(Res), lo(Res), Width::W32);
      else
        recanon(lo(Res), I.Ty);
      return;
    }
    case COp::Iconcat:
      movRR(lo(Res), lo(I.A));
      movRR(hi(Res), lo(I.B));
      return;
    case COp::IsplitLo:
      movRR(lo(Res), lo(I.A));
      return;
    case COp::IsplitHi:
      movRR(lo(Res), hi(I.A));
      return;

    case COp::FcvtFromSint: {
      MInst C = make(MOp::Cvtsi2sd);
      C.Dst = lo(Res);
      C.Src1 = lo(I.A);
      push(C);
      return;
    }
    case COp::FcvtToSint: {
      MInst C = make(MOp::Cvttsd2si);
      C.Dst = lo(Res);
      C.Src1 = lo(I.A);
      push(C);
      return;
    }
    case COp::BitcastOp: {
      bool ToFloat = I.Ty == CType::F64;
      MInst C = make(ToFloat ? MOp::MovXG : MOp::MovGX);
      C.Dst = lo(Res);
      C.Src1 = lo(I.A);
      push(C);
      return;
    }

    case COp::LoadOp: {
      if (I.Ty == CType::I128) {
        loadLane(lo(Res), lo(I.A), static_cast<int32_t>(I.Imm), Width::W64);
        loadLane(hi(Res), lo(I.A), static_cast<int32_t>(I.Imm) + 8,
                 Width::W64);
        return;
      }
      if (I.Ty == CType::F64) {
        MInst L = make(MOp::FLoad);
        L.Dst = lo(Res);
        L.Src1 = lo(I.A);
        L.Disp = static_cast<int32_t>(I.Imm);
        push(L);
        return;
      }
      loadLane(lo(Res), lo(I.A), static_cast<int32_t>(I.Imm),
               widthFor(I.Ty));
      return;
    }
    case COp::StoreOp: {
      if (I.Ty == CType::I128) {
        storeLane(lo(I.B), lo(I.A), static_cast<int32_t>(I.Imm), Width::W64);
        storeLane(hi(I.B), lo(I.A), static_cast<int32_t>(I.Imm) + 8,
                  Width::W64);
        return;
      }
      if (I.Ty == CType::F64) {
        MInst S = make(MOp::FStore);
        S.Dst = lo(I.B);
        S.Src1 = lo(I.A);
        S.Disp = static_cast<int32_t>(I.Imm);
        push(S);
        return;
      }
      storeLane(lo(I.B), lo(I.A), static_cast<int32_t>(I.Imm),
                widthFor(I.Ty));
      return;
    }
    case COp::StackAddr: {
      MInst S = make(MOp::StackAddrOp);
      S.Dst = lo(Res);
      S.Imm = I.A; // Slot index; emit resolves the frame offset.
      push(S);
      return;
    }
    case COp::AtomicAdd: {
      movRR(lo(Res), lo(I.B));
      MInst X = make(MOp::AtomicXadd);
      X.W = widthFor(I.Ty);
      X.Dst = lo(Res);
      X.Src1 = lo(I.A);
      push(X);
      return;
    }

    case COp::CallInd:
      lowerCall(Id, I, Res);
      return;
    case COp::RetHi:
      movRR(lo(Res), physGp(x64::Reg::RDX));
      return;

    case COp::Jump: {
      emitEdgeMoves(I.A, I.B, I.C, &Chunk);
      MInst J = make(MOp::Jmp);
      J.Target = I.A;
      push(J);
      return;
    }
    case COp::Brif:
      lowerBrif(I, B);
      return;
    case COp::Return: {
      if (I.A != C_INVALID) {
        if (CF.RetIsF64) {
          MInst M = make(MOp::FMovRR);
          M.Dst = physXmm(x64::Xmm::XMM0);
          M.Src1 = lo(I.A);
          push(M);
        } else if (CF.valueType(I.A) == CType::I128) {
          movRR(physGp(x64::Reg::RAX), lo(I.A));
          movRR(physGp(x64::Reg::RDX), hi(I.A));
        } else {
          movRR(physGp(x64::Reg::RAX), lo(I.A));
          if (I.B != C_INVALID)
            movRR(physGp(x64::Reg::RDX), lo(I.B));
        }
      }
      push(make(MOp::Ret));
      return;
    }
    case COp::TrapOp:
      push(make(MOp::Ud2));
      return;
    }
    QCF_UNREACHABLE("unhandled CIR opcode in lowering");
  }

  void loadLane(VReg Dst, VReg Addr, int32_t Disp, Width W) {
    MInst L = make(MOp::LoadZx);
    L.W = W;
    L.Dst = Dst;
    L.Src1 = Addr;
    L.Disp = Disp;
    push(L);
  }

  void storeLane(VReg Val, VReg Addr, int32_t Disp, Width W) {
    MInst S = make(MOp::StoreR);
    S.W = W;
    S.Dst = Val;
    S.Src1 = Addr;
    S.Disp = Disp;
    push(S);
  }

  void lowerAddLike(CInstId Id, const CInst &I, CValue Res, CBlock B) {
    AluOp Op = I.Op == COp::Iadd   ? AluOp::Add
               : I.Op == COp::Isub ? AluOp::Sub
               : I.Op == COp::Band ? AluOp::And
               : I.Op == COp::Bor  ? AluOp::Or
                                   : AluOp::Xor;
    if (I.Ty == CType::I128) {
      movRR(lo(Res), lo(I.A));
      movRR(hi(Res), hi(I.A));
      if (I.Op == COp::Iadd) {
        aluRR(AluOp::Add, Width::W64, lo(Res), lo(I.B));
        aluRR(AluOp::Adc, Width::W64, hi(Res), hi(I.B));
      } else if (I.Op == COp::Isub) {
        aluRR(AluOp::Sub, Width::W64, lo(Res), lo(I.B));
        aluRR(AluOp::Sbb, Width::W64, hi(Res), hi(I.B));
      } else {
        aluRR(Op, Width::W64, lo(Res), lo(I.B));
        aluRR(Op, Width::W64, hi(Res), hi(I.B));
      }
      return;
    }
    movRR(lo(Res), lo(I.A));
    // Tree match: constant operand becomes an immediate.
    CInstId ConstDef = matchImmConst(I.B, B);
    if (ConstDef != C_INVALID) {
      Matched[ConstDef] = true;
      ++Stats.MergedConsts;
      aluRI(Op, aluWidthFor(I.Ty), lo(Res),
            static_cast<int32_t>(CF.Insts[ConstDef].Imm));
    } else {
      aluRR(Op, aluWidthFor(I.Ty), lo(Res), lo(I.B));
    }
    recanon(lo(Res), I.Ty);
  }

  void lowerMul(CInstId Id, const CInst &I, CValue Res, CBlock B) {
    if (I.Ty == CType::I128) {
      // Three 64-bit multiplies through RAX/RDX.
      movRR(physGp(x64::Reg::RAX), lo(I.A));
      MInst M = make(MOp::MulWide);
      M.Aux = 0;
      M.Src1 = lo(I.B);
      push(M);
      VReg LoT = VC.newVReg(RegClass::Int);
      VReg HiT = VC.newVReg(RegClass::Int);
      movRR(LoT, physGp(x64::Reg::RAX));
      movRR(HiT, physGp(x64::Reg::RDX));
      VReg T1 = VC.newVReg(RegClass::Int);
      movRR(T1, hi(I.A));
      MInst M1 = make(MOp::MulRR);
      M1.W = Width::W64;
      M1.Dst = T1;
      M1.Src1 = lo(I.B);
      push(M1);
      aluRR(AluOp::Add, Width::W64, HiT, T1);
      VReg T2 = VC.newVReg(RegClass::Int);
      movRR(T2, lo(I.A));
      MInst M2 = make(MOp::MulRR);
      M2.W = Width::W64;
      M2.Dst = T2;
      M2.Src1 = hi(I.B);
      push(M2);
      aluRR(AluOp::Add, Width::W64, HiT, T2);
      movRR(lo(Res), LoT);
      movRR(hi(Res), HiT);
      return;
    }
    movRR(lo(Res), lo(I.A));
    MInst M = make(MOp::MulRR);
    M.W = aluWidthFor(I.Ty);
    M.Dst = lo(Res);
    M.Src1 = lo(I.B);
    push(M);
    recanon(lo(Res), I.Ty);
  }

  void lowerShift(CInstId Id, const CInst &I, CValue Res, CBlock B) {
    unsigned Bits = ctypeBytes(I.Ty) * 8;
    ShiftOp Op = I.Op == COp::Ishl    ? ShiftOp::Shl
                 : I.Op == COp::Ushr  ? ShiftOp::Shr
                 : I.Op == COp::Sshr  ? ShiftOp::Sar
                                      : ShiftOp::Ror;

    bool NeedSext = I.Op == COp::Sshr && (Bits == 8 || Bits == 16);
    if (NeedSext) {
      MInst S = make(MOp::MovsxRR);
      S.Aux = static_cast<uint8_t>(widthFor(I.Ty));
      S.Dst = lo(Res);
      S.Src1 = lo(I.A);
      push(S);
    } else {
      movRR(lo(Res), lo(I.A));
    }

    CInstId ConstDef = matchImmConst(I.B, B);
    if (ConstDef != C_INVALID) {
      Matched[ConstDef] = true;
      ++Stats.MergedConsts;
      MInst Sh = make(MOp::ShiftRI);
      Sh.W = I.Op == COp::RotrOp ? widthFor(I.Ty) : aluWidthFor(I.Ty);
      Sh.Aux = static_cast<uint8_t>(Op);
      Sh.Dst = lo(Res);
      Sh.Imm = static_cast<int64_t>(CF.Insts[ConstDef].Imm) & (Bits - 1);
      push(Sh);
    } else {
      movRR(physGp(x64::Reg::RCX), lo(I.B));
      if (Bits < 32 && I.Op != COp::RotrOp)
        aluRI(AluOp::And, Width::W32, physGp(x64::Reg::RCX),
              static_cast<int32_t>(Bits - 1));
      MInst Sh = make(MOp::ShiftRC);
      Sh.W = I.Op == COp::RotrOp ? widthFor(I.Ty) : aluWidthFor(I.Ty);
      Sh.Aux = static_cast<uint8_t>(Op);
      Sh.Dst = lo(Res);
      push(Sh);
    }
    if (I.Op != COp::RotrOp)
      recanon(lo(Res), I.Ty);
  }

  void lowerDiv(CInstId Id, const CInst &I, CValue Res) {
    bool Signed = I.Op != COp::Udiv;
    bool IsRem = I.Op == COp::Srem;
    Width W = aluWidthFor(I.Ty);
    bool Narrow = I.Ty == CType::I8 || I.Ty == CType::I16;

    // Dividend into RAX; divisor into a scratch vreg.
    if (Signed && Narrow) {
      MInst S = make(MOp::MovsxRR);
      S.Aux = static_cast<uint8_t>(widthFor(I.Ty));
      S.Dst = physGp(x64::Reg::RAX);
      S.Src1 = lo(I.A);
      push(S);
    } else {
      movRR(physGp(x64::Reg::RAX), lo(I.A));
    }
    VReg Divisor = VC.newVReg(RegClass::Int);
    if (Signed && Narrow) {
      MInst S = make(MOp::MovsxRR);
      S.Aux = static_cast<uint8_t>(widthFor(I.Ty));
      S.Dst = Divisor;
      S.Src1 = lo(I.B);
      push(S);
    } else {
      movRR(Divisor, lo(I.B));
    }

    MInst T = make(MOp::TestRR);
    T.W = W;
    T.Src1 = Divisor;
    T.Src2 = Divisor;
    push(T);
    trapIf(Cond::E, rt::TrapCode::DivByZero);

    if (Signed && IsRem) {
      // srem x, -1 == 0 for every x (see Opcode.h); rewrite the divisor
      // to 1 — same remainder for all inputs — so idiv cannot fault on
      // INT_MIN.
      VReg One = VC.newVReg(RegClass::Int);
      movRI(One, 1);
      MInst C1 = make(MOp::CmpRI);
      C1.W = W;
      C1.Src1 = Divisor;
      C1.Imm = -1;
      push(C1);
      MInst Cm = make(MOp::CmovRR);
      Cm.CC = Cond::E;
      Cm.Dst = Divisor;
      Cm.Src1 = One;
      push(Cm);
    } else if (Signed) {
      // Branchless INT_MIN / -1 detection: both conditions as bytes.
      VReg IsM1 = VC.newVReg(RegClass::Int);
      VReg IsMin = VC.newVReg(RegClass::Int);
      MInst C1 = make(MOp::CmpRI);
      C1.W = W;
      C1.Src1 = Divisor;
      C1.Imm = -1;
      push(C1);
      setcc(Cond::E, IsM1);
      VReg MinC = VC.newVReg(RegClass::Int);
      int64_t MinVal = I.Ty == CType::I64   ? INT64_MIN
                       : I.Ty == CType::I32 ? INT32_MIN
                       : I.Ty == CType::I16 ? -32768
                                            : -128;
      movRI(MinC, static_cast<uint64_t>(MinVal));
      MInst C2 = make(MOp::CmpRR);
      // At the ALU width: narrow dividends sit sign-extended in RAX and
      // i32 dividends zero-extended, so the comparison must not look at
      // the upper 32 bits for sub-64-bit types.
      C2.W = W;
      C2.Src1 = physGp(x64::Reg::RAX);
      C2.Src2 = MinC;
      push(C2);
      setcc(Cond::E, IsMin);
      aluRR(AluOp::And, Width::W32, IsM1, IsMin);
      MInst T2 = make(MOp::TestRR);
      T2.W = Width::W32;
      T2.Src1 = IsM1;
      T2.Src2 = IsM1;
      push(T2);
      trapIf(Cond::NE, rt::TrapCode::Overflow);
    }
    if (Signed) {
      MInst Q = make(MOp::Cqo);
      Q.W = W;
      push(Q);
      MInst D = make(MOp::DivRem);
      D.W = W;
      D.Aux = 1;
      D.Src1 = Divisor;
      push(D);
    } else {
      movRI(physGp(x64::Reg::RDX), 0);
      MInst D = make(MOp::DivRem);
      D.W = W;
      D.Aux = 0;
      D.Src1 = Divisor;
      push(D);
    }
    movRR(lo(Res), physGp(IsRem ? x64::Reg::RDX : x64::Reg::RAX));
    recanon(lo(Res), I.Ty);
  }

  void lowerIcmp(CInstId Id, const CInst &I, VReg Dst, IntCC CC, CBlock B) {
    CType OpTy = CF.valueType(I.A);
    if (OpTy == CType::I128) {
      lowerIcmp128(I, Dst, CC);
      return;
    }
    emitCmpOperands(I, B, widthFor(OpTy));
    setcc(condForIntCC(CC), Dst);
  }

  /// Emits the flag-setting compare for an icmp (with const folding).
  void emitCmpOperands(const CInst &I, CBlock B, Width W) {
    CInstId ConstDef = matchImmConst(I.B, B);
    if (ConstDef != C_INVALID) {
      Matched[ConstDef] = true;
      ++Stats.MergedConsts;
      MInst C = make(MOp::CmpRI);
      C.W = W;
      C.Src1 = lo(I.A);
      C.Imm = static_cast<int64_t>(CF.Insts[ConstDef].Imm);
      push(C);
      return;
    }
    MInst C = make(MOp::CmpRR);
    C.W = W;
    C.Src1 = lo(I.A);
    C.Src2 = lo(I.B);
    push(C);
  }

  void lowerIcmp128(const CInst &I, VReg Dst, IntCC CC) {
    if (CC == IntCC::Eq || CC == IntCC::Ne) {
      VReg T1 = VC.newVReg(RegClass::Int);
      VReg T2 = VC.newVReg(RegClass::Int);
      movRR(T1, lo(I.A));
      aluRR(AluOp::Xor, Width::W64, T1, lo(I.B));
      movRR(T2, hi(I.A));
      aluRR(AluOp::Xor, Width::W64, T2, hi(I.B));
      aluRR(AluOp::Or, Width::W64, T1, T2);
      setcc(CC == IntCC::Eq ? Cond::E : Cond::NE, Dst);
      return;
    }
    bool Swap, Invert, Signed;
    switch (CC) {
    case IntCC::Slt:
      Swap = false; Invert = false; Signed = true; break;
    case IntCC::Sgt:
      Swap = true; Invert = false; Signed = true; break;
    case IntCC::Sle:
      Swap = true; Invert = true; Signed = true; break;
    case IntCC::Sge:
      Swap = false; Invert = true; Signed = true; break;
    case IntCC::Ult:
      Swap = false; Invert = false; Signed = false; break;
    case IntCC::Ugt:
      Swap = true; Invert = false; Signed = false; break;
    case IntCC::Ule:
      Swap = true; Invert = true; Signed = false; break;
    default:
      Swap = false; Invert = true; Signed = false; break;
    }
    VReg XLo = Swap ? lo(I.B) : lo(I.A), XHi = Swap ? hi(I.B) : hi(I.A);
    VReg YLo = Swap ? lo(I.A) : lo(I.B), YHi = Swap ? hi(I.A) : hi(I.B);
    VReg T = VC.newVReg(RegClass::Int);
    movRR(T, XHi);
    MInst C = make(MOp::CmpRR);
    C.W = Width::W64;
    C.Src1 = XLo;
    C.Src2 = YLo;
    push(C);
    aluRR(AluOp::Sbb, Width::W64, T, YHi);
    setcc(Signed ? Cond::L : Cond::B, Dst);
    if (Invert)
      aluRI(AluOp::Xor, Width::W32, Dst, 1);
  }

  /// Emits ucomisd + setcc combination; returns through \p Dst.
  void lowerFcmp(const CInst &I, VReg Dst, FloatCC CC) {
    auto Ucomi = [&](CValue A, CValue B) {
      MInst U = make(MOp::Ucomisd);
      U.Src1 = lo(A);
      U.Src2 = lo(B);
      push(U);
    };
    switch (CC) {
    case FloatCC::Eq: {
      Ucomi(I.A, I.B);
      VReg T = VC.newVReg(RegClass::Int);
      MInst S1 = make(MOp::SetccR);
      S1.CC = Cond::E;
      S1.Dst = Dst;
      push(S1);
      MInst S2 = make(MOp::SetccR);
      S2.CC = Cond::NP;
      S2.Dst = T;
      push(S2);
      aluRR(AluOp::And, Width::W8, Dst, T);
      MInst Z = make(MOp::MovzxRR);
      Z.Aux = static_cast<uint8_t>(Width::W8);
      Z.Dst = Dst;
      Z.Src1 = Dst;
      push(Z);
      return;
    }
    case FloatCC::Ne: {
      Ucomi(I.A, I.B);
      VReg T = VC.newVReg(RegClass::Int);
      MInst S1 = make(MOp::SetccR);
      S1.CC = Cond::NE;
      S1.Dst = Dst;
      push(S1);
      MInst S2 = make(MOp::SetccR);
      S2.CC = Cond::P;
      S2.Dst = T;
      push(S2);
      aluRR(AluOp::Or, Width::W8, Dst, T);
      MInst Z = make(MOp::MovzxRR);
      Z.Aux = static_cast<uint8_t>(Width::W8);
      Z.Dst = Dst;
      Z.Src1 = Dst;
      push(Z);
      return;
    }
    case FloatCC::Gt:
      Ucomi(I.A, I.B);
      setcc(Cond::A, Dst);
      return;
    case FloatCC::Ge:
      Ucomi(I.A, I.B);
      setcc(Cond::AE, Dst);
      return;
    case FloatCC::Lt:
      Ucomi(I.B, I.A);
      setcc(Cond::A, Dst);
      return;
    case FloatCC::Le:
      Ucomi(I.B, I.A);
      setcc(Cond::AE, Dst);
      return;
    }
    QCF_UNREACHABLE("invalid FloatCC");
  }

  void lowerCall(CInstId Id, const CInst &I, CValue Res) {
    const CSig &Sig = CF.Sigs[I.C];
    unsigned Slot = 0;
    for (uint32_t K = 0; K != I.B; ++K) {
      CValue Arg = CF.ValuePool[I.A + K];
      assert(CF.valueType(Arg) != CType::F64 &&
             "runtime ABI takes integer-class arguments only");
      movRR(physGp(x64::GpArgRegs[Slot++]), lo(Arg));
      if (CF.valueType(Arg) == CType::I128)
        movRR(physGp(x64::GpArgRegs[Slot++]), hi(Arg));
    }
    assert(Slot == Sig.NumArgSlots && "argument slot mismatch");
    MInst C = make(MOp::CallAbs);
    C.Imm = static_cast<int64_t>(I.Imm);
    C.Aux = Sig.NumArgSlots;
    push(C);
    if (Res != C_INVALID) {
      movRR(lo(Res), physGp(x64::Reg::RAX));
      if (CF.valueType(Res) == CType::I128)
        movRR(hi(Res), physGp(x64::Reg::RDX));
    }
  }

  void lowerBrif(const CInst &I, CBlock B) {
    const CEdge &TrueE = CF.Edges[I.B];
    const CEdge &FalseE = CF.Edges[I.C];

    // Fuse a single-use comparison into the branch.
    Cond CC = Cond::NE;
    CInstId CmpDef = matchCmp(I.A, B);
    if (CmpDef != C_INVALID) {
      const CInst &CmpI = CF.Insts[CmpDef];
      bool CanFuse = false;
      if (CmpI.Op == COp::IcmpOp && CF.valueType(CmpI.A) != CType::I128) {
        emitCmpOperands(CmpI, B, widthFor(CF.valueType(CmpI.A)));
        CC = condForIntCC(static_cast<IntCC>(CmpI.Flags));
        CanFuse = true;
      }
      if (CanFuse) {
        Matched[CmpDef] = true;
        ++Stats.FusedCmpBranches;
      } else {
        MInst T = make(MOp::TestRR);
        T.Src1 = lo(I.A);
        T.Src2 = lo(I.A);
        push(T);
      }
    } else {
      MInst T = make(MOp::TestRR);
      T.Src1 = lo(I.A);
      T.Src2 = lo(I.A);
      push(T);
    }

    // A true edge with arguments branches to a stub block carrying its
    // moves; the false edge's moves run inline on the fall-through path.
    MInst JT = make(MOp::Jcc);
    JT.CC = CC;
    if (TrueE.ArgCount) {
      PendingStub S;
      S.Target = TrueE.Target;
      emitEdgeMoves(TrueE.Target, TrueE.ArgOff, TrueE.ArgCount, &S.Insts);
      MInst J = make(MOp::Jmp);
      J.Target = TrueE.Target;
      S.Insts.push_back(J);
      JT.Target = StubMark | static_cast<uint32_t>(Stubs.size());
      Stubs.push_back(std::move(S));
    } else {
      JT.Target = TrueE.Target;
    }
    push(JT);

    if (FalseE.ArgCount) {
      std::vector<MInst> Moves;
      emitEdgeMoves(FalseE.Target, FalseE.ArgOff, FalseE.ArgCount, &Moves);
      for (const MInst &M : Moves)
        push(M);
    }
    MInst JF = make(MOp::Jmp);
    JF.Target = FalseE.Target;
    push(JF);
  }

  /// Moves for passing block arguments, with parallel-move cycle breaking
  /// through a fresh temporary vreg.
  void emitEdgeMoves(CBlock Target, uint32_t ArgOff, uint32_t ArgCount,
                     std::vector<MInst> *Out) {
    struct Move {
      VReg Dst, Src;
      RegClass RC;
    };
    std::vector<Move> Pending;
    const auto &Params = CF.Blocks[Target].Params;
    uint32_t ArgIdx = 0;
    for (CValue P : Params) {
      assert(ArgIdx < ArgCount && "block argument count mismatch");
      CValue Arg = CF.ValuePool[ArgOff + ArgIdx++];
      assert(CF.valueType(Arg) == CF.valueType(P) &&
             "block argument type mismatch");
      RegClass RC =
          CF.valueType(P) == CType::F64 ? RegClass::Float : RegClass::Int;
      if (lo(P) != lo(Arg))
        Pending.push_back({lo(P), lo(Arg), RC});
      if (CF.valueType(P) == CType::I128 && hi(P) != hi(Arg))
        Pending.push_back({hi(P), hi(Arg), RegClass::Int});
    }

    // Parallel-move ordering.
    while (!Pending.empty()) {
      bool Emitted = false;
      for (size_t I = 0; I != Pending.size(); ++I) {
        bool DstIsRead = false;
        for (size_t J = 0; J != Pending.size(); ++J)
          if (J != I && Pending[J].Src == Pending[I].Dst)
            DstIsRead = true;
        if (!DstIsRead) {
          emitMove(Pending[I].Dst, Pending[I].Src, Pending[I].RC, Out);
          Pending.erase(Pending.begin() + I);
          Emitted = true;
          break;
        }
      }
      if (Emitted)
        continue;
      VReg Temp = VC.newVReg(Pending.front().RC);
      VReg Saved = Pending.front().Dst;
      emitMove(Temp, Saved, Pending.front().RC, Out);
      for (Move &M : Pending)
        if (M.Src == Saved)
          M.Src = Temp;
    }
  }

  void emitMove(VReg Dst, VReg Src, RegClass RC, std::vector<MInst> *Out) {
    MInst M = make(RC == RegClass::Float ? MOp::FMovRR : MOp::MovRR);
    M.Dst = Dst;
    M.Src1 = Src;
    Out->push_back(M);
  }

  struct PendingStub {
    uint32_t Target = 0;
    std::vector<MInst> Insts;
  };

  const CFunction &CF;
  VCode &VC;
  TimeTrace *Trace;
  LowerStats Stats;

  std::vector<VReg> ValLo, ValHi;
  std::vector<uint32_t> InstGroup, InstBlock;
  std::vector<uint8_t> UseCount;
  std::vector<bool> Matched;
  std::vector<MInst> Chunk;
  std::vector<PendingStub> Stubs;
};

} // namespace

LowerStats craneline::lowerFunction(const CFunction &CF, VCode *VC,
                                    TimeTrace *Trace) {
  return Lowerer(CF, *VC, Trace).run();
}
