//===- tv/QirStep.cpp - QIR reference stepper ------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QIR side of the co-simulation: a reference stepper that evaluates
/// every scalar opcode through qir/Semantics.h — the definition the
/// interpreter evaluates by, so masking at every narrow width, the exact
/// trap conditions, i1 comparison as unsigned 0/1 and cvttsd2si saturation
/// are the interpreter's by construction — but runs against the synthetic
/// memory model of tv/Sim.h instead of real memory, and maintains a
/// symbolic term next to every concrete lane for counterexample reports.
/// The machine side (MachStep.cpp) models x86 independently, so tv stays
/// an oracle for the back-ends rather than a copy of them.
///
//===----------------------------------------------------------------------===//

#include "qir/Semantics.h"
#include "tv/Sim.h"
#include <cstdio>

using namespace qcf;
using namespace qcf::tv;
using qir::Opcode;
using qir::Type;

namespace {

struct Val {
  uint64_t Lo = 0, Hi = 0;
  TermRef LoT = NO_TERM, HiT = NO_TERM;
};

/// Width of the term recording a lane of a value of type \p Ty: the
/// integer width, else the whole 64-bit lane (i128 arithmetic itself
/// records no terms).
unsigned termBits(Type Ty) {
  return qir::isIntType(Ty) && Ty != Type::I128 ? qir::intBits(Ty) : 64;
}

} // namespace

SlotLayout tv::computeSlotLayout(const qir::Function &F) {
  SlotLayout L;
  uint64_t Off = 0;
  for (uint32_t I = 0; I != F.numInsts(); ++I) {
    const qir::Inst &In = F.Insts[I];
    if (In.Op != Opcode::StackSlot)
      continue;
    uint64_t Size = In.Imm ? In.Imm : 1;
    Off = (Off + 15) & ~15ull;
    L.SlotAddr[I] = SlotSpaceBase + Off;
    L.SlotSize[I] = static_cast<uint32_t>(Size);
    L.MaxSnap = std::min(std::max(L.MaxSnap, static_cast<size_t>(Size)),
                         MaxSnapBytes);
    Off += Size;
  }
  L.Span = (Off + 15) & ~15ull;
  return L;
}

Trace tv::runQirRound(const qir::Function &F, const qir::Module &M,
                      const SlotLayout &Slots, const RoundCtx &RC,
                      const std::vector<uint64_t> &ArgLanes,
                      const std::vector<TermRef> &ArgTerms, TermArena &TA) {
  Trace TR;
  if (F.numBlocks() == 0 || F.block(0).empty()) {
    TR.Skip = true;
    TR.Error = "empty function";
    return TR;
  }

  std::vector<Val> Regs(F.numInsts());
  unsigned Lane = 0;
  for (unsigned P = 0; P != F.numParams(); ++P) {
    Val &S = Regs[F.paramValue(P)];
    S.Lo = ArgLanes[Lane];
    S.LoT = ArgTerms[Lane];
    ++Lane;
    if (qir::isTwoLane(F.paramTypes()[P])) {
      S.Hi = ArgLanes[Lane];
      S.HiT = ArgTerms[Lane];
      ++Lane;
    }
  }

  MemModel Mem;
  Mem.OracleSeed = RC.OracleSeed;
  Mem.PrivLo = SlotSpaceBase;
  Mem.PrivHi = SlotSpaceBase + std::max<uint64_t>(Slots.Span, 16);
  StoreTerms ST;

  qir::BlockId Cur = 0;
  uint32_t Idx = F.block(0).Begin;
  uint64_t Fuel = 100000;
  unsigned EvCall = 0;

  auto where = [&](uint32_t I) {
    char B[48];
    std::snprintf(B, sizeof(B), "block %u inst %u", Cur, I);
    return std::string(B);
  };

  auto emitTrap = [&](int Code, uint32_t I) {
    Event E;
    E.K = Event::Trap;
    E.TrapCode = Code;
    E.Digest = Mem.globalDigest();
    E.Where = where(I);
    TR.Events.push_back(std::move(E));
  };

  auto jumpTo = [&](qir::BlockId To) {
    const qir::Block &B = F.block(To);
    // Phi incomings are a parallel move: read all sources against the
    // pre-jump register state, then commit.
    std::vector<std::pair<uint32_t, Val>> Upd;
    for (uint32_t J = B.Begin; J != B.End; ++J) {
      const qir::Inst &Ph = F.Insts[J];
      if (Ph.Op != Opcode::Phi)
        continue;
      const qir::PhiIn *Ins = F.phiIncomings(Ph);
      for (unsigned K = 0; K != F.numPhiIncomings(Ph); ++K)
        if (Ins[K].Pred == Cur) {
          Upd.emplace_back(J, Regs[Ins[K].Val]);
          break;
        }
    }
    for (auto &[V, S] : Upd)
      Regs[V] = S;
    Cur = To;
    Idx = B.Begin;
  };

  auto loadTerm = [&](uint64_t Addr, unsigned Sz) -> TermRef {
    TermRef T = ST.load(Addr, Sz);
    if (T != NO_TERM)
      return T;
    if (!Mem.isPriv(Addr) && Mem.globalClean(Addr, Sz))
      return TA.oracleLoad(Addr, Sz * 8);
    return NO_TERM;
  };

  while (true) {
    if (Fuel-- == 0 || TR.Events.size() >= MaxEvents) {
      TR.Bounded = true;
      return TR;
    }
    const qir::Inst &I = F.Insts[Idx];
    Val &D = Regs[Idx];
    unsigned W = termBits(I.Ty);
    const Val &A = I.A < Regs.size() ? Regs[I.A] : Regs[0];
    const Val &B = I.B < Regs.size() ? Regs[I.B] : Regs[0];

    switch (I.Op) {
    case Opcode::Param:
    case Opcode::Phi:
      break; // Pre-assigned / applied on edges.

    case Opcode::ConstInt:
      D.Lo = I.Imm & qir::typeMask(I.Ty);
      D.Hi = 0;
      D.LoT = TA.constant(D.Lo, W);
      break;
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
      D.Lo = I.Imm;
      D.Hi = 0;
      D.LoT = TA.constant(D.Lo, 64);
      break;
    case Opcode::ConstI128: {
      Int128 V = F.i128Constant(I);
      D.Lo = lo64(V);
      D.Hi = hi64(V);
      break;
    }
    case Opcode::StackSlot: {
      auto It = Slots.SlotAddr.find(Idx);
      D.Lo = It != Slots.SlotAddr.end() ? It->second : SlotSpaceBase;
      D.Hi = 0;
      D.LoT = TA.constant(D.Lo, 64);
      break;
    }

    case Opcode::Select: {
      const Val &C = Regs[I.C];
      const Val &Src = (A.Lo & 1) ? B : C;
      D.Lo = Src.Lo;
      D.Hi = Src.Hi;
      D.LoT = TA.select(A.LoT, B.LoT, C.LoT, W);
      D.HiT = Src.HiT;
      break;
    }

    case Opcode::Load: {
      uint64_t Addr = A.Lo;
      unsigned Sz = qir::typeSize(I.Ty);
      if (Sz == 16) {
        D.Lo = Mem.load(Addr, 8);
        D.Hi = Mem.load(Addr + 8, 8);
        D.LoT = loadTerm(Addr, 8);
        D.HiT = loadTerm(Addr + 8, 8);
      } else {
        D.Lo = Mem.load(Addr, Sz);
        D.Hi = 0;
        D.LoT = loadTerm(Addr, Sz);
      }
      break;
    }
    case Opcode::Store: {
      uint64_t Addr = A.Lo;
      unsigned Sz = qir::typeSize(I.Ty);
      if (Sz == 16) {
        Mem.store(Addr, B.Lo, 8);
        Mem.store(Addr + 8, B.Hi, 8);
        ST.store(Addr, 8, B.LoT);
        ST.store(Addr + 8, 8, B.HiT);
      } else {
        Mem.store(Addr, B.Lo, Sz);
        ST.store(Addr, Sz, B.LoT);
      }
      break;
    }
    case Opcode::Gep: {
      uint64_t Addr = A.Lo + I.Imm;
      TermRef T = A.LoT;
      if (I.Imm)
        T = TA.binary(TermOp::Add, T, TA.constant(I.Imm, 64), 64);
      if (I.B != qir::INVALID_VALUE) {
        Addr += B.Lo * I.C;
        TermRef IxT =
            TA.binary(TermOp::Mul, B.LoT, TA.constant(I.C, 64), 64);
        T = TA.binary(TermOp::Add, T, IxT, 64);
      }
      D.Lo = Addr;
      D.Hi = 0;
      D.LoT = T;
      break;
    }
    case Opcode::AtomicAdd: {
      uint64_t Addr = A.Lo;
      unsigned Sz = I.Ty == Type::I32 ? 4 : 8;
      uint64_t Old = Mem.load(Addr, Sz);
      Mem.store(Addr, (Old + B.Lo) & qir::typeMask(I.Ty), Sz);
      ST.store(Addr, Sz, NO_TERM);
      D.Lo = Old;
      D.Hi = 0;
      D.LoT = NO_TERM;
      break;
    }

    case Opcode::Call: {
      const qir::RuntimeSig &Sig = M.symbol(F.callee(I));
      uint64_t SV[6] = {};
      TermRef STm[6] = {NO_TERM, NO_TERM, NO_TERM, NO_TERM, NO_TERM, NO_TERM};
      uint8_t SB[6] = {64, 64, 64, 64, 64, 64};
      unsigned NS = 0;
      const qir::ValueId *CA = F.callArgs(I);
      bool TooMany = false;
      for (unsigned K = 0; K != F.numCallArgs(I) && !TooMany; ++K) {
        const Val &S = Regs[CA[K]];
        Type Ty = F.valueType(CA[K]);
        if (NS >= 6) {
          TooMany = true;
          break;
        }
        SV[NS] = S.Lo;
        STm[NS] = S.LoT;
        SB[NS] = static_cast<uint8_t>(termBits(Ty));
        ++NS;
        if (qir::isTwoLane(Ty)) {
          if (NS >= 6) {
            TooMany = true;
            break;
          }
          SV[NS] = S.Hi;
          STm[NS] = S.HiT;
          SB[NS] = 64;
          ++NS;
        }
      }
      if (TooMany) {
        TR.Skip = true;
        TR.Error = "call with more than 6 argument slots";
        return TR;
      }

      if (Sig.Name == "rt_trap") {
        emitTrap(static_cast<int>(SV[0]), Idx);
        return TR;
      }

      uint64_t Lo, Hi;
      int TC;
      if (stepIntrinsic(Sig.Name, SV, Lo, Hi, TC)) {
        if (TC != static_cast<int>(rt::TrapCode::None)) {
          emitTrap(TC, Idx);
          return TR;
        }
        if (Sig.RetType != Type::Void) {
          D.Lo = Lo & qir::typeMask(Sig.RetType);
          D.Hi = qir::isTwoLane(Sig.RetType) ? Hi : 0;
          D.LoT = intrinsicResultTerm(TA, Sig.Name, STm);
          D.HiT = NO_TERM;
        }
        break;
      }

      Event E;
      E.K = Event::Call;
      E.Sym = Sig.Name;
      E.NumArgs = NS;
      E.Digest = Mem.globalDigest();
      E.Where = where(Idx);
      for (unsigned K = 0; K != NS; ++K) {
        E.Args[K] = SV[K];
        E.ArgT[K] = STm[K];
        E.ArgBits[K] = SB[K];
        if (Mem.isPriv(SV[K])) {
          size_t Len = std::min<uint64_t>(Slots.MaxSnap, Mem.PrivHi - SV[K]);
          for (const auto &[SlotV, Addr] : Slots.SlotAddr) {
            uint32_t Size = Slots.SlotSize.at(SlotV);
            if (SV[K] >= Addr && SV[K] < Addr + Size) {
              Len = Addr + Size - SV[K];
              break;
            }
          }
          E.Snap[K] = Mem.snapshot(SV[K], Len);
        }
      }
      TR.Events.push_back(std::move(E));

      if (Sig.RetType != Type::Void) {
        D.Lo = RC.callRet(EvCall, 0) & qir::typeMask(Sig.RetType);
        D.LoT = TA.callRet(EvCall, 0);
        if (qir::isTwoLane(Sig.RetType)) {
          D.Hi = RC.callRet(EvCall, 1);
          D.HiT = TA.callRet(EvCall, 1);
        }
      }
      ++EvCall;
      break;
    }

    case Opcode::Br:
      jumpTo(I.A);
      continue;
    case Opcode::CondBr:
      jumpTo((Regs[I.A].Lo & 1) ? I.B : I.C);
      continue;
    case Opcode::Ret: {
      Event E;
      E.K = Event::Ret;
      E.Digest = Mem.globalDigest();
      E.Where = where(Idx);
      if (I.A != qir::INVALID_VALUE) {
        const Val &S = Regs[I.A];
        E.RetLo = S.Lo;
        E.RetHi = S.Hi;
        E.RetLoT = S.LoT;
        E.RetHiT = S.HiT;
      }
      TR.Events.push_back(std::move(E));
      return TR;
    }
    case Opcode::Unreachable: {
      Event E;
      E.K = Event::Fault;
      E.Digest = Mem.globalDigest();
      E.Where = where(Idx);
      TR.Events.push_back(std::move(E));
      return TR;
    }

    default: {
      // Every scalar opcode: qir/Semantics.h computes the value, the
      // stepper only records how (its term).
      Type SrcTy = F.valueType(I.A);
      qir::Lanes Out;
      rt::TrapCode TC = qir::evalScalar(I.Op, I.Ty, SrcTy, I.cmpPred(),
                                        {A.Lo, A.Hi}, {B.Lo, B.Hi}, Out);
      if (TC != rt::TrapCode::None) {
        emitTrap(static_cast<int>(TC), Idx);
        return TR;
      }
      D.Lo = Out.Lo;
      D.Hi = Out.Hi;
      D.LoT = D.HiT = NO_TERM;
      Type TermTy = qir::opcodeKind(I.Op) == qir::OpKind::Cmp ? SrcTy : I.Ty;
      TermOp TO;
      if (I.Op == Opcode::PackD128 || I.Op == Opcode::PackI128) {
        D.LoT = A.LoT;
        D.HiT = B.LoT;
      } else if (I.Op == Opcode::ExtractHi) {
        D.LoT = A.HiT;
      } else if (I.Op == Opcode::Bitcast || I.Op == Opcode::ExtractLo ||
                 (I.Op == Opcode::ZExt && I.Ty == Type::I128)) {
        D.LoT = A.LoT;
      } else if (TermTy != Type::I128 &&
                 termOpFor(I.Op, I.cmpPred(), TO)) {
        D.LoT = qir::numValueOperands(I.Op) == 1
                    ? TA.unary(TO, A.LoT, termBits(TermTy))
                    : TA.binary(TO, A.LoT, B.LoT, termBits(TermTy));
      }
      break;
    }
    }
    ++Idx;
  }
}
