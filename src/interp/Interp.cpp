//===- interp/Interp.cpp - QIR bytecode interpreter -----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "qir/Semantics.h"
#include <alloca.h>
#include <cstring>

using namespace qcf;
using namespace qcf::interp;
using qir::Opcode;
using qir::Type;

namespace {

[[noreturn]] void trap(rt::TrapCode Code) {
  rt_trap(static_cast<uint64_t>(Code));
}

struct PairRet {
  uint64_t Lo, Hi;
};

} // namespace

// --- Translation ---------------------------------------------------------------

InterpFunction::InterpFunction(const qir::Function &F) { translate(F); }

uint32_t InterpFunction::buildEdgeMoves(const qir::Function &F,
                                        qir::BlockId From, qir::BlockId To) {
  // Collect the phi moves for this edge.
  std::vector<Move> Pending;
  const qir::Block &Blk = F.block(To);
  for (uint32_t I = Blk.Begin; I != Blk.End; ++I) {
    const qir::Inst &Ins = F.Insts[I];
    if (Ins.Op != Opcode::Phi)
      break;
    for (unsigned K = 0, E = F.numPhiIncomings(Ins); K != E; ++K) {
      const qir::PhiIn &In = F.phiIncomings(Ins)[K];
      if (In.Pred == From && In.Val != I)
        Pending.push_back({I, In.Val});
    }
  }

  // Order the parallel moves; break cycles through the temp register.
  uint32_t Off = static_cast<uint32_t>(Moves.size());
  uint32_t TempReg = F.numInsts(); // One extra slot reserved in run().
  while (!Pending.empty()) {
    bool Emitted = false;
    for (size_t I = 0; I != Pending.size(); ++I) {
      bool DstIsRead = false;
      for (size_t J = 0; J != Pending.size(); ++J)
        if (J != I && Pending[J].Src == Pending[I].Dst)
          DstIsRead = true;
      if (!DstIsRead) {
        Moves.push_back(Pending[I]);
        Pending.erase(Pending.begin() + I);
        Emitted = true;
        break;
      }
    }
    if (Emitted)
      continue;
    // Every destination is still read: a cycle. Save one destination to
    // the temp register and redirect its readers.
    uint32_t Saved = Pending.front().Dst;
    Moves.push_back({TempReg, Saved});
    for (Move &M : Pending)
      if (M.Src == Saved)
        M.Src = TempReg;
  }
  return Off;
}

void InterpFunction::translate(const qir::Function &F) {
  NumRegs = F.numInsts() + 1; // +1 cycle-break temp.
  NumParams = F.numParams();
  ArgRegs.reserve(NumParams + F.CallArgs.size());
  for (unsigned P = 0; P != NumParams; ++P) {
    uint8_t Lanes = qir::isTwoLane(F.paramTypes()[P]) ? 2 : 1;
    ArgRegs.push_back({P, Lanes});
    NumParamLanes += Lanes;
  }

  BlockPc.resize(F.numBlocks());
  uint64_t FrameBytes = 0;

  // First pass: lay out non-phi/param instructions and record block PCs.
  // Branch edge structures are filled in a second pass once all PCs are
  // known.
  struct PendingEdge {
    uint32_t CodeIdx;
    unsigned Slot; // 0 = A-edge, 1 = B-edge.
    qir::BlockId From, To;
  };
  std::vector<PendingEdge> PendingEdges;

  for (qir::BlockId B = 0; B != F.numBlocks(); ++B) {
    BlockPc[B] = static_cast<uint32_t>(Code.size());
    const qir::Block &Blk = F.block(B);
    for (uint32_t I = Blk.Begin; I != Blk.End; ++I) {
      const qir::Inst &Ins = F.Insts[I];
      if (Ins.Op == Opcode::Param || Ins.Op == Opcode::Phi)
        continue;

      TInst T{};
      T.Op = Ins.Op;
      T.Ty = Ins.Ty;
      T.Flags = Ins.Flags;
      // The evaluations that read operand A's type.
      if (Ins.Op == Opcode::ICmp || Ins.Op == Opcode::SExt ||
          Ins.Op == Opcode::SIToFP)
        T.SrcTy = F.valueType(Ins.A);
      T.Dst = I;
      T.A = Ins.A;
      T.B = Ins.B;
      T.C = Ins.C;
      T.Imm = Ins.Imm;

      switch (Ins.Op) {
      case Opcode::ConstI128: {
        // The constant moves into the instruction (Imm = low half, B:C =
        // high half), so run() never reads the function's pool.
        qir::Lanes V = qir::fromI128(F.I128Pool[Ins.A]);
        T.Imm = V.Lo;
        T.B = static_cast<uint32_t>(V.Hi);
        T.C = static_cast<uint32_t>(V.Hi >> 32);
        break;
      }
      case Opcode::StackSlot: {
        FrameBytes = (FrameBytes + 15) & ~uint64_t(15);
        T.Imm = FrameBytes; // Offset within the frame.
        FrameBytes += Ins.Imm;
        break;
      }
      case Opcode::Call: {
        const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(Ins));
        assert(Sig.Address && "runtime symbol has no address bound");
        CallDesc D{};
        D.Addr = Sig.Address;
        D.ArgOff = static_cast<uint32_t>(ArgRegs.size());
        D.NumArgs = F.numCallArgs(Ins);
        unsigned Slots = 0;
        for (unsigned K = 0; K != D.NumArgs; ++K) {
          qir::ValueId Arg = F.callArgs(Ins)[K];
          uint8_t Lanes = qir::isTwoLane(F.valueType(Arg)) ? 2 : 1;
          ArgRegs.push_back({Arg, Lanes});
          Slots += Lanes;
        }
        assert(Slots <= 6 && "runtime call exceeds 6 argument slots");
        D.NumSlots = static_cast<uint8_t>(Slots);
        D.RetKind = Sig.RetType == Type::Void ? 0
                    : qir::isTwoLane(Sig.RetType) ? 2
                                                  : 1;
        T.A = static_cast<uint32_t>(Calls.size());
        Calls.push_back(D);
        break;
      }
      case Opcode::Br:
        PendingEdges.push_back(
            {static_cast<uint32_t>(Code.size()), 0, B, Ins.A});
        break;
      case Opcode::CondBr:
        PendingEdges.push_back(
            {static_cast<uint32_t>(Code.size()), 0, B, Ins.B});
        PendingEdges.push_back(
            {static_cast<uint32_t>(Code.size()), 1, B, Ins.C});
        break;
      default:
        break;
      }
      Code.push_back(T);
    }
  }

  // Second pass: build edges (phi moves + target PCs).
  for (const PendingEdge &PE : PendingEdges) {
    Edge E{};
    E.TargetPc = BlockPc[PE.To];
    E.MoveOff = buildEdgeMoves(F, PE.From, PE.To);
    E.MoveCount = static_cast<uint32_t>(Moves.size()) - E.MoveOff;
    uint32_t EdgeId = static_cast<uint32_t>(Edges.size());
    Edges.push_back(E);
    TInst &T = Code[PE.CodeIdx];
    if (T.Op == Opcode::Br)
      T.A = EdgeId;
    else if (PE.Slot == 0)
      T.B = EdgeId;
    else
      T.C = EdgeId;
  }

  FrameSize = FrameBytes;
}

void InterpFunction::applyEdge(const Edge &E, Slot *Regs) const {
  for (uint32_t I = 0; I != E.MoveCount; ++I) {
    const Move &M = Moves[E.MoveOff + I];
    Regs[M.Dst] = Regs[M.Src];
  }
}

// --- Execution ------------------------------------------------------------------

namespace {

uint64_t dispatchCall(void *Addr, const uint64_t *S, unsigned N,
                      uint8_t RetKind, uint64_t *HiOut) {
  using U = uint64_t;
  if (RetKind == 2) {
    PairRet R{};
    switch (N) {
    case 1:
      R = reinterpret_cast<PairRet (*)(U)>(Addr)(S[0]);
      break;
    case 2:
      R = reinterpret_cast<PairRet (*)(U, U)>(Addr)(S[0], S[1]);
      break;
    case 3:
      R = reinterpret_cast<PairRet (*)(U, U, U)>(Addr)(S[0], S[1], S[2]);
      break;
    case 4:
      R = reinterpret_cast<PairRet (*)(U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                          S[3]);
      break;
    case 5:
      R = reinterpret_cast<PairRet (*)(U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                             S[3], S[4]);
      break;
    case 6:
      R = reinterpret_cast<PairRet (*)(U, U, U, U, U, U)>(Addr)(
          S[0], S[1], S[2], S[3], S[4], S[5]);
      break;
    default:
      QCF_UNREACHABLE("unsupported pair-returning call arity");
    }
    *HiOut = R.Hi;
    return R.Lo;
  }
  switch (N) {
  case 0:
    return reinterpret_cast<U (*)()>(Addr)();
  case 1:
    return reinterpret_cast<U (*)(U)>(Addr)(S[0]);
  case 2:
    return reinterpret_cast<U (*)(U, U)>(Addr)(S[0], S[1]);
  case 3:
    return reinterpret_cast<U (*)(U, U, U)>(Addr)(S[0], S[1], S[2]);
  case 4:
    return reinterpret_cast<U (*)(U, U, U, U)>(Addr)(S[0], S[1], S[2], S[3]);
  case 5:
    return reinterpret_cast<U (*)(U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                        S[3], S[4]);
  case 6:
    return reinterpret_cast<U (*)(U, U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                           S[3], S[4], S[5]);
  default:
    QCF_UNREACHABLE("unsupported call arity");
  }
}

} // namespace

Slot InterpFunction::run(const uint64_t *ArgLanes, unsigned NumLanes) const {
  assert(NumLanes == NumParamLanes && "argument lane count mismatch");
  (void)NumLanes;

  // Register file. Stack-allocate the common case; the fallback heap
  // allocation may leak on a trap longjmp, which is acceptable for the
  // error path of a query.
  Slot *Regs;
  std::unique_ptr<Slot[]> RegsHeap;
  if (NumRegs <= 8192) {
    Regs = static_cast<Slot *>(alloca(NumRegs * sizeof(Slot)));
    std::memset(static_cast<void *>(Regs), 0, NumRegs * sizeof(Slot));
  } else {
    RegsHeap = std::make_unique<Slot[]>(NumRegs);
    Regs = RegsHeap.get();
  }

  uint8_t *Frame = nullptr;
  if (FrameSize)
    Frame = static_cast<uint8_t *>(alloca(FrameSize));

  // Bind parameters.
  {
    unsigned Lane = 0;
    for (unsigned P = 0; P != NumParams; ++P) {
      Slot &S = Regs[ArgRegs[P].Reg];
      S.Lo = ArgLanes[Lane++];
      if (ArgRegs[P].Lanes == 2)
        S.Hi = ArgLanes[Lane++];
    }
  }

  uint64_t CallSlots[6];
  const TInst *CodePtr = Code.data();
  uint32_t Pc = BlockPc[0];

  for (;;) {
    const TInst &I = CodePtr[Pc];
    switch (I.Op) {
    case Opcode::ConstInt:
      Regs[I.Dst].Lo = I.Imm & qir::typeMask(I.Ty);
      break;
    case Opcode::ConstI128:
      Regs[I.Dst] = {I.Imm, I.B | static_cast<uint64_t>(I.C) << 32};
      break;
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
      Regs[I.Dst].Lo = I.Imm;
      break;
    case Opcode::StackSlot:
      Regs[I.Dst].Lo = reinterpret_cast<uint64_t>(Frame + I.Imm);
      break;

    // Every scalar opcode evaluates through qir/Semantics.h; each case
    // instantiates the entry for its constant opcode.
#define QCF_BINARY_CASE(OP)                                                   \
  case Opcode::OP:                                                            \
    if (rt::TrapCode TC = qir::evalBinary<Opcode::OP>(I.Ty, Regs[I.A],        \
                                                      Regs[I.B], Regs[I.Dst]); \
        QCF_UNLIKELY(TC != rt::TrapCode::None))                               \
      trap(TC);                                                               \
    break;
    QIR_SCALAR_BINARY_OPS(QCF_BINARY_CASE)
#undef QCF_BINARY_CASE
#define QCF_UNARY_CASE(OP)                                                    \
  case Opcode::OP:                                                            \
    Regs[I.Dst] = qir::evalUnary<Opcode::OP>(I.Ty, I.SrcTy, Regs[I.A]);       \
    break;
    QIR_SCALAR_UNARY_OPS(QCF_UNARY_CASE)
#undef QCF_UNARY_CASE
    case Opcode::ICmp:
      Regs[I.Dst] = {qir::icmp(I.cmpPred(), I.SrcTy, Regs[I.A], Regs[I.B]), 0};
      break;
    case Opcode::FCmp:
      Regs[I.Dst] = {qir::fcmp(I.cmpPred(), qir::toF64(Regs[I.A]),
                               qir::toF64(Regs[I.B])),
                     0};
      break;
    case Opcode::Select:
      Regs[I.Dst] = Regs[I.A].Lo & 1 ? Regs[I.B] : Regs[I.C];
      break;

    case Opcode::Load: {
      const void *P = reinterpret_cast<const void *>(Regs[I.A].Lo);
      Slot &D = Regs[I.Dst];
      D.Lo = D.Hi = 0;
      std::memcpy(&D, P, qir::typeSize(I.Ty));
      break;
    }
    case Opcode::Store: {
      void *P = reinterpret_cast<void *>(Regs[I.A].Lo);
      std::memcpy(P, &Regs[I.B], qir::typeSize(I.Ty));
      break;
    }
    case Opcode::Gep: {
      uint64_t Addr = Regs[I.A].Lo + I.Imm;
      if (I.B != qir::INVALID_VALUE)
        Addr += Regs[I.B].Lo * I.C;
      Regs[I.Dst].Lo = Addr;
      break;
    }
    case Opcode::AtomicAdd: {
      if (I.Ty == Type::I32) {
        auto *P = reinterpret_cast<uint32_t *>(Regs[I.A].Lo);
        Regs[I.Dst].Lo = __atomic_fetch_add(
            P, static_cast<uint32_t>(Regs[I.B].Lo), __ATOMIC_SEQ_CST);
      } else {
        auto *P = reinterpret_cast<uint64_t *>(Regs[I.A].Lo);
        Regs[I.Dst].Lo =
            __atomic_fetch_add(P, Regs[I.B].Lo, __ATOMIC_SEQ_CST);
      }
      break;
    }

    case Opcode::Call: {
      const CallDesc &D = Calls[I.A];
      unsigned SlotIdx = 0;
      for (uint32_t K = 0; K != D.NumArgs; ++K) {
        const ArgRef &AR = ArgRegs[D.ArgOff + K];
        CallSlots[SlotIdx++] = Regs[AR.Reg].Lo;
        if (AR.Lanes == 2)
          CallSlots[SlotIdx++] = Regs[AR.Reg].Hi;
      }
      uint64_t Hi = 0;
      uint64_t Lo = dispatchCall(D.Addr, CallSlots, D.NumSlots, D.RetKind, &Hi);
      if (D.RetKind != 0) {
        Regs[I.Dst].Lo = Lo;
        Regs[I.Dst].Hi = Hi;
      }
      break;
    }

    case Opcode::Br: {
      const Edge &E = Edges[I.A];
      applyEdge(E, Regs);
      Pc = E.TargetPc;
      continue;
    }
    case Opcode::CondBr: {
      const Edge &E = Edges[Regs[I.A].Lo & 1 ? I.B : I.C];
      applyEdge(E, Regs);
      Pc = E.TargetPc;
      continue;
    }
    case Opcode::Ret: {
      if (I.A == qir::INVALID_VALUE)
        return Slot{};
      return Regs[I.A];
    }
    case Opcode::Unreachable:
      reportFatalError("interpreted code reached 'unreachable'");

    case Opcode::Param:
    case Opcode::Phi:
      QCF_UNREACHABLE("params and phis are not materialized in bytecode");
    }
    ++Pc;
  }
}

// --- Module wrapper --------------------------------------------------------------

namespace {

uint64_t interpThunkHandler(void *Ctx, uint64_t A0, uint64_t A1, uint64_t A2,
                            uint64_t A3, uint64_t A4) {
  const auto *Fn = static_cast<const InterpFunction *>(Ctx);
  uint64_t Lanes[5] = {A0, A1, A2, A3, A4};
  assert(Fn->numParamLanes() <= 5 &&
         "thunk entry supports at most 5 parameter lanes");
  Slot R = Fn->run(Lanes, Fn->numParamLanes());
  return R.Lo;
}

} // namespace

InterpretedModule::InterpretedModule(const qir::Module &M) {
  for (const auto &F : M.functions())
    Fns.emplace_back(F->name(), std::make_unique<InterpFunction>(*F));
  for (auto &[Name, Fn] : Fns)
    Entries.emplace_back(Name,
                         Thunks.createThunk(&interpThunkHandler, Fn.get()));
}

void *InterpretedModule::entry(const std::string &Name) {
  for (auto &[N, E] : Entries)
    if (N == Name)
      return E;
  return nullptr;
}

const InterpFunction *
InterpretedModule::function(const std::string &Name) const {
  for (const auto &[N, F] : Fns)
    if (N == Name)
      return F.get();
  return nullptr;
}

std::unique_ptr<backend::CompiledModule>
InterpBackend::compile(const qir::Module &M,
                       const backend::CompileOptions &Opts) {
  obs::CompileObs Obs(Opts.Obs, name());
  TimeTraceScope Scope(Obs.trace(), "interp.translate");
  return std::make_unique<InterpretedModule>(M);
}
