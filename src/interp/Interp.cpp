//===- interp/Interp.cpp - QIR bytecode interpreter -----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "qir/Semantics.h"
#include "x64/CallbackThunk.h"
#include <alloca.h>
#include <cstring>

using namespace qcf;
using namespace qcf::interp;
using qir::CmpPred;
using qir::Opcode;
using qir::Type;
using qir::ValueId;

namespace {

/// A 16-byte register: one value in the canonical two-lane form of
/// qir/Semantics.h.
using Slot = qir::Lanes;

// The bytecode opcodes. Every scalar QIR opcode has a generic handler that
// reads its type from the instruction; the hot (opcode, type) and (icmp
// predicate, operand type) pairs also get one with the type or predicate
// constant. Each icmp handler is followed by its fused compare-and-branch.
#define INTERP_FIXED_OPS(X)                                                   \
  X(StackSlot) X(Load1) X(Load2) X(Load4) X(Load8) X(Load16) X(Store1)        \
  X(Store2) X(Store4) X(Store8) X(Store16) X(Gep) X(GepIdx) X(AtomicAdd32)    \
  X(AtomicAdd64) X(Select) X(FCmp) X(Call) X(Br) X(CondBr) X(Ret) X(RetVoid)  \
  X(Unreachable) X(ICmp) X(ICmpBr)
#define INTERP_HOT_BINARY(X)                                                  \
  X(Add, I64) X(Add, I32) X(Sub, I64) X(Mul, I64) X(And, I64) X(And, I1)      \
  X(Or, I1) X(SAddTrap, I64) X(SSubTrap, I64) X(SMulTrap, I64)                \
  X(SAddTrap, I128) X(SSubTrap, I128) X(SMulTrap, I128)
#define INTERP_HOT_ICMP(X)                                                    \
  X(Eq, I64) X(Ne, I64) X(SLt, I64) X(SLe, I64) X(SGt, I64) X(SGe, I64)       \
  X(ULt, I64) X(Eq, Ptr) X(Ne, Ptr) X(SLt, I128) X(SLe, I128) X(SGt, I128)    \
  X(SGe, I128)
#define INTERP_BYTECODE(OP, HOT_BINARY, HOT_ICMP)                             \
  INTERP_FIXED_OPS(OP) QIR_SCALAR_BINARY_OPS(OP) QIR_SCALAR_UNARY_OPS(OP)     \
  INTERP_HOT_BINARY(HOT_BINARY) INTERP_HOT_ICMP(HOT_ICMP)

enum class BOp : uint16_t {
#define QCF_OP(N) N,
#define QCF_HOT_BINARY(OP, TY) OP##_##TY,
#define QCF_HOT_ICMP(P, TY) ICmp_##P##_##TY, ICmpBr_##P##_##TY,
  INTERP_BYTECODE(QCF_OP, QCF_HOT_BINARY, QCF_HOT_ICMP)
#undef QCF_OP
#undef QCF_HOT_BINARY
#undef QCF_HOT_ICMP
  NumOps
};

/// The fused compare-and-branch of an icmp handler.
BOp fused(BOp ICmp) {
  return static_cast<BOp>(static_cast<unsigned>(ICmp) + 1);
}
static_assert(static_cast<unsigned>(BOp::ICmpBr) ==
              static_cast<unsigned>(BOp::ICmp) + 1);

constexpr unsigned NumOpcodes = 0
#define QCF_COUNT(NAME, STR, NOPS, KIND) +1
    QIR_OPCODES(QCF_COUNT);
#undef QCF_COUNT
constexpr unsigned NumTypes = static_cast<unsigned>(Type::D128) + 1;
constexpr unsigned NumPreds = static_cast<unsigned>(CmpPred::UGe) + 1;

/// The handler of each scalar (opcode, result type) and each (predicate,
/// icmp operand type).
struct HandlerTables {
  BOp Scalar[NumOpcodes][NumTypes];
  BOp ICmp[NumPreds][NumTypes];
};

constexpr HandlerTables makeHandlerTables() {
  HandlerTables T{};
  for (auto &Row : T.Scalar)
    for (BOp &H : Row)
      H = BOp::NumOps;
  for (auto &Row : T.ICmp)
    for (BOp &H : Row)
      H = BOp::ICmp;
#define QCF_GENERIC(OP)                                                       \
  for (BOp & H : T.Scalar[static_cast<unsigned>(Opcode::OP)])                 \
    H = BOp::OP;
  QIR_SCALAR_BINARY_OPS(QCF_GENERIC) QIR_SCALAR_UNARY_OPS(QCF_GENERIC)
#undef QCF_GENERIC
#define QCF_HOT_BINARY(OP, TY)                                                \
  T.Scalar[static_cast<unsigned>(Opcode::OP)][static_cast<unsigned>(Type::TY)] \
      = BOp::OP##_##TY;
  INTERP_HOT_BINARY(QCF_HOT_BINARY)
#undef QCF_HOT_BINARY
#define QCF_HOT_ICMP(P, TY)                                                   \
  T.ICmp[static_cast<unsigned>(CmpPred::P)][static_cast<unsigned>(Type::TY)] = \
      BOp::ICmp_##P##_##TY;
  INTERP_HOT_ICMP(QCF_HOT_ICMP)
#undef QCF_HOT_ICMP
  return T;
}

constexpr HandlerTables Handlers = makeHandlerTables();

/// Operand fields of a TInst that name registers.
enum : uint8_t { OpA = 1, OpB = 2, OpC = 4 };

/// One translated bytecode instruction.
struct TInst {
  BOp Op;
  Type Ty;
  uint8_t Flags;
  Type SrcTy;     ///< Type of operand A for icmp, sext and sitofp.
  uint8_t RegOps; ///< Which of A, B, C are registers (OpA | OpB | OpC).
  uint32_t Dst;   ///< Destination register.
  uint32_t A;
  uint32_t B;
  uint32_t C;   ///< Branches: the taken target (see EdgeBit).
  uint64_t Imm; ///< Conditional branches: the not-taken target.

  CmpPred cmpPred() const { return static_cast<CmpPred>(Flags); }
};

/// A branch target is the target's bytecode pc, or EdgeBit | the id of an
/// edge whose phi moves run first.
constexpr uint32_t EdgeBit = 0x80000000u;

struct Move {
  uint32_t Dst;
  uint32_t Src;
};

/// Frames with more registers live on the heap.
constexpr unsigned MaxStackRegs = 8192;

/// Per-value bits of translation's use summary.
enum : uint8_t {
  PhiUseMask = 3,  ///< Phi incomings reading the value, saturating at 2.
  UseEscapes = 4,  ///< Read outside its defining block.
  Coalesced = 8,   ///< Computed straight into the register of its phi.
};

struct Constant {
  uint32_t Reg;
  Slot Value;
};

struct PendingEdge {
  uint32_t CodeIdx;
  bool NotTaken; ///< Fills the not-taken target (Imm) instead of C.
  qir::BlockId From, To;
};

/// Translation scratch, reused by every function of a module.
struct Scratch {
  std::vector<uint32_t> BlockPc;
  std::vector<uint8_t> Uses; ///< Per value: the use-summary bits above.
  std::vector<ValueId> Phis;
  std::vector<Constant> Constants;
  std::vector<PendingEdge> Edges;
  std::vector<Move> Pending;
};

/// A translated function. It keeps no reference to its qir::Function:
/// everything run() reads is copied at translate time, so the code stays
/// valid after the module it came from is freed (a CachingBackend hit
/// runs code whose source module died with the plan that compiled it).
class InterpFunction {
public:
  InterpFunction(const qir::Function &F, Scratch &S);

  /// Runs the function. \p ArgLanes holds the parameter lanes in order
  /// (two-lane types contribute two lanes). \returns the result (two
  /// lanes; Hi is zero for one-lane results).
  Slot run(const uint64_t *ArgLanes) const;

  /// Number of parameter lanes this function expects.
  unsigned numParamLanes() const { return NumParamLanes; }

private:
  struct Edge {
    uint32_t TargetPc;
    uint32_t MoveOff;
    uint32_t MoveCount;
  };
  struct CallDesc {
    void *Addr;
    uint8_t RetKind; ///< 0 = void, 1 = one lane, 2 = two lanes.
    uint32_t ArgOff; ///< Offset into ArgRegs.
    uint32_t NumArgs;
  };
  struct ArgRef {
    uint32_t Reg;
    uint8_t Lanes;
  };

  void emit(const qir::Function &F, Scratch &S);
  void coalesce(const qir::Function &F, Scratch &S, qir::BlockId From,
                ValueId Val, ValueId Phi);
  uint32_t edgeTarget(const qir::Function &F, Scratch &S, qir::BlockId From,
                      qir::BlockId To);
  Slot execute(Slot *Regs, const uint64_t *ArgLanes) const;
  uint32_t takeEdge(uint32_t Id, Slot *Regs) const;

  std::vector<TInst> Code;
  /// Written into the zeroed registers on entry. A list rather than a
  /// whole initial register file: the module holds 24 bytes per constant,
  /// not 16 per value.
  std::vector<Constant> Constants;
  std::vector<Edge> Edges;
  std::vector<Move> Moves;
  std::vector<CallDesc> Calls;
  /// Parameter registers first ([0, NumParams)), then call arguments.
  std::vector<ArgRef> ArgRegs;
  unsigned NumParams = 0;
  unsigned NumRegs = 0;
  unsigned NumParamLanes = 0;
  uint64_t FrameSize = 0;
};

[[noreturn]] void trap(rt::TrapCode Code) {
  rt_trap(static_cast<uint64_t>(Code));
}

/// True when the bytecode computes \p Op's value into its register.
bool writesRegister(Opcode Op) {
  switch (qir::opcodeKind(Op)) {
  case qir::OpKind::Const:
  case qir::OpKind::Phi:
  case qir::OpKind::Term:
    return false;
  default:
    return Op != Opcode::Param && Op != Opcode::Store;
  }
}

/// The value phi \p Phi takes on the edge from \p From, or INVALID_VALUE.
ValueId incomingFrom(const qir::Function &F, ValueId Phi,
                     qir::BlockId From) {
  const qir::Inst &Ins = F.Insts[Phi];
  for (unsigned K = 0, E = F.numPhiIncomings(Ins); K != E; ++K)
    if (F.phiIncomings(Ins)[K].Pred == From)
      return F.phiIncomings(Ins)[K].Val;
  return qir::INVALID_VALUE;
}

} // namespace

// --- Translation ---------------------------------------------------------------

InterpFunction::InterpFunction(const qir::Function &F, Scratch &S) {
  emit(F, S);
  // Only a value read in its own block and by one phi may live in the
  // phi's register: all its reads then come before anything else can
  // write that register.
  for (ValueId P : S.Phis) {
    const qir::Inst &Phi = F.Insts[P];
    for (unsigned K = 0, E = F.numPhiIncomings(Phi); K != E; ++K) {
      const qir::PhiIn &In = F.phiIncomings(Phi)[K];
      if (S.Uses[In.Val] == 1)
        coalesce(F, S, In.Pred, In.Val, P);
    }
  }
  for (const PendingEdge &PE : S.Edges) {
    uint32_t Target = edgeTarget(F, S, PE.From, PE.To);
    TInst &T = Code[PE.CodeIdx];
    if (PE.NotTaken)
      T.Imm = Target;
    else
      T.C = Target;
  }
}

void InterpFunction::emit(const qir::Function &F, Scratch &S) {
  uint32_t N = F.numInsts();
  NumRegs = N + 1; // +1: the temp that breaks phi-move cycles.
  NumParams = F.numParams();
  Code.reserve(N);
  ArgRegs.reserve(NumParams + F.CallArgs.size());
  for (unsigned P = 0; P != NumParams; ++P) {
    uint8_t Lanes = qir::isTwoLane(F.paramTypes()[P]) ? 2 : 1;
    ArgRegs.push_back({P, Lanes});
    NumParamLanes += Lanes;
  }
  S.BlockPc.resize(F.numBlocks());
  S.Uses.assign(N, 0);
  S.Phis.clear();
  S.Constants.clear();
  S.Edges.clear();

  for (qir::BlockId B = 0; B != F.numBlocks(); ++B) {
    S.BlockPc[B] = static_cast<uint32_t>(Code.size());
    const qir::Block &Blk = F.block(B);
    bool AfterICmp = false; // The last instruction emitted is an icmp.
    uint32_t I = Blk.Begin;
    auto NoteRead = [&](ValueId X) {
      if (X < Blk.Begin || X >= Blk.End)
        S.Uses[X] |= UseEscapes;
    };
    for (; I != Blk.End; ++I) {
      const qir::Inst &Ins = F.Insts[I];
      if (Ins.Op == Opcode::Phi) {
        S.Phis.push_back(I);
        for (unsigned K = 0, E = F.numPhiIncomings(Ins); K != E; ++K) {
          uint8_t &U = S.Uses[F.phiIncomings(Ins)[K].Val];
          if ((U & PhiUseMask) != 2)
            ++U;
        }
        continue;
      }
      TInst T{};
      T.Ty = Ins.Ty;
      T.Flags = Ins.Flags;
      T.Dst = I;
      T.A = Ins.A;
      T.B = Ins.B;
      T.C = Ins.C;
      T.Imm = Ins.Imm;
      uint32_t Idx = static_cast<uint32_t>(Code.size());
      switch (Ins.Op) {
      case Opcode::Param:
        continue;
      case Opcode::ConstInt:
        S.Constants.push_back({I, {Ins.Imm & qir::typeMask(Ins.Ty), 0}});
        continue;
      case Opcode::ConstI128:
        S.Constants.push_back({I, qir::fromI128(F.I128Pool[Ins.A])});
        continue;
      case Opcode::ConstF64:
      case Opcode::ConstPtr:
        S.Constants.push_back({I, {Ins.Imm, 0}});
        continue;
      case Opcode::StackSlot:
        FrameSize = (FrameSize + 15) & ~uint64_t(15);
        T.Op = BOp::StackSlot;
        T.Imm = FrameSize; // Offset within the frame.
        FrameSize += Ins.Imm;
        break;
      case Opcode::Load:
        T.Op = static_cast<BOp>(static_cast<unsigned>(BOp::Load1) +
                                __builtin_ctz(qir::typeSize(Ins.Ty)));
        T.RegOps = OpA;
        break;
      case Opcode::Store:
        T.Op = static_cast<BOp>(static_cast<unsigned>(BOp::Store1) +
                                __builtin_ctz(qir::typeSize(Ins.Ty)));
        T.RegOps = OpA | OpB;
        break;
      case Opcode::Gep:
        T.Op = Ins.B == qir::INVALID_VALUE ? BOp::Gep : BOp::GepIdx;
        T.RegOps = Ins.B == qir::INVALID_VALUE ? OpA : OpA | OpB;
        break;
      case Opcode::AtomicAdd:
        T.Op = Ins.Ty == Type::I32 ? BOp::AtomicAdd32 : BOp::AtomicAdd64;
        T.RegOps = OpA | OpB;
        break;
      case Opcode::Select:
        T.Op = BOp::Select;
        T.RegOps = OpA | OpB | OpC;
        break;
      case Opcode::FCmp:
        T.Op = BOp::FCmp;
        T.RegOps = OpA | OpB;
        break;
      case Opcode::ICmp:
        T.SrcTy = F.valueType(Ins.A);
        T.Op = Handlers.ICmp[Ins.Flags][static_cast<unsigned>(T.SrcTy)];
        T.RegOps = OpA | OpB;
        break;
      case Opcode::Call: {
        const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(Ins));
        assert(Sig.Address && "runtime symbol has no address bound");
        CallDesc D{};
        D.Addr = Sig.Address;
        D.ArgOff = static_cast<uint32_t>(ArgRegs.size());
        D.NumArgs = F.numCallArgs(Ins);
        unsigned Slots = 0;
        for (unsigned K = 0; K != D.NumArgs; ++K) {
          ValueId Arg = F.callArgs(Ins)[K];
          uint8_t Lanes = qir::isTwoLane(F.valueType(Arg)) ? 2 : 1;
          ArgRegs.push_back({Arg, Lanes});
          NoteRead(Arg);
          Slots += Lanes;
        }
        assert(Slots <= 6 && "runtime call exceeds 6 argument slots");
        (void)Slots;
        D.RetKind = Sig.RetType == Type::Void ? 0
                    : qir::isTwoLane(Sig.RetType) ? 2
                                                  : 1;
        T.Op = BOp::Call;
        T.A = static_cast<uint32_t>(Calls.size());
        Calls.push_back(D);
        break;
      }
      case Opcode::Br:
        T.Op = BOp::Br;
        S.Edges.push_back({Idx, false, B, Ins.A});
        break;
      case Opcode::CondBr:
        // An icmp right before the condbr that reads it branches itself.
        if (AfterICmp && Code.back().Dst == Ins.A) {
          NoteRead(Ins.A);
          Code.back().Op = fused(Code.back().Op);
          S.Edges.push_back({Idx - 1, false, B, Ins.B});
          S.Edges.push_back({Idx - 1, true, B, Ins.C});
          continue;
        }
        T.Op = BOp::CondBr;
        T.RegOps = OpA;
        S.Edges.push_back({Idx, false, B, Ins.B});
        S.Edges.push_back({Idx, true, B, Ins.C});
        break;
      case Opcode::Ret:
        T.Op = Ins.A == qir::INVALID_VALUE ? BOp::RetVoid : BOp::Ret;
        T.RegOps = Ins.A == qir::INVALID_VALUE ? 0 : OpA;
        break;
      case Opcode::Unreachable:
        T.Op = BOp::Unreachable;
        break;
      default:
        // Every other opcode is scalar: it evaluates through
        // qir/Semantics.h in the handler the table picks.
        T.Op = Handlers.Scalar[static_cast<unsigned>(Ins.Op)]
                              [static_cast<unsigned>(Ins.Ty)];
        assert(T.Op != BOp::NumOps && "opcode has no bytecode handler");
        T.SrcTy = F.valueType(Ins.A);
        T.RegOps = qir::numValueOperands(Ins.Op) == 2 ? OpA | OpB : OpA;
        break;
      }
      if (T.RegOps & OpA)
        NoteRead(T.A);
      if (T.RegOps & OpB)
        NoteRead(T.B);
      if (T.RegOps & OpC)
        NoteRead(T.C);
      AfterICmp = Ins.Op == Opcode::ICmp;
      Code.push_back(T);
    }
  }
  Constants.assign(S.Constants.begin(), S.Constants.end());
}

void InterpFunction::coalesce(const qir::Function &F, Scratch &S,
                              qir::BlockId From, ValueId Val, ValueId Phi) {
  // Val may be computed straight into Phi's register when its block ends
  // in `br` to Phi's block, no other move on that edge reads Phi's old
  // value (no swap), and nothing after Val in its block reads it (no lost
  // copy).
  const qir::Block &Blk = F.block(From);
  if (Val < Blk.Begin || Val >= Blk.End || !writesRegister(F.Insts[Val].Op) ||
      F.Insts[Blk.End - 1].Op != Opcode::Br)
    return;
  const qir::Block &Succ = F.block(F.Insts[Blk.End - 1].A);
  for (ValueId Q = Succ.Begin; Q != Succ.End && F.Insts[Q].Op == Opcode::Phi;
       ++Q)
    if (Q != Phi && incomingFrom(F, Q, From) == Phi)
      return;
  auto ForEachReg = [&](TInst &T, auto Fn) {
    if (T.RegOps & OpA)
      Fn(T.A);
    if (T.RegOps & OpB)
      Fn(T.B);
    if (T.RegOps & OpC)
      Fn(T.C);
    if (T.Op == BOp::Call)
      for (uint32_t K = 0; K != Calls[T.A].NumArgs; ++K)
        Fn(ArgRegs[Calls[T.A].ArgOff + K].Reg);
  };
  uint32_t Def = S.BlockPc[From];
  while (Code[Def].Dst != Val)
    ++Def;
  uint32_t End = From + 1 == F.numBlocks()
                     ? static_cast<uint32_t>(Code.size())
                     : S.BlockPc[From + 1];
  bool PhiRead = false;
  for (uint32_t Pc = Def + 1; Pc != End; ++Pc)
    ForEachReg(Code[Pc], [&](uint32_t Reg) { PhiRead |= Reg == Phi; });
  if (PhiRead)
    return;

  // Every read of Val is after it in its block: rename them there.
  S.Uses[Val] |= Coalesced;
  Code[Def].Dst = Phi;
  for (uint32_t Pc = Def + 1; Pc != End; ++Pc)
    ForEachReg(Code[Pc], [&](uint32_t &Reg) {
      if (Reg == Val)
        Reg = Phi;
    });
}

uint32_t InterpFunction::edgeTarget(const qir::Function &F, Scratch &S,
                                    qir::BlockId From, qir::BlockId To) {
  // Collect the phi moves this edge still needs.
  S.Pending.clear();
  const qir::Block &Blk = F.block(To);
  for (uint32_t I = Blk.Begin; I != Blk.End; ++I) {
    const qir::Inst &Ins = F.Insts[I];
    if (Ins.Op != Opcode::Phi)
      break;
    for (unsigned K = 0, E = F.numPhiIncomings(Ins); K != E; ++K) {
      const qir::PhiIn &In = F.phiIncomings(Ins)[K];
      if (In.Pred == From && In.Val != I && !(S.Uses[In.Val] & Coalesced))
        S.Pending.push_back({I, In.Val});
    }
  }
  if (S.Pending.empty())
    return S.BlockPc[To];

  // Order the parallel moves: emit any move whose destination no pending
  // move still reads; when none is left, break the cycle through the
  // temp register.
  uint32_t Off = static_cast<uint32_t>(Moves.size());
  uint32_t TempReg = F.numInsts();
  std::vector<Move> &P = S.Pending;
  while (!P.empty()) {
    size_t Ready = 0;
    for (; Ready != P.size(); ++Ready) {
      bool DstIsRead = false;
      for (const Move &M : P)
        DstIsRead |= M.Src == P[Ready].Dst;
      if (!DstIsRead)
        break;
    }
    if (Ready == P.size()) {
      uint32_t Saved = P.front().Dst;
      Moves.push_back({TempReg, Saved});
      for (Move &M : P)
        if (M.Src == Saved)
          M.Src = TempReg;
      continue;
    }
    Moves.push_back(P[Ready]);
    P[Ready] = P.back();
    P.pop_back();
  }
  Edges.push_back({S.BlockPc[To], Off,
                   static_cast<uint32_t>(Moves.size()) - Off});
  return EdgeBit | static_cast<uint32_t>(Edges.size() - 1);
}

// --- Execution ------------------------------------------------------------------

namespace {

/// Every runtime call has one shape: under the SysV ABI the six argument
/// slots travel in registers and two result lanes come back in RAX:RDX, so
/// a callee ignores the slots past its arity, and the call reads only the
/// lanes of its result.
struct PairRet {
  uint64_t Lo, Hi;
};
using RuntimeFn = PairRet (*)(uint64_t, uint64_t, uint64_t, uint64_t,
                              uint64_t, uint64_t);

template <unsigned Bytes> QCF_ALWAYS_INLINE Slot loadBytes(uint64_t Addr) {
  Slot V;
  std::memcpy(static_cast<void *>(&V), reinterpret_cast<const void *>(Addr),
              Bytes);
  return V;
}

template <unsigned Bytes>
QCF_ALWAYS_INLINE void storeBytes(uint64_t Addr, const Slot &V) {
  std::memcpy(reinterpret_cast<void *>(Addr), &V, Bytes);
}

} // namespace

uint32_t InterpFunction::takeEdge(uint32_t Id, Slot *Regs) const {
  const Edge &E = Edges[Id];
  const Move *M = Moves.data() + E.MoveOff;
  for (uint32_t K = 0; K != E.MoveCount; ++K)
    Regs[M[K].Dst] = Regs[M[K].Src];
  return E.TargetPc;
}

Slot InterpFunction::run(const uint64_t *ArgLanes) const {
  if (QCF_LIKELY(NumRegs <= MaxStackRegs)) {
    auto *Regs = static_cast<Slot *>(alloca(NumRegs * sizeof(Slot)));
    return execute(Regs, ArgLanes);
  }
  // A trap longjmps past this frame: catch it here to free the registers,
  // then raise it again.
  std::unique_ptr<Slot[]> Regs(new Slot[NumRegs]);
  Slot Result;
  rt::TrapCode TC =
      rt::runWithTrapGuard([&] { Result = execute(Regs.get(), ArgLanes); });
  Regs.reset();
  if (TC != rt::TrapCode::None)
    trap(TC);
  return Result;
}

Slot InterpFunction::execute(Slot *Regs, const uint64_t *ArgLanes) const {
  static const void *const Labels[] = {
#define QCF_OP(N) &&L_##N,
#define QCF_HOT_BINARY(OP, TY) &&L_##OP##_##TY,
#define QCF_HOT_ICMP(P, TY) &&L_ICmp_##P##_##TY, &&L_ICmpBr_##P##_##TY,
      INTERP_BYTECODE(QCF_OP, QCF_HOT_BINARY, QCF_HOT_ICMP)
#undef QCF_OP
#undef QCF_HOT_BINARY
#undef QCF_HOT_ICMP
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) ==
                static_cast<size_t>(BOp::NumOps));

  std::memset(static_cast<void *>(Regs), 0, NumRegs * sizeof(Slot));
  for (const Constant &C : Constants)
    Regs[C.Reg] = C.Value;
  for (unsigned P = 0, Lane = 0; P != NumParams; ++P) {
    Slot &S = Regs[ArgRegs[P].Reg];
    S.Lo = ArgLanes[Lane++];
    if (ArgRegs[P].Lanes == 2)
      S.Hi = ArgLanes[Lane++];
  }
  uint8_t *Frame =
      FrameSize ? static_cast<uint8_t *>(alloca(FrameSize)) : nullptr;
  const TInst *const Base = Code.data();
  const TInst *I = Base;

#define QCF_DISPATCH() goto *Labels[static_cast<unsigned>(I->Op)]
#define QCF_NEXT()                                                            \
  do {                                                                        \
    ++I;                                                                      \
    QCF_DISPATCH();                                                           \
  } while (0)
#define QCF_JUMP(TARGET)                                                      \
  do {                                                                        \
    uint32_t Pc = (TARGET);                                                   \
    if (Pc & EdgeBit)                                                         \
      Pc = takeEdge(Pc & ~EdgeBit, Regs);                                     \
    I = Base + Pc;                                                            \
    QCF_DISPATCH();                                                           \
  } while (0)

  QCF_DISPATCH();

L_StackSlot:
  Regs[I->Dst].Lo = reinterpret_cast<uint64_t>(Frame + I->Imm);
  QCF_NEXT();

#define QCF_MEM(BYTES)                                                        \
  L_Load##BYTES : Regs[I->Dst] = loadBytes<BYTES>(Regs[I->A].Lo);             \
  QCF_NEXT();                                                                 \
  L_Store##BYTES : storeBytes<BYTES>(Regs[I->A].Lo, Regs[I->B]);              \
  QCF_NEXT();
  QCF_MEM(1)
  QCF_MEM(2)
  QCF_MEM(4)
  QCF_MEM(8)
  QCF_MEM(16)
#undef QCF_MEM

L_Gep:
  Regs[I->Dst].Lo = Regs[I->A].Lo + I->Imm;
  QCF_NEXT();
L_GepIdx:
  Regs[I->Dst].Lo = Regs[I->A].Lo + I->Imm + Regs[I->B].Lo * I->C;
  QCF_NEXT();
L_AtomicAdd32:
  Regs[I->Dst].Lo = __atomic_fetch_add(
      reinterpret_cast<uint32_t *>(Regs[I->A].Lo),
      static_cast<uint32_t>(Regs[I->B].Lo), __ATOMIC_SEQ_CST);
  QCF_NEXT();
L_AtomicAdd64:
  Regs[I->Dst].Lo =
      __atomic_fetch_add(reinterpret_cast<uint64_t *>(Regs[I->A].Lo),
                         Regs[I->B].Lo, __ATOMIC_SEQ_CST);
  QCF_NEXT();
L_Select:
  Regs[I->Dst] = Regs[I->A].Lo & 1 ? Regs[I->B] : Regs[I->C];
  QCF_NEXT();
L_FCmp:
  Regs[I->Dst] = {qir::fcmp(I->cmpPred(), qir::toF64(Regs[I->A]),
                            qir::toF64(Regs[I->B])),
                  0};
  QCF_NEXT();

L_Call: {
  const CallDesc &D = Calls[I->A];
  uint64_t S[6] = {};
  for (uint32_t K = 0, N = 0; K != D.NumArgs; ++K) {
    const ArgRef &AR = ArgRegs[D.ArgOff + K];
    S[N++] = Regs[AR.Reg].Lo;
    if (AR.Lanes == 2)
      S[N++] = Regs[AR.Reg].Hi;
  }
  PairRet R =
      reinterpret_cast<RuntimeFn>(D.Addr)(S[0], S[1], S[2], S[3], S[4], S[5]);
  if (D.RetKind != 0)
    Regs[I->Dst] = {R.Lo, D.RetKind == 2 ? R.Hi : 0};
  QCF_NEXT();
}

L_Br:
  QCF_JUMP(I->C);
L_CondBr:
  QCF_JUMP(Regs[I->A].Lo & 1 ? I->C : static_cast<uint32_t>(I->Imm));
L_Ret:
  return Regs[I->A];
L_RetVoid:
  return Slot{};
L_Unreachable:
  reportFatalError("interpreted code reached 'unreachable'");

  // Every scalar handler evaluates through qir/Semantics.h; each
  // instantiates the entry of its constant opcode, and a specialized one
  // also passes its type or predicate as a constant.
#define QCF_ICMP(PRED, TY, PLAIN, FUSED)                                      \
  PLAIN : Regs[I->Dst] = {qir::icmp(PRED, TY, Regs[I->A], Regs[I->B]), 0};    \
  QCF_NEXT();                                                                 \
  FUSED : {                                                                   \
    bool Taken = qir::icmp(PRED, TY, Regs[I->A], Regs[I->B]);                 \
    Regs[I->Dst] = {Taken, 0};                                                \
    QCF_JUMP(Taken ? I->C : static_cast<uint32_t>(I->Imm));                   \
  }
  QCF_ICMP(I->cmpPred(), I->SrcTy, L_ICmp, L_ICmpBr)
#define QCF_HOT_ICMP(P, TY)                                                   \
  QCF_ICMP(CmpPred::P, Type::TY, L_ICmp_##P##_##TY, L_ICmpBr_##P##_##TY)
  INTERP_HOT_ICMP(QCF_HOT_ICMP)
#undef QCF_HOT_ICMP
#undef QCF_ICMP

#define QCF_BINARY(OP, TY, LABEL)                                             \
  LABEL : if (rt::TrapCode TC = qir::evalBinary<Opcode::OP>(                  \
                  TY, Regs[I->A], Regs[I->B], Regs[I->Dst]);                  \
              QCF_UNLIKELY(TC != rt::TrapCode::None)) trap(TC);               \
  QCF_NEXT();
#define QCF_GENERIC_BINARY(OP) QCF_BINARY(OP, I->Ty, L_##OP)
#define QCF_HOT_BINARY(OP, TY) QCF_BINARY(OP, Type::TY, L_##OP##_##TY)
  QIR_SCALAR_BINARY_OPS(QCF_GENERIC_BINARY)
  INTERP_HOT_BINARY(QCF_HOT_BINARY)
#undef QCF_HOT_BINARY
#undef QCF_GENERIC_BINARY
#undef QCF_BINARY
#define QCF_UNARY(OP)                                                         \
  L_##OP : Regs[I->Dst] =                                                     \
               qir::evalUnary<Opcode::OP>(I->Ty, I->SrcTy, Regs[I->A]);       \
  QCF_NEXT();
  QIR_SCALAR_UNARY_OPS(QCF_UNARY)
#undef QCF_UNARY

#undef QCF_JUMP
#undef QCF_NEXT
#undef QCF_DISPATCH
}

// --- Module wrapper --------------------------------------------------------------

namespace {

uint64_t interpThunkHandler(void *Ctx, uint64_t A0, uint64_t A1, uint64_t A2,
                            uint64_t A3, uint64_t A4) {
  const auto *Fn = static_cast<const InterpFunction *>(Ctx);
  uint64_t Lanes[5] = {A0, A1, A2, A3, A4};
  assert(Fn->numParamLanes() <= 5 &&
         "thunk entry supports at most 5 parameter lanes");
  return Fn->run(Lanes).Lo;
}

/// entry() returns a machine-code trampoline into run(), so interpreted
/// functions are callable through plain C function pointers.
class InterpretedModule : public backend::CompiledModule {
public:
  explicit InterpretedModule(const qir::Module &M) {
    Scratch S;
    Fns.reserve(M.functions().size());
    for (const auto &F : M.functions())
      Fns.emplace_back(F->name(), std::make_unique<InterpFunction>(*F, S));
    for (auto &[Name, Fn] : Fns)
      Entries.emplace_back(Name,
                           Thunks.createThunk(&interpThunkHandler, Fn.get()));
  }

  void *entry(const std::string &Name) override {
    for (auto &[N, E] : Entries)
      if (N == Name)
        return E;
    return nullptr;
  }

private:
  std::vector<std::pair<std::string, std::unique_ptr<InterpFunction>>> Fns;
  x64::ThunkAllocator Thunks;
  std::vector<std::pair<std::string, void *>> Entries;
};

} // namespace

std::unique_ptr<backend::CompiledModule>
InterpBackend::compile(const qir::Module &M,
                       const backend::CompileOptions &Opts) {
  obs::CompileObs Obs(Opts.Obs, name());
  TimeTraceScope Scope(Obs.trace(), "interp.translate");
  return std::make_unique<InterpretedModule>(M);
}
