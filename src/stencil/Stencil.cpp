//===- stencil/Stencil.cpp - Copy-and-patch x86-64 back-end ---------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Value placement model
// ---------------------
// Every SSA value has a fixed rbp-relative frame slot, lazily assigned at
// its first mention during the single walk (so a back-edge use allocates
// the slot before the definition is reached). Operation cores run on the
// fixed register convention of the stencil table; results are stored to
// their slot immediately. A one-deep forwarding chain remembers which
// value the result registers currently hold so a consumer of the value
// just produced skips the reload — the common case in expression trees.
//
// Phis use a home slot plus a shadow slot: every edge copies its incoming
// values into the shadows (through r11, never skipping — a skipped copy
// would let a stale shadow from an untaken edge leak into the commit),
// and the successor's entry commits shadows to homes. Reads go to homes,
// writes to shadows, so the copies have parallel semantics without any
// cycle analysis.
//
//===----------------------------------------------------------------------===//

#include "stencil/Stencil.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "stencil/Stencils.h"
#include "support/Compiler.h"
#include "support/Int128.h"
#include "x64/Decode.h"
#include "x64/QirLower.h"
#include <cassert>
#include <cstring>

using namespace qcf;
using namespace qcf::stencil;
using qir::BlockId;
using qir::Inst;
using qir::Opcode;
using qir::Type;
using qir::ValueId;

namespace {

constexpr int32_t NO_SLOT = INT32_MAX;

unsigned lanesOf(Type Ty) { return qir::isTwoLane(Ty) ? 2 : 1; }

/// Compiles one function by fragment concatenation; see file comment.
class FnCompiler {
public:
  std::vector<uint8_t> Out;
  std::vector<x64::CodeImage::Reloc> RtRelocs;

  explicit FnCompiler(const qir::Function &F)
      : F(F), T(StencilTable::get()) {}

  uint32_t frameSize() const { return (NextFrame + 15u) & ~15u; }

  void compile() {
    // The query suite averages 16.5 code bytes per QIR instruction.
    Out.reserve(20 * size_t(F.numInsts()) + 64);
    Slot.assign(F.numInsts(), NO_SLOT);
    Shadow.assign(F.numInsts(), NO_SLOT);
    BlockPos.assign(F.numBlocks(), 0);
    HazardMemo.assign(F.numBlocks(), 0);
    countUses();
    emitPrologue();
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      BlockPos[B] = Out.size();
      assert(PendingVal == qir::INVALID_VALUE &&
             "pending store leaked across a block boundary");
      killChain();
      commitPhis(B);
      const qir::Block &Blk = F.block(B);
      for (uint32_t Idx = Blk.Begin; Idx != Blk.End; ++Idx)
        emitInst(B, Idx, F.inst(Idx));
    }
    finish();
  }

private:
  const qir::Function &F;
  const StencilTable &T;

  std::vector<int32_t> Slot;   ///< Home slot per value (NO_SLOT = none yet).
  std::vector<int32_t> Shadow; ///< Phi shadow slots.
  std::vector<uint8_t> HazardMemo; ///< Per block: 0 unknown, 1 no, 2 yes.
  /// ICmp whose cmp flags are still live (the instruction just emitted),
  /// and its predicate — the CondBr fusion window. INVALID when closed.
  ValueId FlagsVal = qir::INVALID_VALUE;
  uint8_t FlagsPred = 0;
  uint32_t NextFrame = 0;
  size_t FramePatchPos = 0;
  std::vector<size_t> BlockPos;
  struct BlockFix {
    size_t Pos; ///< Byte offset of a rel32 field targeting a block.
    BlockId Target;
  };
  std::vector<BlockFix> BlockFixes;
  struct TrapFix {
    size_t Pos;
    unsigned Stub; ///< 0 = overflow, 1 = div-by-zero.
  };
  std::vector<TrapFix> TrapFixes;
  bool TrapUsed[2] = {false, false};

  /// Forwarding chain: which value the result registers hold right now.
  enum class ChainKind : uint8_t { None, Gp1, Gp2, X0 };
  ChainKind Chain = ChainKind::None;
  ValueId ChainVal = qir::INVALID_VALUE;

  /// Static use count per value; feeds the single-use store elision.
  std::vector<uint32_t> UseCount;
  /// A def whose home-slot store is deferred: the value is single-use and
  /// still lives in rax (Gp1) or xmm0 (X0). If its one consumer picks it
  /// up through the forwarding chain the store is never emitted (and the
  /// slot never allocated); anything else flushes it first — always while
  /// the register still holds the value. Two-lane defs never defer.
  ValueId PendingVal = qir::INVALID_VALUE;
  ChainKind PendingKind = ChainKind::None;

  void killChain() {
    Chain = ChainKind::None;
    ChainVal = qir::INVALID_VALUE;
  }

  void flushPending() {
    if (PendingVal == qir::INVALID_VALUE)
      return;
    if (PendingKind == ChainKind::X0)
      emitD(T.StAX, slotOf(PendingVal));
    else
      emitD(T.StA, slotOf(PendingVal));
    PendingVal = qir::INVALID_VALUE;
  }

  /// The deferred value's sole consumer just took it from the register;
  /// the home-slot store is dead and is dropped for good.
  void consumePending(ValueId V) {
    if (PendingVal == V)
      PendingVal = qir::INVALID_VALUE;
  }

  /// Counts every operand read the back-end will perform, mirroring
  /// emitInst's consumption exactly (phi incomings and call arguments
  /// included). Overcounting merely costs a store; undercounting would
  /// elide a live one, so every reader must be listed here.
  void countUses() {
    UseCount.assign(F.numInsts(), 0);
    auto Bump = [&](ValueId V) {
      if (V != qir::INVALID_VALUE)
        ++UseCount[V];
    };
    for (uint32_t Idx = 0; Idx != F.numInsts(); ++Idx) {
      const Inst &I = F.inst(Idx);
      switch (I.Op) {
      case Opcode::Neg:
      case Opcode::Not:
      case Opcode::FNeg:
      case Opcode::ZExt:
      case Opcode::SExt:
      case Opcode::Trunc:
      case Opcode::SIToFP:
      case Opcode::FPToSI:
      case Opcode::Bitcast:
      case Opcode::ExtractLo:
      case Opcode::ExtractHi:
      case Opcode::Load:
        Bump(I.A);
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::SDiv:
      case Opcode::UDiv:
      case Opcode::SRem:
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
      case Opcode::RotR:
      case Opcode::SAddTrap:
      case Opcode::SSubTrap:
      case Opcode::SMulTrap:
      case Opcode::Crc32:
      case Opcode::LongMulFold:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::ICmp:
      case Opcode::FCmp:
      case Opcode::PackD128:
      case Opcode::PackI128:
      case Opcode::Store:
      case Opcode::AtomicAdd:
        Bump(I.A);
        Bump(I.B);
        break;
      case Opcode::Gep:
        Bump(I.A);
        Bump(I.B); // I.C is the scale immediate, not a value.
        break;
      case Opcode::Select:
        Bump(I.A);
        Bump(I.B);
        Bump(I.C);
        break;
      case Opcode::Call:
        for (unsigned K = 0; K != F.numCallArgs(I); ++K)
          Bump(F.callArgs(I)[K]);
        break;
      case Opcode::Phi:
        for (unsigned K = 0; K != F.numPhiIncomings(I); ++K)
          Bump(F.phiIncomings(I)[K].Val);
        break;
      case Opcode::CondBr:
      case Opcode::Ret:
        Bump(I.A); // B/C are block ids; Ret's A may be INVALID.
        break;
      default: // Consts, StackSlot, Param, Br, Unreachable: no value reads.
        break;
      }
    }
  }

  /// The operand (if any) this instruction will consume through the
  /// rax/xmm0 forwarding chain — the only consumption that can absorb a
  /// deferred store. Everything else reads home slots (or clobbers the
  /// result registers), so emitInst flushes before any other opcode runs.
  ValueId chainCandidate(const Inst &I) const {
    switch (I.Op) {
    case Opcode::Select:
    case Opcode::Store:
    case Opcode::AtomicAdd:
      return I.B; // Value operand goes through loadA; the rest read slots.
    case Opcode::ExtractHi: // Reads the high lane straight from the slot.
    case Opcode::Br:        // Edge moves read incoming slots.
    case Opcode::Call:      // Argument loads read slots; call clobbers rax.
    case Opcode::ConstInt:
    case Opcode::ConstI128:
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
    case Opcode::StackSlot: // movabs/lea clobber rax before any load.
    case Opcode::Unreachable:
      return qir::INVALID_VALUE;
    default:
      return I.A; // loadA/loadAX/loadLane0 operand (or no operand at all).
    }
  }

  int32_t allocFrame(uint32_t Bytes) {
    NextFrame += Bytes;
    return -static_cast<int32_t>(NextFrame);
  }

  int32_t slotOf(ValueId V) {
    if (Slot[V] == NO_SLOT)
      Slot[V] = allocFrame(qir::isTwoLane(F.valueType(V)) ? 16 : 8);
    return Slot[V];
  }

  int32_t shadowOf(ValueId P) {
    if (Shadow[P] == NO_SLOT)
      Shadow[P] = allocFrame(qir::isTwoLane(F.valueType(P)) ? 16 : 8);
    return Shadow[P];
  }

  // --- Fragment emission primitives ---------------------------------------

  size_t emit(const Fragment &Fr) {
    size_t Pos = Out.size();
    Out.insert(Out.end(), Fr.Bytes.begin(), Fr.Bytes.end());
    return Pos;
  }

  void patch32(size_t Pos, uint32_t V) { std::memcpy(&Out[Pos], &V, 4); }
  void patch64(size_t Pos, uint64_t V) { std::memcpy(&Out[Pos], &V, 8); }

  /// rel32 fields are relative to the end of the 4-byte field.
  void patchRel32(size_t Pos, size_t Target) {
    patch32(Pos, static_cast<uint32_t>(Target - (Pos + 4)));
  }

  /// Emits a fragment with a single Disp32 field.
  void emitD(const Fragment &Fr, int32_t Disp) {
    assert(Fr.Patches.size() == 1 &&
           Fr.Patches[0].K == Patch::Kind::Disp32);
    size_t Pos = emit(Fr);
    patch32(Pos + Fr.Patches[0].Off, static_cast<uint32_t>(Disp));
  }

  /// Emits a fragment with a single Imm64 field.
  void emitI64(const Fragment &Fr, uint64_t V) {
    assert(Fr.Patches.size() == 1 &&
           Fr.Patches[0].K == Patch::Kind::Imm64);
    size_t Pos = emit(Fr);
    patch64(Pos + Fr.Patches[0].Off, V);
  }

  /// Emits an operation core, registering its trap edges.
  void emitCore(const Fragment &Fr) {
    size_t Pos = emit(Fr);
    for (const Patch &P : Fr.Patches) {
      unsigned Stub = P.K == Patch::Kind::TrapOvf ? 0u : 1u;
      assert(P.K == Patch::Kind::TrapOvf || P.K == Patch::Kind::TrapDiv);
      TrapUsed[Stub] = true;
      TrapFixes.push_back({Pos + P.Off, Stub});
    }
  }

  void emitJmpTo(BlockId Target) {
    size_t Pos = emit(T.Jmp);
    BlockFixes.push_back({Pos + T.Jmp.Patches[0].Off, Target});
  }

  /// Calls \p Sym at \p Addr, passing each argument lane by lane in the
  /// SysV argument registers.
  void emitCall(const std::string &Sym, const void *Addr, const ValueId *Args,
                unsigned NumArgs) {
    unsigned Slot = 0;
    for (unsigned K = 0; K != NumArgs; ++K)
      for (unsigned L = 0; L != lanesOf(F.valueType(Args[K])); ++L) {
        assert(Slot < 6 && "too many call argument lanes");
        emitD(T.LdArg[Slot++], slotOf(Args[K]) + 8 * static_cast<int32_t>(L));
      }
    size_t Pos = emit(T.CallR10);
    size_t Field = Pos + T.CallR10.Patches[0].Off;
    patch64(Field, reinterpret_cast<uint64_t>(Addr));
    RtRelocs.push_back({Field, Sym});
    killChain();
  }

  // --- Operand loads and result stores ------------------------------------

  void loadA(ValueId V) {
    bool Two = qir::isTwoLane(F.valueType(V));
    ChainKind Want = Two ? ChainKind::Gp2 : ChainKind::Gp1;
    if (ChainVal == V && Chain == Want) {
      consumePending(V);
      return;
    }
    if (PendingVal == V)
      flushPending(); // Wrong register class; materialize the slot first.
    emitD(T.LdA, slotOf(V));
    if (Two)
      emitD(T.LdAHi, slotOf(V) + 8);
    Chain = Want;
    ChainVal = V;
  }

  /// Loads only lane 0 of \p V into rax (truncations, extracts, packs).
  void loadLane0(ValueId V) {
    if (ChainVal == V &&
        (Chain == ChainKind::Gp1 || Chain == ChainKind::Gp2)) {
      consumePending(V);
      return;
    }
    if (PendingVal == V)
      flushPending(); // f64 bits pending in xmm0; store, then reload raw.
    emitD(T.LdA, slotOf(V));
    Chain = ChainKind::Gp1;
    ChainVal = V;
  }

  void loadAX(ValueId V) {
    if (ChainVal == V && Chain == ChainKind::X0) {
      consumePending(V);
      return;
    }
    if (PendingVal == V)
      flushPending(); // Int bits pending in rax; store, then movsd back.
    emitD(T.LdAX, slotOf(V));
    Chain = ChainKind::X0;
    ChainVal = V;
  }

  void loadB(ValueId V) {
    emitD(T.LdB, slotOf(V));
    if (qir::isTwoLane(F.valueType(V)))
      emitD(T.LdBHi, slotOf(V) + 8);
  }

  void loadBX(ValueId V) { emitD(T.LdBX, slotOf(V)); }

  void loadCond(ValueId V) { emitD(T.LdCond, slotOf(V)); }

  void defGp1(ValueId Id) {
    assert(PendingVal == qir::INVALID_VALUE && "def over a pending store");
    if (UseCount[Id] == 1) {
      PendingVal = Id;
      PendingKind = ChainKind::Gp1;
    } else {
      emitD(T.StA, slotOf(Id));
    }
    Chain = ChainKind::Gp1;
    ChainVal = Id;
  }

  void defGp2(ValueId Id) {
    assert(PendingVal == qir::INVALID_VALUE && "def over a pending store");
    emitD(T.StA, slotOf(Id));
    emitD(T.StAHi, slotOf(Id) + 8);
    Chain = ChainKind::Gp2;
    ChainVal = Id;
  }

  void defX0(ValueId Id) {
    assert(PendingVal == qir::INVALID_VALUE && "def over a pending store");
    if (UseCount[Id] == 1) {
      PendingVal = Id;
      PendingKind = ChainKind::X0;
    } else {
      emitD(T.StAX, slotOf(Id));
    }
    Chain = ChainKind::X0;
    ChainVal = Id;
  }

  // --- Phis ----------------------------------------------------------------

  bool blockHasPhis(BlockId B) const {
    const qir::Block &Blk = F.block(B);
    for (uint32_t Idx = Blk.Begin; Idx != Blk.End; ++Idx)
      if (F.inst(Idx).Op == Opcode::Phi)
        return true;
    return false;
  }

  /// True when \p B's phis form a parallel-copy hazard: some phi's
  /// incoming reads another phi of the same block, so writing homes in
  /// edge order could clobber a value a later move still needs. Only
  /// then do edge moves double-buffer through shadow slots with a
  /// shadow->home commit at block entry. Hazard-free blocks — the common
  /// case — copy incomings straight into the homes on the (split) edge,
  /// halving the per-iteration memory traffic on loop-carried values.
  /// Self-incomings (P <- P) are not hazards: the home already holds the
  /// value and direct mode skips the copy outright.
  bool phiHazard(BlockId B) {
    if (HazardMemo[B])
      return HazardMemo[B] == 2;
    const qir::Block &Blk = F.block(B);
    bool Hazard = false;
    for (uint32_t Idx = Blk.Begin; Idx != Blk.End && !Hazard; ++Idx) {
      const Inst &P = F.inst(Idx);
      if (P.Op != Opcode::Phi)
        continue;
      const qir::PhiIn *Ins = F.phiIncomings(P);
      for (unsigned K = 0; K != F.numPhiIncomings(P); ++K) {
        ValueId Src = Ins[K].Val;
        if (Src != Idx && Src >= Blk.Begin && Src < Blk.End &&
            F.inst(Src).Op == Opcode::Phi) {
          Hazard = true;
          break;
        }
      }
    }
    HazardMemo[B] = Hazard ? 2 : 1;
    return Hazard;
  }

  void commitPhis(BlockId B) {
    if (!phiHazard(B))
      return; // Edges wrote the homes directly; nothing to commit.
    const qir::Block &Blk = F.block(B);
    for (uint32_t Idx = Blk.Begin; Idx != Blk.End; ++Idx) {
      const Inst &P = F.inst(Idx);
      if (P.Op != Opcode::Phi)
        continue;
      for (unsigned L = 0; L != lanesOf(P.Ty); ++L) {
        emitD(T.LdTmp, shadowOf(Idx) + 8 * static_cast<int32_t>(L));
        emitD(T.StTmp, slotOf(Idx) + 8 * static_cast<int32_t>(L));
      }
    }
  }

  /// Copies this edge's incoming values into the successor's phis —
  /// straight into the homes when the successor is hazard-free, else
  /// into the shadow slots committed at its entry. Uses only r11, so a
  /// CondBr condition staged in rax survives. Runs on the split edge of
  /// a CondBr (after the branch decides), so only the taken edge's
  /// moves execute and the untaken successor's state is never touched.
  void edgeMoves(BlockId B, BlockId Succ) {
    const qir::Block &SB = F.block(Succ);
    bool Direct = !phiHazard(Succ);
    for (uint32_t Idx = SB.Begin; Idx != SB.End; ++Idx) {
      const Inst &P = F.inst(Idx);
      if (P.Op != Opcode::Phi)
        continue;
      const qir::PhiIn *Ins = F.phiIncomings(P);
      ValueId Src = qir::INVALID_VALUE;
      for (unsigned K = 0; K != F.numPhiIncomings(P); ++K)
        if (Ins[K].Pred == B) {
          Src = Ins[K].Val;
          break;
        }
      assert(Src != qir::INVALID_VALUE && "no incoming for edge");
      if (Direct && Src == static_cast<ValueId>(Idx))
        continue; // P <- P: the home already holds the value.
      for (unsigned L = 0; L != lanesOf(P.Ty); ++L) {
        emitD(T.LdTmp, slotOf(Src) + 8 * static_cast<int32_t>(L));
        emitD(T.StTmp, (Direct ? slotOf(Idx) : shadowOf(Idx)) +
                           8 * static_cast<int32_t>(L));
      }
    }
  }

  // --- Structure ------------------------------------------------------------

  void emitPrologue() {
    size_t Pos = emit(T.Prologue);
    FramePatchPos = Pos + T.Prologue.Patches[0].Off;
    unsigned Gp = 0, Xm = 0;
    for (unsigned Pi = 0; Pi != F.numParams(); ++Pi) {
      ValueId V = F.paramValue(Pi);
      Type Ty = F.paramTypes()[Pi];
      if (Ty == Type::F64) {
        assert(Xm < 8 && "too many f64 parameters");
        emitD(T.StParamXmm[Xm++], slotOf(V));
      } else {
        for (unsigned L = 0; L != lanesOf(Ty); ++L) {
          assert(Gp < 6 && "too many integer parameter lanes");
          emitD(T.StParamGp[Gp++],
                slotOf(V) + 8 * static_cast<int32_t>(L));
        }
      }
    }
  }

  void finish() {
    size_t StubPos[2] = {0, 0};
    for (unsigned Idx = 0; Idx != 2; ++Idx) {
      if (!TrapUsed[Idx])
        continue;
      StubPos[Idx] = Out.size();
      size_t Pos = emit(T.TrapStub[Idx]);
      size_t Field = Pos + T.TrapStub[Idx].Patches[0].Off;
      patch64(Field, reinterpret_cast<uint64_t>(
                         rt::runtimeSymbolAddress("rt_trap")));
      RtRelocs.push_back({Field, "rt_trap"});
    }
    for (const TrapFix &Fix : TrapFixes)
      patchRel32(Fix.Pos, StubPos[Fix.Stub]);
    for (const BlockFix &Fix : BlockFixes)
      patchRel32(Fix.Pos, BlockPos[Fix.Target]);
    patch32(FramePatchPos, frameSize());
  }

  // --- Per-instruction dispatch --------------------------------------------

  void emitInst(BlockId B, ValueId Id, const Inst &I) {
    // Flags fusion window: a one-lane ICmp leaves its cmp's flags live
    // through the trailing setcc/movzx/store (none touch flags), so an
    // immediately following CondBr on that value branches on them
    // directly. Any other instruction in between closes the window.
    ValueId PrevFlags = FlagsVal;
    FlagsVal = qir::INVALID_VALUE;
    // A deferred single-use store survives into this instruction only if
    // this instruction is the consumer and will take the value from the
    // chain; everything else (slot reads, register clobbers, edge moves)
    // needs the home slot valid, and rax/xmm0 still hold the value here.
    if (PendingVal != qir::INVALID_VALUE && PendingVal != chainCandidate(I))
      flushPending();
    if (I.Ty == Type::I128)
      if (const char *Helper = x64::runtimeHelper128(I.Op)) {
        ValueId Args[] = {I.A, I.B};
        emitCall(Helper, rt::runtimeSymbolAddress(Helper), Args, 2);
        defGp2(Id);
        return;
      }
    switch (I.Op) {
    case Opcode::Param: // Spilled by the prologue.
    case Opcode::Phi:   // Handled by edge moves + entry commits.
      return;

    case Opcode::ConstInt:
      emitI64(T.ConstA, I.Imm & qir::typeMask(I.Ty));
      defGp1(Id);
      return;
    case Opcode::ConstI128: {
      Int128 C = F.i128Constant(I);
      emitI64(T.ConstA, lo64(C));
      emitI64(T.ConstAHi, hi64(C));
      defGp2(Id);
      return;
    }
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
      emitI64(T.ConstA, I.Imm);
      defGp1(Id);
      return;
    case Opcode::StackSlot: {
      NextFrame = (NextFrame + 15u) & ~15u;
      NextFrame += static_cast<uint32_t>((I.Imm + 15) & ~15ull);
      emitD(T.LeaSlotA, -static_cast<int32_t>(NextFrame));
      defGp1(Id);
      return;
    }

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::SAddTrap:
    case Opcode::SSubTrap:
    case Opcode::SMulTrap:
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
    case Opcode::Shl: // Shift amounts go through rcx = CL.
    case Opcode::LShr:
    case Opcode::AShr:
    case Opcode::RotR:
      loadB(I.B);
      loadA(I.A);
      emitCore(T.core(I.Op, static_cast<uint8_t>(I.Ty)));
      qir::isTwoLane(I.Ty) ? defGp2(Id) : defGp1(Id);
      return;
    case Opcode::Neg:
    case Opcode::Not:
      loadA(I.A);
      emitCore(T.core(I.Op, static_cast<uint8_t>(I.Ty)));
      qir::isTwoLane(I.Ty) ? defGp2(Id) : defGp1(Id);
      return;

    case Opcode::Crc32:
    case Opcode::LongMulFold:
      loadB(I.B);
      loadA(I.A);
      emitCore(T.core(I.Op));
      defGp1(Id);
      return;

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      loadBX(I.B);
      loadAX(I.A);
      emitCore(T.core(I.Op));
      defX0(Id);
      return;
    case Opcode::FNeg:
      loadAX(I.A);
      emitCore(T.core(I.Op));
      defX0(Id);
      return;

    case Opcode::ICmp:
      loadB(I.B);
      loadA(I.A);
      emitCore(T.core(Opcode::ICmp,
                      static_cast<uint8_t>(F.valueType(I.A)), I.Flags));
      defGp1(Id);
      if (!qir::isTwoLane(F.valueType(I.A))) { // i128 forms remix flags.
        FlagsVal = Id;
        FlagsPred = I.Flags;
      }
      return;
    case Opcode::FCmp:
      loadBX(I.B);
      loadAX(I.A);
      emitCore(T.core(Opcode::FCmp, 0, I.Flags));
      defGp1(Id);
      return;

    case Opcode::Select:
      if (I.Ty == Type::F64) {
        loadCond(I.A);
        loadBX(I.C); // False value in xmm1.
        loadAX(I.B); // True value in xmm0.
        emitCore(T.core(Opcode::Select, SelF64));
        defX0(Id);
      } else {
        loadCond(I.A);
        loadB(I.C); // False value in rcx(/r8).
        loadA(I.B); // True value in rax(/rdx).
        bool Two = qir::isTwoLane(I.Ty);
        emitCore(T.core(Opcode::Select, Two ? SelTwoLane : SelOneLane));
        Two ? defGp2(Id) : defGp1(Id);
      }
      return;

    case Opcode::ZExt:
      // Canonical zero-extension makes widening a slot copy; only the
      // i128 destination needs a zeroed high lane.
      loadA(I.A);
      if (I.Ty == Type::I128) {
        emitCore(T.core(Opcode::ZExt, static_cast<uint8_t>(Type::I128)));
        defGp2(Id);
      } else {
        defGp1(Id);
      }
      return;
    case Opcode::SExt: {
      loadA(I.A);
      emitCore(T.core(Opcode::SExt,
                      static_cast<uint8_t>(F.valueType(I.A)),
                      static_cast<uint8_t>(I.Ty)));
      qir::isTwoLane(I.Ty) ? defGp2(Id) : defGp1(Id);
      return;
    }
    case Opcode::Trunc:
      loadLane0(I.A);
      if (I.Ty != Type::I64)
        emitCore(T.core(Opcode::Trunc, static_cast<uint8_t>(I.Ty)));
      defGp1(Id);
      return;
    case Opcode::SIToFP:
      loadA(I.A);
      emitCore(T.core(Opcode::SIToFP,
                      static_cast<uint8_t>(F.valueType(I.A))));
      defX0(Id);
      return;
    case Opcode::FPToSI:
      loadAX(I.A);
      emitCore(T.core(Opcode::FPToSI, static_cast<uint8_t>(I.Ty)));
      defGp1(Id);
      return;
    case Opcode::Bitcast:
      // Slots hold raw bits, so bitcasts are slot copies.
      if (qir::isTwoLane(I.Ty)) {
        loadA(I.A);
        defGp2(Id);
      } else {
        loadLane0(I.A);
        defGp1(Id);
      }
      return;

    case Opcode::PackD128:
    case Opcode::PackI128:
      loadLane0(I.A);
      emitD(T.LdAHi, slotOf(I.B)); // High lane from B into rdx.
      defGp2(Id);
      return;
    case Opcode::ExtractLo:
      loadLane0(I.A);
      defGp1(Id);
      return;
    case Opcode::ExtractHi:
      emitD(T.LdA, slotOf(I.A) + 8);
      defGp1(Id);
      return;

    case Opcode::Load:
      loadA(I.A); // Pointer.
      emitCore(T.core(Opcode::Load, static_cast<uint8_t>(I.Ty)));
      qir::isTwoLane(I.Ty) ? defGp2(Id) : defGp1(Id);
      return;
    case Opcode::Store: {
      Type VTy = F.valueType(I.B);
      emitD(T.LdB, slotOf(I.A)); // Pointer in rcx.
      loadA(I.B);                // Value in rax(/rdx).
      emitCore(T.core(Opcode::Store, static_cast<uint8_t>(VTy)));
      return; // Chain still holds the stored value.
    }
    case Opcode::Gep: {
      int32_t Disp = static_cast<int32_t>(static_cast<int64_t>(I.Imm));
      if (I.B == qir::INVALID_VALUE) {
        loadA(I.A);
        const Fragment &Fr = T.core(Opcode::Gep, 0);
        size_t Pos = emit(Fr);
        patch32(Pos + Fr.Patches[0].Off, static_cast<uint32_t>(Disp));
      } else {
        emitD(T.LdB, slotOf(I.B)); // Index in rcx.
        loadA(I.A);                // Base in rax.
        uint32_t Scale = I.C;
        if (Scale == 1 || Scale == 2 || Scale == 4 || Scale == 8) {
          const Fragment &Fr =
              T.core(Opcode::Gep, static_cast<uint8_t>(Scale));
          size_t Pos = emit(Fr);
          patch32(Pos + Fr.Patches[0].Off, static_cast<uint32_t>(Disp));
        } else {
          const Fragment &Fr = T.core(Opcode::Gep, GepGenericScale);
          assert(Fr.Patches.size() == 2 &&
                 Fr.Patches[0].K == Patch::Kind::Imm32 &&
                 Fr.Patches[1].K == Patch::Kind::Disp32);
          size_t Pos = emit(Fr);
          patch32(Pos + Fr.Patches[0].Off, Scale);
          patch32(Pos + Fr.Patches[1].Off, static_cast<uint32_t>(Disp));
        }
      }
      defGp1(Id);
      return;
    }
    case Opcode::AtomicAdd:
      emitD(T.LdB, slotOf(I.A)); // Pointer in rcx.
      loadA(I.B);                // Value in rax.
      emitCore(T.core(Opcode::AtomicAdd, static_cast<uint8_t>(I.Ty)));
      defGp1(Id);
      return;

    case Opcode::Call: {
      const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(I));
      emitCall(Sig.Name, Sig.Address, F.callArgs(I), F.numCallArgs(I));
      if (I.Ty != Type::Void)
        // The runtime is integer-class only: results arrive in rax(/rdx)
        // even for f64 (raw bits), matching DirectEmit.
        qir::isTwoLane(I.Ty) ? defGp2(Id) : defGp1(Id);
      return;
    }

    case Opcode::Br:
      edgeMoves(B, I.A);
      if (I.A != B + 1)
        emitJmpTo(I.A);
      return;
    case Opcode::CondBr: {
      // Branch on the preceding ICmp's still-live flags when possible;
      // otherwise reload the i1 and test it. Edge moves use only r11,
      // so neither the staged condition nor live flags are disturbed.
      const Fragment *Br = &T.TestJnz;
      if (PrevFlags == I.A) {
        Br = &T.JccPred[FlagsPred];
        consumePending(I.A); // A single-use condition dies in the flags.
      } else {
        loadA(I.A); // Condition in rax.
      }
      if (!blockHasPhis(I.B) && !blockHasPhis(I.C)) {
        // No edge moves on either side: branch straight at the targets.
        size_t Pos = emit(*Br);
        BlockFixes.push_back({Pos + Br->Patches[0].Off, I.B});
        if (I.C != B + 1)
          emitJmpTo(I.C);
        return;
      }
      // Split both edges: decide first, then run only the taken edge's
      // moves. Besides skipping the untaken side's work, this is what
      // makes direct (shadow-free) phi writes safe — a successor's homes
      // are only written when its edge is actually taken.
      size_t Pos = emit(*Br);
      size_t TruePatch = Pos + Br->Patches[0].Off;
      edgeMoves(B, I.C);
      emitJmpTo(I.C); // The true-edge stanza follows; never fall through.
      patchRel32(TruePatch, Out.size());
      edgeMoves(B, I.B);
      emitJmpTo(I.B);
      return;
    }
    case Opcode::Ret:
      if (I.A != qir::INVALID_VALUE) {
        if (F.valueType(I.A) == Type::F64)
          loadAX(I.A); // SysV returns f64 in xmm0.
        else
          loadA(I.A); // rax(/rdx).
      }
      emit(T.Epilogue);
      return;
    case Opcode::Unreachable:
      emit(T.Ud2);
      return;
    }
    QCF_UNREACHABLE("unhandled opcode in stencil back-end");
  }
};

} // namespace

// --- Compile driver -------------------------------------------------------

std::unique_ptr<backend::CompiledModule>
StencilBackend::compile(const qir::Module &M,
                        const backend::CompileOptions &Opts) {
  obs::CompileObs CompObs(Opts.Obs, name());
  TimeTrace *Trace = CompObs.trace();
  auto Result = std::make_unique<StencilModule>();

  if (Opts.Verify.Ir)
    qir::verifyOrDie(M, "stencil");

  std::vector<x64::CodeImage::Piece> Pieces;
  uint64_t FrameBytes = 0;
  {
    TimeTraceScope Scope(Trace, "stencil.codegen");
    for (const auto &F : M.functions()) {
      FnCompiler FC(*F);
      FC.compile();
      FrameBytes += FC.frameSize();
      Pieces.push_back({F->name(), std::move(FC.Out), std::move(FC.RtRelocs)});
      if (Opts.Verify.Mc) {
        // The stencil compiler patches every field before this point, so
        // the bytes are final: no relocations to exempt.
        const std::vector<uint8_t> &Code = Pieces.back().Code;
        x64::lintOrDie(Code.data(), Code.size(), {}, F->name(), "stencil");
      }
    }
  }

  {
    TimeTraceScope Scope(Trace, "stencil.link");
    Result->image().link(Pieces);
  }

  if (Opts.Obs.Metrics) {
    obs::MetricsRegistry &Reg = *Opts.Obs.Metrics;
    Reg.counter("mem.stencil.code.bytes").add(Result->image().codeBytes());
    Reg.counter("mem.stencil.frame.bytes").add(FrameBytes);
    Reg.counter("mem.stencil.compiles").inc();
  }

  if (Opts.Verify.Tv)
    tv::validateOrDie(M, Result->tvFunctions(), Opts.Obs.Metrics, "stencil");
  return Result;
}

std::unique_ptr<backend::CompiledModule>
StencilBackend::deserialize(const uint8_t *Data, size_t Len) {
  return backend::installImage<StencilModule>(Data, Len);
}
