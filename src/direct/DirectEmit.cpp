//===- direct/DirectEmit.cpp - Single-pass x86-64 back-end ----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Value placement model
// ---------------------
// Every SSA value is canonically zero-extended to its 64-bit lane(s); small
// integer operations re-canonicalize their results. Values that live across
// a basic-block boundary ("globals": parameters, phis, phi incomings, and
// anything in a block's live-out set) get a fixed rbp-relative home slot and
// are stored there once at their definition. Block-local values stay in
// scratch registers and are lazily spilled under pressure. Register state
// dies at block boundaries; phi updates happen as parallel move sequences
// on the edges.
//
//===----------------------------------------------------------------------===//

#include "direct/DirectEmit.h"
#include "direct/Cfi.h"
#include "qir/Cfg.h"
#include "qir/Operands.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "support/Bitset.h"
#include "support/ByteIo.h"
#include "support/Compiler.h"
#include "x64/Asm.h"
#include "x64/EncodingLint.h"
#include <cstring>
#include <map>
#include <optional>

using namespace qcf;
using namespace qcf::direct;
using namespace qcf::x64;
using qir::BlockId;
using qir::Inst;
using qir::Opcode;
using qir::Type;
using qir::ValueId;

namespace {

constexpr uint8_t NOREG = 0xff;
constexpr ValueId MOVE_TEMP = 0xfffffffeu;

constexpr Reg GpPool[] = {Reg::RAX, Reg::RCX, Reg::RDX, Reg::RSI,
                          Reg::RDI, Reg::R8,  Reg::R9};
constexpr unsigned NumGpPool = 7;
constexpr unsigned NumXmmPool = 8; // XMM0..XMM7

Width widthOf(Type Ty) { return widthForBytes(qir::typeSize(Ty)); }

/// Width used for ALU ops on one-lane integers (8/16-bit ops run at 32 bits
/// and re-canonicalize afterwards).
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

/// Compiles one function into an Assembler.
class FunctionCompiler {
public:
  FunctionCompiler(const qir::Function &F, Assembler &A, CfiWriter &Cfi,
                   TimeTrace *Trace)
      : F(F), A(A), Cfi(Cfi), Trace(Trace) {}

  void compile() {
    {
      TimeTraceScope Scope(Trace, "direct.analysis");
      analyze();
    }
    TimeTraceScope Scope(Trace, "direct.codegen");
    emitAll();
  }

  /// Runtime-call sites in this function's code: the movabs imm64 at
  /// Offset holds the address of the named rt_* symbol. The module
  /// driver rebases these to module offsets for serialization.
  std::vector<x64::CodeImage::Reloc> RtRelocs;

private:
  // --- Analysis -----------------------------------------------------------

  struct VInfo {
    int32_t Mem = 0;
    bool HasMem = false;
    bool Global = false;
    bool MemStored[2] = {false, false};
    uint8_t Reg[2] = {NOREG, NOREG};
    uint8_t XReg = NOREG;
  };

  void analyze() {
    Cfg.emplace(F);
    DT.emplace(F, *Cfg);
    LI.emplace(F, *Cfg, *DT);
    V.resize(F.numInsts());
    DefBlock.assign(F.numInsts(), 0);
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      for (uint32_t I = F.block(B).Begin; I != F.block(B).End; ++I)
        DefBlock[I] = B;

    computeLiveness();

    // Globals: anything live across a block boundary, plus parameters and
    // phis (whose homes anchor the calling convention and edge moves).
    for (BlockId B : Cfg->rpo())
      LiveOut[B].forEachSetBit([&](size_t Val) { V[Val].Global = true; });
    for (uint32_t I = 0; I != F.numInsts(); ++I) {
      const Inst &Ins = F.Insts[I];
      if (Ins.Op == Opcode::Param || Ins.Op == Opcode::Phi)
        V[I].Global = true;
      if (Ins.Op == Opcode::Phi)
        for (unsigned K = 0, E = F.numPhiIncomings(Ins); K != E; ++K)
          V[F.phiIncomings(Ins)[K].Val].Global = true;
    }

    // Frame layout: temp slot at [rbp-16, rbp-1], then homes/stack slots.
    NextFrame = 16;
    for (uint32_t I = 0; I != F.numInsts(); ++I) {
      if (V[I].Global)
        assignMem(I);
      if (F.Insts[I].Op == Opcode::StackSlot) {
        NextFrame = (NextFrame + 15) & ~15u;
        NextFrame += static_cast<uint32_t>((F.Insts[I].Imm + 15) & ~15ull);
        StackSlotOff[I] = -static_cast<int32_t>(NextFrame);
      }
    }
    // Phis and params are materialized through memory before any read.
    for (uint32_t I = 0; I != F.numInsts(); ++I)
      if (F.Insts[I].Op == Opcode::Phi || F.Insts[I].Op == Opcode::Param)
        V[I].MemStored[0] = V[I].MemStored[1] = true;
  }

  void computeLiveness() {
    TimeTraceScope Scope(Trace, "direct.analysis.liveness");
    uint32_t N = F.numBlocks();
    uint32_t NumVals = F.numInsts();
    LiveIn.assign(N, Bitset(NumVals));
    LiveOut.assign(N, Bitset(NumVals));
    std::vector<Bitset> Use(N, Bitset(NumVals)), Def(N, Bitset(NumVals));

    for (BlockId B : Cfg->rpo()) {
      for (uint32_t I = F.block(B).Begin; I != F.block(B).End; ++I) {
        const Inst &Ins = F.Insts[I];
        qir::forEachOperand(F, Ins, [&](ValueId Op) {
          if (!Def[B].test(Op))
            Use[B].set(Op);
        });
        Def[B].set(I);
      }
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      const std::vector<BlockId> &Rpo = Cfg->rpo();
      for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
        BlockId B = *It;
        Bitset Out(NumVals);
        const Inst &Term = F.terminator(B);
        for (unsigned S = 0, E = F.numSuccessors(Term); S != E; ++S) {
          BlockId Succ = F.successor(Term, S);
          Out.unionWith(LiveIn[Succ]);
          // Phi incomings are uses on this edge.
          for (uint32_t I = F.block(Succ).Begin; I != F.block(Succ).End;
               ++I) {
            const Inst &P = F.Insts[I];
            if (P.Op != Opcode::Phi)
              break;
            for (unsigned K = 0, KE = F.numPhiIncomings(P); K != KE; ++K)
              if (F.phiIncomings(P)[K].Pred == B)
                Out.set(F.phiIncomings(P)[K].Val);
          }
        }
        if (!(Out == LiveOut[B])) {
          LiveOut[B] = Out;
          Changed = true;
        }
        Bitset In = Out;
        In.subtract(Def[B]);
        In.unionWith(Use[B]);
        if (!(In == LiveIn[B])) {
          LiveIn[B] = std::move(In);
          Changed = true;
        }
      }
    }
  }

  // --- Frame / register-state helpers --------------------------------------

  int32_t allocFrame(uint32_t Bytes) {
    NextFrame = (NextFrame + 7) & ~7u;
    NextFrame += (Bytes + 7) & ~7u;
    return -static_cast<int32_t>(NextFrame);
  }

  void assignMem(ValueId Val) {
    if (V[Val].HasMem)
      return;
    bool TwoLane = qir::isTwoLane(F.valueType(Val));
    V[Val].Mem = allocFrame(TwoLane ? 16 : 8);
    V[Val].HasMem = true;
  }

  Mem memOf(ValueId Val, unsigned Lane) const {
    assert(V[Val].HasMem && "value has no memory location");
    return Mem::base(Reg::RBP, V[Val].Mem + static_cast<int32_t>(Lane * 8));
  }

  void clearRegState() {
    for (Reg R : GpPool)
      detachGp(R);
    for (unsigned I = 0; I != NumXmmPool; ++I)
      detachXmm(static_cast<Xmm>(I));
    std::memset(GpPinned, 0, sizeof(GpPinned));
    std::memset(XmmPinned, 0, sizeof(XmmPinned));
  }

  void detachGp(Reg R) {
    ValueId Val = GpVal[regNum(R)];
    if (Val != qir::INVALID_VALUE)
      V[Val].Reg[GpLane[regNum(R)]] = NOREG;
    GpVal[regNum(R)] = qir::INVALID_VALUE;
  }

  void detachXmm(Xmm R) {
    ValueId Val = XmmVal[regNum(R)];
    if (Val != qir::INVALID_VALUE)
      V[Val].XReg = NOREG;
    XmmVal[regNum(R)] = qir::INVALID_VALUE;
  }

  void attachGp(Reg R, ValueId Val, unsigned Lane) {
    detachGp(R);
    GpVal[regNum(R)] = Val;
    GpLane[regNum(R)] = static_cast<uint8_t>(Lane);
    V[Val].Reg[Lane] = regNum(R);
  }

  void attachXmm(Xmm R, ValueId Val) {
    detachXmm(R);
    XmmVal[regNum(R)] = Val;
    V[Val].XReg = regNum(R);
  }

  /// Spills the value lane held by \p R (if any) and detaches it.
  void evictGp(Reg R) {
    ValueId Val = GpVal[regNum(R)];
    if (Val == qir::INVALID_VALUE)
      return;
    unsigned Lane = GpLane[regNum(R)];
    if (!V[Val].MemStored[Lane]) {
      assignMem(Val);
      A.movMR(Width::W64, memOf(Val, Lane), R);
      V[Val].MemStored[Lane] = true;
    }
    detachGp(R);
  }

  void evictXmm(Xmm R) {
    ValueId Val = XmmVal[regNum(R)];
    if (Val == qir::INVALID_VALUE)
      return;
    if (!V[Val].MemStored[0]) {
      assignMem(Val);
      A.movsdMX(memOf(Val, 0), R);
      V[Val].MemStored[0] = true;
    }
    detachXmm(R);
  }

  Reg allocGp() {
    for (Reg R : GpPool)
      if (GpVal[regNum(R)] == qir::INVALID_VALUE && !GpPinned[regNum(R)])
        return R;
    // Round-robin eviction among unpinned registers.
    for (unsigned Tries = 0; Tries != NumGpPool; ++Tries) {
      Reg R = GpPool[NextEvict++ % NumGpPool];
      if (!GpPinned[regNum(R)]) {
        evictGp(R);
        return R;
      }
    }
    QCF_UNREACHABLE("all scratch registers pinned");
  }

  Xmm allocXmm() {
    for (unsigned I = 0; I != NumXmmPool; ++I)
      if (XmmVal[I] == qir::INVALID_VALUE && !XmmPinned[I])
        return static_cast<Xmm>(I);
    for (unsigned Tries = 0; Tries != NumXmmPool; ++Tries) {
      unsigned I = NextXmmEvict++ % NumXmmPool;
      if (!XmmPinned[I]) {
        evictXmm(static_cast<Xmm>(I));
        return static_cast<Xmm>(I);
      }
    }
    QCF_UNREACHABLE("all xmm registers pinned");
  }

  void pin(Reg R) { GpPinned[regNum(R)] = true; }
  void pin(Xmm R) { XmmPinned[regNum(R)] = true; }

  void unpinAll() {
    std::memset(GpPinned, 0, sizeof(GpPinned));
    std::memset(XmmPinned, 0, sizeof(XmmPinned));
  }

  /// Materializes value lane into a register (pinning it).
  Reg useGp(ValueId Val, unsigned Lane) {
    if (V[Val].Reg[Lane] != NOREG) {
      Reg R = static_cast<Reg>(V[Val].Reg[Lane]);
      pin(R);
      return R;
    }
    Reg R = allocGp();
    pin(R);
    assert(V[Val].MemStored[Lane] && "value is neither in a register nor "
                                     "in memory");
    A.movRM(Width::W64, R, memOf(Val, Lane));
    attachGp(R, Val, Lane);
    return R;
  }

  Xmm useXmm(ValueId Val) {
    if (V[Val].XReg != NOREG) {
      Xmm R = static_cast<Xmm>(V[Val].XReg);
      pin(R);
      return R;
    }
    Xmm R = allocXmm();
    pin(R);
    assert(V[Val].MemStored[0] && "f64 value has no location");
    A.movsdXM(R, memOf(Val, 0));
    attachXmm(R, Val);
    return R;
  }

  /// Allocates a destination register for a value lane.
  Reg defGp(ValueId Val, unsigned Lane) {
    Reg R = allocGp();
    pin(R);
    attachGp(R, Val, Lane);
    return R;
  }

  Xmm defXmm(ValueId Val) {
    Xmm R = allocXmm();
    pin(R);
    attachXmm(R, Val);
    return R;
  }

  /// Copies a value lane into a caller-chosen scratch register without
  /// changing the value's tracked location.
  void copyToScratch(ValueId Val, unsigned Lane, Reg Scratch) {
    assert(GpVal[regNum(Scratch)] == qir::INVALID_VALUE &&
           "scratch register must be detached first");
    if (V[Val].Reg[Lane] != NOREG)
      A.movRR(Width::W64, Scratch, static_cast<Reg>(V[Val].Reg[Lane]));
    else
      A.movRM(Width::W64, Scratch, memOf(Val, Lane));
  }

  /// After defining \p Val, stores global values to their home slot.
  void finishDef(ValueId Val) {
    if (V[Val].Global) {
      Type Ty = F.valueType(Val);
      if (Ty == Type::F64) {
        if (V[Val].XReg != NOREG && !V[Val].MemStored[0]) {
          A.movsdMX(memOf(Val, 0), static_cast<Xmm>(V[Val].XReg));
          V[Val].MemStored[0] = true;
        }
      } else {
        unsigned Lanes = qir::isTwoLane(Ty) ? 2 : 1;
        for (unsigned L = 0; L != Lanes; ++L)
          if (V[Val].Reg[L] != NOREG && !V[Val].MemStored[L]) {
            A.movMR(Width::W64, memOf(Val, L),
                    static_cast<Reg>(V[Val].Reg[L]));
            V[Val].MemStored[L] = true;
          }
      }
    }
    unpinAll();
  }

  /// Spills everything to memory and clears the register state (used at
  /// calls and fixed-register sequences).
  void flushAllRegs() {
    for (Reg R : GpPool)
      evictGp(R);
    for (unsigned I = 0; I != NumXmmPool; ++I)
      evictXmm(static_cast<Xmm>(I));
    unpinAll();
  }

  // --- Trap stubs -------------------------------------------------------------

  Label trapLabel(rt::TrapCode Code) {
    unsigned Idx = Code == rt::TrapCode::Overflow ? 0 : 1;
    if (!TrapUsed[Idx]) {
      TrapLabels[Idx] = A.newLabel();
      TrapUsed[Idx] = true;
    }
    return TrapLabels[Idx];
  }

  void emitTrapStubs() {
    static const rt::TrapCode Codes[2] = {rt::TrapCode::Overflow,
                                          rt::TrapCode::DivByZero};
    for (unsigned Idx = 0; Idx != 2; ++Idx) {
      if (!TrapUsed[Idx])
        continue;
      A.bind(TrapLabels[Idx]);
      A.movRI32(Reg::RDI, static_cast<uint32_t>(Codes[Idx]));
      A.movAbsRI(Reg::R10, reinterpret_cast<uint64_t>(
                               rt::runtimeSymbolAddress("rt_trap")));
      RtRelocs.push_back({A.size() - 8, "rt_trap"});
      A.callReg(Reg::R10);
      A.ud2();
    }
  }

  // --- Code generation ---------------------------------------------------------

  void emitAll() {
    BlockLabels.resize(F.numBlocks());
    for (BlockId B = 0; B != F.numBlocks(); ++B)
      BlockLabels[B] = A.newLabel();

    emitPrologue();

    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      if (!Cfg->isReachable(B))
        continue;
      A.bind(BlockLabels[B]);
      clearRegState();
      for (uint32_t I = F.block(B).Begin; I != F.block(B).End; ++I)
        emitInst(B, I, F.Insts[I]);
    }

    emitTrapStubs();

    // Patch the frame size into the prologue's `sub rsp, imm32`.
    uint32_t FrameSize = (NextFrame + 15) & ~15u;
    A.finalize();
    std::vector<uint8_t> &Code =
        const_cast<std::vector<uint8_t> &>(A.code());
    for (int I = 0; I != 4; ++I)
      Code[FramePatchPos + I] = static_cast<uint8_t>(FrameSize >> (I * 8));
  }

  void emitPrologue() {
    size_t Start = A.size();
    A.pushR(Reg::RBP);
    size_t AfterPush = A.size() - Start;
    A.movRR(Width::W64, Reg::RBP, Reg::RSP);
    size_t AfterMov = A.size() - Start;
    Cfi.prologue(AfterPush, AfterMov);
    // sub rsp, imm32 — patched once the frame size is known. The 0x81
    // encoding is forced by using a placeholder larger than 127.
    A.aluRI(Assembler::Alu::Sub, Width::W64, Reg::RSP, 0x01000000);
    FramePatchPos = A.size() - 4;

    // Spill parameters to their homes.
    unsigned GpSlot = 0, XmmSlot = 0;
    for (unsigned P = 0; P != F.numParams(); ++P) {
      Type Ty = F.paramTypes()[P];
      if (Ty == Type::F64) {
        A.movsdMX(memOf(P, 0), static_cast<Xmm>(XmmSlot++));
        continue;
      }
      unsigned Lanes = qir::isTwoLane(Ty) ? 2 : 1;
      for (unsigned L = 0; L != Lanes; ++L) {
        assert(GpSlot < 6 && "too many parameter slots");
        A.movMR(Width::W64, memOf(P, L), GpArgRegs[GpSlot++]);
      }
    }
  }

  // --- Edge moves (phi updates) ------------------------------------------------

  struct EdgeMove {
    ValueId Dst; // Phi value (or MOVE_TEMP).
    ValueId Src; // Incoming value (or MOVE_TEMP).
  };

  std::vector<EdgeMove> edgeMoves(BlockId From, BlockId To) {
    std::vector<EdgeMove> Pending;
    for (uint32_t I = F.block(To).Begin; I != F.block(To).End; ++I) {
      const Inst &P = F.Insts[I];
      if (P.Op != Opcode::Phi)
        break;
      for (unsigned K = 0, E = F.numPhiIncomings(P); K != E; ++K)
        if (F.phiIncomings(P)[K].Pred == From &&
            F.phiIncomings(P)[K].Val != I)
          Pending.push_back({I, F.phiIncomings(P)[K].Val});
    }
    // Parallel-move ordering with a stack temp for cycles.
    std::vector<EdgeMove> Ordered;
    while (!Pending.empty()) {
      bool Emitted = false;
      for (size_t I = 0; I != Pending.size(); ++I) {
        bool DstIsRead = false;
        for (size_t J = 0; J != Pending.size(); ++J)
          if (J != I && Pending[J].Src == Pending[I].Dst)
            DstIsRead = true;
        if (!DstIsRead) {
          Ordered.push_back(Pending[I]);
          Pending.erase(Pending.begin() + I);
          Emitted = true;
          break;
        }
      }
      if (Emitted)
        continue;
      ValueId Saved = Pending.front().Dst;
      Ordered.push_back({MOVE_TEMP, Saved});
      for (EdgeMove &M : Pending)
        if (M.Src == Saved)
          M.Src = MOVE_TEMP;
    }
    return Ordered;
  }

  Mem tempSlot(unsigned Lane) {
    return Mem::base(Reg::RBP, -16 + static_cast<int32_t>(Lane * 8));
  }

  void applyEdgeMoves(const std::vector<EdgeMove> &Ordered) {
    for (const EdgeMove &M : Ordered) {
      ValueId Probe = M.Dst != MOVE_TEMP ? M.Dst : M.Src;
      unsigned Lanes = qir::isTwoLane(F.valueType(Probe)) ? 2 : 1;
      for (unsigned L = 0; L != Lanes; ++L) {
        Mem SrcMem = M.Src == MOVE_TEMP ? tempSlot(L) : memOf(M.Src, L);
        Mem DstMem = M.Dst == MOVE_TEMP ? tempSlot(L) : memOf(M.Dst, L);
        A.movRM(Width::W64, Reg::R11, SrcMem);
        A.movMR(Width::W64, DstMem, Reg::R11);
      }
    }
  }

  // --- Instruction emission ----------------------------------------------------

  void emitInst(BlockId B, ValueId Id, const Inst &I) {
    switch (I.Op) {
    case Opcode::Param:
    case Opcode::Phi:
      return; // Handled by the prologue / edge moves.

    case Opcode::ConstInt: {
      Reg R = defGp(Id, 0);
      A.movRI(R, I.Imm & qir::typeMask(I.Ty));
      finishDef(Id);
      return;
    }
    case Opcode::ConstI128: {
      Int128 C = F.i128Constant(I);
      Reg Lo = defGp(Id, 0);
      A.movRI(Lo, lo64(C));
      Reg Hi = defGp(Id, 1);
      A.movRI(Hi, hi64(C));
      finishDef(Id);
      return;
    }
    case Opcode::ConstF64: {
      Reg Tmp = allocGp();
      pin(Tmp);
      A.movRI(Tmp, I.Imm);
      Xmm D = defXmm(Id);
      A.movqXR(D, Tmp);
      finishDef(Id);
      return;
    }
    case Opcode::ConstPtr: {
      Reg R = defGp(Id, 0);
      A.movRI(R, I.Imm);
      finishDef(Id);
      return;
    }
    case Opcode::StackSlot: {
      Reg R = defGp(Id, 0);
      A.lea(R, Mem::base(Reg::RBP, StackSlotOff.at(Id)));
      finishDef(Id);
      return;
    }

    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
      emitAddLike(Id, I);
      return;
    case Opcode::Mul:
      emitMul(Id, I);
      return;
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem:
      emitDiv(Id, I);
      return;
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
    case Opcode::RotR:
      emitShift(Id, I);
      return;
    case Opcode::Neg:
      emitNegNot(Id, I, /*IsNeg=*/true);
      return;
    case Opcode::Not:
      emitNegNot(Id, I, /*IsNeg=*/false);
      return;
    case Opcode::SAddTrap:
    case Opcode::SSubTrap:
      emitAddSubTrap(Id, I);
      return;
    case Opcode::SMulTrap:
      emitMulTrap(Id, I);
      return;

    case Opcode::Crc32: {
      Reg Ar = useGp(I.A, 0);
      Reg Br = useGp(I.B, 0);
      Reg D = defGp(Id, 0);
      A.movRR(Width::W64, D, Ar);
      A.crc32RR(D, Br);
      finishDef(Id);
      return;
    }
    case Opcode::LongMulFold:
      emitLongMulFold(Id, I);
      return;

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      Xmm Ar = useXmm(I.A);
      Xmm Br = useXmm(I.B);
      Xmm D = defXmm(Id);
      A.movsdXX(D, Ar);
      switch (I.Op) {
      case Opcode::FAdd:
        A.addsd(D, Br);
        break;
      case Opcode::FSub:
        A.subsd(D, Br);
        break;
      case Opcode::FMul:
        A.mulsd(D, Br);
        break;
      default:
        A.divsd(D, Br);
        break;
      }
      finishDef(Id);
      return;
    }
    case Opcode::FNeg: {
      // -x == (bitcast) x ^ sign bit.
      Xmm Ar = useXmm(I.A);
      Reg Tmp = allocGp();
      pin(Tmp);
      A.movqRX(Tmp, Ar);
      Reg SignR = allocGp();
      pin(SignR);
      A.movRI(SignR, 0x8000000000000000ull);
      A.aluRR(Assembler::Alu::Xor, Width::W64, Tmp, SignR);
      Xmm D = defXmm(Id);
      A.movqXR(D, Tmp);
      finishDef(Id);
      return;
    }

    case Opcode::ICmp:
      emitICmp(Id, I);
      return;
    case Opcode::FCmp:
      emitFCmp(Id, I);
      return;
    case Opcode::Select:
      emitSelect(Id, I);
      return;

    case Opcode::ZExt: {
      // Canonical form: already zero-extended; i128 adds a zero hi lane.
      Reg Ar = useGp(I.A, 0);
      Reg Lo = defGp(Id, 0);
      A.movRR(Width::W64, Lo, Ar);
      if (I.Ty == Type::I128) {
        Reg Hi = defGp(Id, 1);
        A.movRI32(Hi, 0);
      }
      finishDef(Id);
      return;
    }
    case Opcode::SExt: {
      Type From = F.valueType(I.A);
      Reg Ar = useGp(I.A, 0);
      Reg Lo = defGp(Id, 0);
      if (From == Type::I64) {
        A.movRR(Width::W64, Lo, Ar);
      } else if (From == Type::I1) {
        // i1 sign extension: 0 -> 0, 1 -> -1.
        A.movRR(Width::W64, Lo, Ar);
        A.negR(Width::W64, Lo);
      } else {
        A.movsxRR(widthOf(From), Lo, Ar);
      }
      if (I.Ty != Type::I128 && I.Ty != Type::I64) {
        // Re-canonicalize to the (wider but still <64-bit) target width.
        A.movRI(Reg::R11, qir::typeMask(I.Ty));
        A.aluRR(Assembler::Alu::And, Width::W64, Lo, Reg::R11);
      }
      if (I.Ty == Type::I128) {
        Reg Hi = defGp(Id, 1);
        A.movRR(Width::W64, Hi, Lo);
        A.shiftRI(Assembler::Shift::Sar, Width::W64, Hi, 63);
      }
      finishDef(Id);
      return;
    }
    case Opcode::Trunc: {
      Reg Ar = useGp(I.A, 0); // lo lane of i128 or the single lane
      Reg D = defGp(Id, 0);
      A.movRR(Width::W64, D, Ar);
      if (I.Ty != Type::I64) {
        A.movRI(Reg::R11, qir::typeMask(I.Ty));
        A.aluRR(Assembler::Alu::And, Width::W64, D, Reg::R11);
      }
      finishDef(Id);
      return;
    }
    case Opcode::SIToFP: {
      Type From = F.valueType(I.A);
      Reg Ar = useGp(I.A, 0);
      Reg Tmp = allocGp();
      pin(Tmp);
      if (From == Type::I64)
        A.movRR(Width::W64, Tmp, Ar);
      else
        A.movsxRR(widthOf(From), Tmp, Ar);
      Xmm D = defXmm(Id);
      A.cvtsi2sd(D, Tmp);
      finishDef(Id);
      return;
    }
    case Opcode::FPToSI: {
      Xmm Ar = useXmm(I.A);
      Reg D = defGp(Id, 0);
      A.cvttsd2si(D, Ar);
      if (I.Ty != Type::I64) {
        A.movRI(Reg::R11, qir::typeMask(I.Ty));
        A.aluRR(Assembler::Alu::And, Width::W64, D, Reg::R11);
      }
      finishDef(Id);
      return;
    }
    case Opcode::Bitcast: {
      Type From = F.valueType(I.A);
      if (From == Type::F64) {
        Xmm Ar = useXmm(I.A);
        Reg D = defGp(Id, 0);
        A.movqRX(D, Ar);
      } else if (I.Ty == Type::F64) {
        Reg Ar = useGp(I.A, 0);
        Xmm D = defXmm(Id);
        A.movqXR(D, Ar);
      } else {
        Reg Ar = useGp(I.A, 0);
        Reg D = defGp(Id, 0);
        A.movRR(Width::W64, D, Ar);
      }
      finishDef(Id);
      return;
    }

    case Opcode::PackD128:
    case Opcode::PackI128: {
      Reg ALo = useGp(I.A, 0);
      Reg BHi = useGp(I.B, 0);
      Reg Lo = defGp(Id, 0);
      A.movRR(Width::W64, Lo, ALo);
      Reg Hi = defGp(Id, 1);
      A.movRR(Width::W64, Hi, BHi);
      finishDef(Id);
      return;
    }
    case Opcode::ExtractLo:
    case Opcode::ExtractHi: {
      Reg Src = useGp(I.A, I.Op == Opcode::ExtractLo ? 0 : 1);
      Reg D = defGp(Id, 0);
      A.movRR(Width::W64, D, Src);
      finishDef(Id);
      return;
    }

    case Opcode::Load: {
      Reg P = useGp(I.A, 0);
      if (I.Ty == Type::F64) {
        Xmm D = defXmm(Id);
        A.movsdXM(D, Mem::base(P));
      } else if (qir::isTwoLane(I.Ty)) {
        Reg Lo = defGp(Id, 0);
        A.movRM(Width::W64, Lo, Mem::base(P));
        Reg Hi = defGp(Id, 1);
        A.movRM(Width::W64, Hi, Mem::base(P, 8));
      } else {
        Reg D = defGp(Id, 0);
        A.movzxRM(widthOf(I.Ty), D, Mem::base(P));
      }
      finishDef(Id);
      return;
    }
    case Opcode::Store: {
      Reg P = useGp(I.A, 0);
      if (I.Ty == Type::F64) {
        Xmm S = useXmm(I.B);
        A.movsdMX(Mem::base(P), S);
      } else if (qir::isTwoLane(I.Ty)) {
        Reg Lo = useGp(I.B, 0);
        A.movMR(Width::W64, Mem::base(P), Lo);
        Reg Hi = useGp(I.B, 1);
        A.movMR(Width::W64, Mem::base(P, 8), Hi);
      } else {
        Reg S = useGp(I.B, 0);
        A.movMR(widthOf(I.Ty), Mem::base(P), S);
      }
      unpinAll();
      return;
    }
    case Opcode::Gep: {
      Reg Base = useGp(I.A, 0);
      int32_t Disp = static_cast<int32_t>(static_cast<int64_t>(I.Imm));
      Reg D = defGp(Id, 0);
      if (I.B == qir::INVALID_VALUE) {
        A.lea(D, Mem::base(Base, Disp));
      } else {
        Reg Idx = useGp(I.B, 0);
        uint32_t Scale = I.C;
        if (Scale == 1 || Scale == 2 || Scale == 4 || Scale == 8) {
          A.lea(D, Mem::baseIndex(Base, Idx, static_cast<uint8_t>(Scale),
                                  Disp));
        } else {
          A.imulRRI(Width::W64, Reg::R11, Idx,
                    static_cast<int32_t>(Scale));
          A.lea(D, Mem::baseIndex(Base, Reg::R11, 1, Disp));
        }
      }
      finishDef(Id);
      return;
    }
    case Opcode::AtomicAdd: {
      Reg P = useGp(I.A, 0);
      Reg Val = useGp(I.B, 0);
      Reg D = defGp(Id, 0);
      A.movRR(Width::W64, D, Val);
      A.lockXaddMR(aluWidth(I.Ty), Mem::base(P), D);
      if (I.Ty != Type::I64 && I.Ty != Type::I32)
        QCF_UNREACHABLE("atomicadd requires i32/i64");
      finishDef(Id);
      return;
    }

    case Opcode::Call:
      emitCall(Id, I);
      return;

    case Opcode::Br: {
      applyEdgeMoves(edgeMoves(B, I.A));
      if (I.A != B + 1)
        A.jmp(BlockLabels[I.A]); // else: fallthrough to the next block
      return;
    }
    case Opcode::CondBr:
      emitCondBr(B, I);
      return;
    case Opcode::Ret:
      emitRet(I);
      return;
    case Opcode::Unreachable:
      A.ud2();
      return;
    }
    QCF_UNREACHABLE("unhandled opcode in DirectEmit");
  }

  void emitAddLike(ValueId Id, const Inst &I) {
    if (I.Ty == Type::I128) {
      Reg ALo = useGp(I.A, 0), AHi = useGp(I.A, 1);
      Reg BLo = useGp(I.B, 0), BHi = useGp(I.B, 1);
      Reg DLo = defGp(Id, 0), DHi = defGp(Id, 1);
      A.movRR(Width::W64, DLo, ALo);
      A.movRR(Width::W64, DHi, AHi);
      switch (I.Op) {
      case Opcode::Add:
        A.aluRR(Assembler::Alu::Add, Width::W64, DLo, BLo);
        A.aluRR(Assembler::Alu::Adc, Width::W64, DHi, BHi);
        break;
      case Opcode::Sub:
        A.aluRR(Assembler::Alu::Sub, Width::W64, DLo, BLo);
        A.aluRR(Assembler::Alu::Sbb, Width::W64, DHi, BHi);
        break;
      case Opcode::And:
        A.aluRR(Assembler::Alu::And, Width::W64, DLo, BLo);
        A.aluRR(Assembler::Alu::And, Width::W64, DHi, BHi);
        break;
      case Opcode::Or:
        A.aluRR(Assembler::Alu::Or, Width::W64, DLo, BLo);
        A.aluRR(Assembler::Alu::Or, Width::W64, DHi, BHi);
        break;
      default:
        A.aluRR(Assembler::Alu::Xor, Width::W64, DLo, BLo);
        A.aluRR(Assembler::Alu::Xor, Width::W64, DHi, BHi);
        break;
      }
      finishDef(Id);
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg Br = useGp(I.B, 0);
    Reg D = defGp(Id, 0);
    A.movRR(Width::W64, D, Ar);
    Assembler::Alu Op;
    switch (I.Op) {
    case Opcode::Add:
      Op = Assembler::Alu::Add;
      break;
    case Opcode::Sub:
      Op = Assembler::Alu::Sub;
      break;
    case Opcode::And:
      Op = Assembler::Alu::And;
      break;
    case Opcode::Or:
      Op = Assembler::Alu::Or;
      break;
    default:
      Op = Assembler::Alu::Xor;
      break;
    }
    A.aluRR(Op, aluWidth(I.Ty), D, Br);
    recanonicalize(D, I.Ty);
    finishDef(Id);
  }

  /// Re-zero-extends narrow results computed with 32-bit operations.
  void recanonicalize(Reg R, Type Ty) {
    if (Ty == Type::I1)
      A.aluRI(Assembler::Alu::And, Width::W32, R, 1);
    else if (Ty == Type::I8)
      A.movzxRR(Width::W8, R, R);
    else if (Ty == Type::I16)
      A.movzxRR(Width::W16, R, R);
  }

  void emitMul(ValueId Id, const Inst &I) {
    if (I.Ty == Type::I128) {
      emitMul128(Id, I);
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg Br = useGp(I.B, 0);
    Reg D = defGp(Id, 0);
    A.movRR(Width::W64, D, Ar);
    A.imulRR(aluWidth(I.Ty), D, Br);
    recanonicalize(D, I.Ty);
    finishDef(Id);
  }

  /// Wrapping 128-bit multiply via three 64-bit multiplies; uses the fixed
  /// RAX/RDX sequence after flushing the register state.
  void emitMul128(ValueId Id, const Inst &I) {
    flushAllRegs();
    // rax = a.lo; r8 = b.lo; r9 = b.hi; rcx = a.hi
    A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
    A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));
    A.movRM(Width::W64, Reg::R9, memOf(I.B, 1));
    A.movRM(Width::W64, Reg::RCX, memOf(I.A, 1));
    A.movRR(Width::W64, Reg::R11, Reg::RAX); // save a.lo
    A.mulR(Width::W64, Reg::R8);             // rdx:rax = a.lo * b.lo
    A.movRR(Width::W64, Reg::RSI, Reg::RAX); // lo
    A.movRR(Width::W64, Reg::RDI, Reg::RDX); // hi
    A.imulRR(Width::W64, Reg::RCX, Reg::R8); // a.hi * b.lo
    A.aluRR(Assembler::Alu::Add, Width::W64, Reg::RDI, Reg::RCX);
    A.imulRR(Width::W64, Reg::R11, Reg::R9); // a.lo * b.hi
    A.aluRR(Assembler::Alu::Add, Width::W64, Reg::RDI, Reg::R11);
    attachGp(Reg::RSI, Id, 0);
    attachGp(Reg::RDI, Id, 1);
    finishDef(Id);
  }

  void emitDiv(ValueId Id, const Inst &I) {
    if (I.Ty == Type::I128) {
      const char *Helper = I.Op == Opcode::SDiv   ? "rt_sdiv128"
                           : I.Op == Opcode::UDiv ? "rt_udiv128"
                                                  : "rt_srem128";
      emitHelperCall128(Id, I.A, I.B, Helper);
      return;
    }
    bool Signed = I.Op != Opcode::UDiv;
    Type Ty = I.Ty;
    flushAllRegs();
    // Dividend in RAX (sign- or zero-extended to the ALU width), divisor
    // in R8; RDX is the high half / remainder.
    if (Signed && (Ty == Type::I8 || Ty == Type::I16))
      A.movsxRM(widthOf(Ty), Reg::RAX, memOf(I.A, 0));
    else
      A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
    if (Signed && (Ty == Type::I8 || Ty == Type::I16))
      A.movsxRM(widthOf(Ty), Reg::R8, memOf(I.B, 0));
    else
      A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));

    Width W = aluWidth(Ty);
    // Divide-by-zero check.
    A.testRR(W, Reg::R8, Reg::R8);
    A.jcc(Cond::E, trapLabel(rt::TrapCode::DivByZero));

    if (Signed) {
      Label Ok = A.newLabel();
      A.aluRI(Assembler::Alu::Cmp, W, Reg::R8, -1);
      if (I.Op == Opcode::SRem) {
        // srem x, -1 == 0 for every x (see Opcode.h); rewrite the
        // divisor to 1 — same remainder for all inputs — so idiv cannot
        // fault on INT_MIN.
        A.jcc(Cond::NE, Ok);
        A.movRI32(Reg::R8, 1);
      } else {
        // sdiv INT_MIN / -1 overflows: trap.
        A.jcc(Cond::NE, Ok);
        if (Ty == Type::I64) {
          A.movRI(Reg::R11, 0x8000000000000000ull);
          A.aluRR(Assembler::Alu::Cmp, Width::W64, Reg::RAX, Reg::R11);
        } else {
          int32_t Min = Ty == Type::I32   ? INT32_MIN
                        : Ty == Type::I16 ? -32768
                                          : -128;
          A.aluRI(Assembler::Alu::Cmp, W, Reg::RAX, Min);
        }
        A.jcc(Cond::E, trapLabel(rt::TrapCode::Overflow));
      }
      A.bind(Ok);
      if (W == Width::W64)
        A.cqo();
      else
        A.cdq();
      A.idivR(W, Reg::R8);
    } else {
      A.movRI32(Reg::RDX, 0);
      A.divR(W, Reg::R8);
    }

    // 32-bit divides leave eax/edx zero-extended; 8/16-bit results were
    // computed at 32 bits and must be re-canonicalized.
    Reg ResultReg = I.Op == Opcode::SRem ? Reg::RDX : Reg::RAX;
    attachGp(ResultReg, Id, 0);
    recanonicalize(ResultReg, Ty);
    finishDef(Id);
  }

  /// Calls a two-i128-argument runtime helper (the "libcall" pattern).
  void emitHelperCall128(ValueId Id, ValueId Av, ValueId Bv,
                         const char *Name) {
    flushAllRegs();
    A.movRM(Width::W64, Reg::RDI, memOf(Av, 0));
    A.movRM(Width::W64, Reg::RSI, memOf(Av, 1));
    A.movRM(Width::W64, Reg::RDX, memOf(Bv, 0));
    bool SecondIsTwoLane = qir::isTwoLane(F.valueType(Bv));
    if (SecondIsTwoLane)
      A.movRM(Width::W64, Reg::RCX, memOf(Bv, 1));
    A.movAbsRI(Reg::R10,
               reinterpret_cast<uint64_t>(rt::runtimeSymbolAddress(Name)));
    RtRelocs.push_back({A.size() - 8, Name});
    A.callReg(Reg::R10);
    Cfi.atCall(A.size() - FuncStart);
    attachGp(Reg::RAX, Id, 0);
    attachGp(Reg::RDX, Id, 1);
    finishDef(Id);
  }

  void emitShift(ValueId Id, const Inst &I) {
    if (I.Ty == Type::I128) {
      const char *Helper = I.Op == Opcode::Shl    ? "rt_shl128"
                           : I.Op == Opcode::LShr ? "rt_lshr128"
                                                  : "rt_ashr128";
      assert(I.Op != Opcode::RotR && "128-bit rotate is not supported");
      emitHelperCall128(Id, I.A, I.B, Helper);
      return;
    }
    // Shift amount goes through CL.
    evictGp(Reg::RCX);
    pin(Reg::RCX);
    copyToScratch(I.B, 0, Reg::RCX);
    unsigned Bits = qir::intBits(I.Ty);
    if (Bits < 32 && I.Op != Opcode::RotR)
      A.aluRI(Assembler::Alu::And, Width::W32, Reg::RCX,
              static_cast<int32_t>(Bits - 1));

    Reg Ar = useGp(I.A, 0);
    Reg D = defGp(Id, 0);
    switch (I.Op) {
    case Opcode::Shl:
      A.movRR(Width::W64, D, Ar);
      A.shiftRC(Assembler::Shift::Shl, aluWidth(I.Ty), D);
      recanonicalize(D, I.Ty);
      break;
    case Opcode::LShr:
      A.movRR(Width::W64, D, Ar);
      A.shiftRC(Assembler::Shift::Shr, aluWidth(I.Ty), D);
      // Canonical input means the 32-bit shift result is canonical.
      recanonicalize(D, I.Ty);
      break;
    case Opcode::AShr:
      if (I.Ty == Type::I8 || I.Ty == Type::I16)
        A.movsxRR(widthOf(I.Ty), D, Ar);
      else
        A.movRR(Width::W64, D, Ar);
      A.shiftRC(Assembler::Shift::Sar, aluWidth(I.Ty), D);
      recanonicalize(D, I.Ty);
      break;
    case Opcode::RotR:
      A.movRR(Width::W64, D, Ar);
      A.shiftRC(Assembler::Shift::Ror, widthOf(I.Ty), D);
      break;
    default:
      QCF_UNREACHABLE("not a shift");
    }
    finishDef(Id);
  }

  void emitNegNot(ValueId Id, const Inst &I, bool IsNeg) {
    if (I.Ty == Type::I128) {
      Reg ALo = useGp(I.A, 0), AHi = useGp(I.A, 1);
      Reg DLo = defGp(Id, 0), DHi = defGp(Id, 1);
      if (IsNeg) {
        A.movRI32(DLo, 0);
        A.movRI32(DHi, 0);
        A.aluRR(Assembler::Alu::Sub, Width::W64, DLo, ALo);
        A.aluRR(Assembler::Alu::Sbb, Width::W64, DHi, AHi);
      } else {
        A.movRR(Width::W64, DLo, ALo);
        A.notR(Width::W64, DLo);
        A.movRR(Width::W64, DHi, AHi);
        A.notR(Width::W64, DHi);
      }
      finishDef(Id);
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg D = defGp(Id, 0);
    A.movRR(Width::W64, D, Ar);
    if (IsNeg)
      A.negR(aluWidth(I.Ty), D);
    else
      A.notR(aluWidth(I.Ty), D);
    recanonicalize(D, I.Ty);
    finishDef(Id);
  }

  void emitAddSubTrap(ValueId Id, const Inst &I) {
    bool IsAdd = I.Op == Opcode::SAddTrap;
    if (I.Ty == Type::I128) {
      Reg ALo = useGp(I.A, 0), AHi = useGp(I.A, 1);
      Reg BLo = useGp(I.B, 0), BHi = useGp(I.B, 1);
      Reg DLo = defGp(Id, 0), DHi = defGp(Id, 1);
      A.movRR(Width::W64, DLo, ALo);
      A.movRR(Width::W64, DHi, AHi);
      A.aluRR(IsAdd ? Assembler::Alu::Add : Assembler::Alu::Sub, Width::W64,
              DLo, BLo);
      A.aluRR(IsAdd ? Assembler::Alu::Adc : Assembler::Alu::Sbb, Width::W64,
              DHi, BHi);
      A.jcc(Cond::O, trapLabel(rt::TrapCode::Overflow));
      finishDef(Id);
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg Br = useGp(I.B, 0);
    Reg D = defGp(Id, 0);
    A.movRR(Width::W64, D, Ar);
    A.aluRR(IsAdd ? Assembler::Alu::Add : Assembler::Alu::Sub,
            aluWidth(I.Ty), D, Br);
    A.jcc(Cond::O, trapLabel(rt::TrapCode::Overflow));
    recanonicalize(D, I.Ty);
    finishDef(Id);
  }

  void emitMulTrap(ValueId Id, const Inst &I) {
    if (I.Ty == Type::I128) {
      // Umbra-style: call the hand-optimized checked multiplication
      // (§V-A1); the helper traps on overflow itself.
      emitHelperCall128(Id, I.A, I.B, "rt_mul128_ovf");
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg Br = useGp(I.B, 0);
    Reg D = defGp(Id, 0);
    A.movRR(Width::W64, D, Ar);
    A.imulRR(aluWidth(I.Ty), D, Br);
    A.jcc(Cond::O, trapLabel(rt::TrapCode::Overflow));
    recanonicalize(D, I.Ty);
    finishDef(Id);
  }

  void emitLongMulFold(ValueId Id, const Inst &I) {
    flushAllRegs();
    A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
    A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));
    A.mulR(Width::W64, Reg::R8);
    A.aluRR(Assembler::Alu::Xor, Width::W64, Reg::RAX, Reg::RDX);
    attachGp(Reg::RAX, Id, 0);
    finishDef(Id);
  }

  void emitICmp(ValueId Id, const Inst &I) {
    Type OpTy = F.valueType(I.A);
    qir::CmpPred P = I.cmpPred();
    if (OpTy == Type::I128) {
      emitICmp128(Id, I, P);
      return;
    }
    Reg Ar = useGp(I.A, 0);
    Reg Br = useGp(I.B, 0);
    Reg D = defGp(Id, 0);
    A.aluRR(Assembler::Alu::Cmp, widthOf(OpTy), Ar, Br);
    A.setcc(condForPred(P), D);
    A.movzxRR(Width::W8, D, D);
    finishDef(Id);
  }

  void emitICmp128(ValueId Id, const Inst &I, qir::CmpPred P) {
    Reg ALo = useGp(I.A, 0), AHi = useGp(I.A, 1);
    Reg BLo = useGp(I.B, 0), BHi = useGp(I.B, 1);
    Reg D = defGp(Id, 0);
    if (P == qir::CmpPred::Eq || P == qir::CmpPred::Ne) {
      A.movRR(Width::W64, Reg::R11, ALo);
      A.aluRR(Assembler::Alu::Xor, Width::W64, Reg::R11, BLo);
      A.movRR(Width::W64, Reg::R10, AHi);
      A.aluRR(Assembler::Alu::Xor, Width::W64, Reg::R10, BHi);
      A.aluRR(Assembler::Alu::Or, Width::W64, Reg::R11, Reg::R10);
      A.setcc(P == qir::CmpPred::Eq ? Cond::E : Cond::NE, D);
      A.movzxRR(Width::W8, D, D);
      finishDef(Id);
      return;
    }
    // lt(a, b) via cmp/sbb; other predicates are lt with swapped operands
    // and/or inverted results.
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
    Reg XLo = Swap ? BLo : ALo, XHi = Swap ? BHi : AHi;
    Reg YLo = Swap ? ALo : BLo, YHi = Swap ? AHi : BHi;
    A.movRR(Width::W64, Reg::R11, XHi);
    A.aluRR(Assembler::Alu::Cmp, Width::W64, XLo, YLo);
    A.aluRR(Assembler::Alu::Sbb, Width::W64, Reg::R11, YHi);
    A.setcc(Signed ? Cond::L : Cond::B, D);
    if (Invert)
      A.aluRI(Assembler::Alu::Xor, Width::W32, D, 1);
    A.movzxRR(Width::W8, D, D);
    finishDef(Id);
  }

  void emitFCmp(ValueId Id, const Inst &I) {
    qir::CmpPred P = I.cmpPred();
    Xmm Ar = useXmm(I.A);
    Xmm Br = useXmm(I.B);
    Reg D = defGp(Id, 0);
    switch (P) {
    case qir::CmpPred::Eq: // ordered eq: ZF=1 && PF=0
      A.ucomisd(Ar, Br);
      A.setcc(Cond::E, D);
      A.setcc(Cond::NP, Reg::R11);
      A.aluRR(Assembler::Alu::And, Width::W8, D, Reg::R11);
      break;
    case qir::CmpPred::Ne: // unordered ne: ZF=0 || PF=1
      A.ucomisd(Ar, Br);
      A.setcc(Cond::NE, D);
      A.setcc(Cond::P, Reg::R11);
      A.aluRR(Assembler::Alu::Or, Width::W8, D, Reg::R11);
      break;
    case qir::CmpPred::SGt:
    case qir::CmpPred::UGt:
      A.ucomisd(Ar, Br);
      A.setcc(Cond::A, D);
      break;
    case qir::CmpPred::SGe:
    case qir::CmpPred::UGe:
      A.ucomisd(Ar, Br);
      A.setcc(Cond::AE, D);
      break;
    case qir::CmpPred::SLt:
    case qir::CmpPred::ULt:
      A.ucomisd(Br, Ar);
      A.setcc(Cond::A, D);
      break;
    case qir::CmpPred::SLe:
    case qir::CmpPred::ULe:
      A.ucomisd(Br, Ar);
      A.setcc(Cond::AE, D);
      break;
    }
    A.movzxRR(Width::W8, D, D);
    finishDef(Id);
  }

  void emitSelect(ValueId Id, const Inst &I) {
    Reg C = useGp(I.A, 0);
    if (I.Ty == Type::F64) {
      Xmm TrueV = useXmm(I.B);
      Xmm FalseV = useXmm(I.C);
      Xmm D = defXmm(Id);
      Label Skip = A.newLabel();
      A.movsdXX(D, TrueV);
      A.testRR(Width::W64, C, C);
      A.jcc(Cond::NE, Skip);
      A.movsdXX(D, FalseV);
      A.bind(Skip);
      finishDef(Id);
      return;
    }
    unsigned Lanes = qir::isTwoLane(I.Ty) ? 2 : 1;
    A.testRR(Width::W64, C, C);
    for (unsigned L = 0; L != Lanes; ++L) {
      Reg TrueV = useGp(I.B, L);
      Reg FalseV = useGp(I.C, L);
      Reg D = defGp(Id, L);
      A.movRR(Width::W64, D, TrueV);
      A.cmovcc(Cond::E, Width::W64, D, FalseV);
    }
    finishDef(Id);
  }

  void emitCall(ValueId Id, const Inst &I) {
    const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(I));
    assert(Sig.Address && "unbound runtime symbol");
    flushAllRegs();
    unsigned Slot = 0;
    for (unsigned K = 0, E = F.numCallArgs(I); K != E; ++K) {
      ValueId Arg = F.callArgs(I)[K];
      unsigned Lanes = qir::isTwoLane(F.valueType(Arg)) ? 2 : 1;
      for (unsigned L = 0; L != Lanes; ++L) {
        assert(Slot < 6 && "too many call argument slots");
        A.movRM(Width::W64, GpArgRegs[Slot++], memOf(Arg, L));
      }
    }
    A.movAbsRI(Reg::R10, reinterpret_cast<uint64_t>(Sig.Address));
    RtRelocs.push_back({A.size() - 8, Sig.Name});
    A.callReg(Reg::R10);
    Cfi.atCall(A.size() - FuncStart);
    if (I.Ty != Type::Void) {
      attachGp(Reg::RAX, Id, 0);
      if (qir::isTwoLane(I.Ty))
        attachGp(Reg::RDX, Id, 1);
      finishDef(Id);
    }
  }

  void emitCondBr(BlockId B, const Inst &I) {
    Reg C = useGp(I.A, 0);
    std::vector<EdgeMove> MovesT = edgeMoves(B, I.B);
    std::vector<EdgeMove> MovesF = edgeMoves(B, I.C);
    A.testRR(Width::W64, C, C);
    unpinAll();

    if (MovesT.empty() && MovesF.empty()) {
      A.jcc(Cond::NE, BlockLabels[I.B]);
      if (I.C != B + 1)
        A.jmp(BlockLabels[I.C]);
      return;
    }
    if (MovesT.empty()) {
      A.jcc(Cond::NE, BlockLabels[I.B]);
      applyEdgeMoves(MovesF);
      if (I.C != B + 1)
        A.jmp(BlockLabels[I.C]);
      return;
    }
    if (MovesF.empty()) {
      A.jcc(Cond::E, BlockLabels[I.C]);
      applyEdgeMoves(MovesT);
      A.jmp(BlockLabels[I.B]);
      return;
    }
    Label TrueStub = A.newLabel();
    A.jcc(Cond::NE, TrueStub);
    applyEdgeMoves(MovesF);
    A.jmp(BlockLabels[I.C]);
    A.bind(TrueStub);
    applyEdgeMoves(MovesT);
    A.jmp(BlockLabels[I.B]);
  }

  void emitRet(const Inst &I) {
    if (I.A != qir::INVALID_VALUE) {
      Type Ty = F.valueType(I.A);
      if (Ty == Type::F64) {
        // Return in xmm0.
        if (V[I.A].XReg != NOREG)
          A.movsdXX(Xmm::XMM0, static_cast<Xmm>(V[I.A].XReg));
        else
          A.movsdXM(Xmm::XMM0, memOf(I.A, 0));
      } else if (qir::isTwoLane(Ty)) {
        copyToScratchForRet(I.A, 1, Reg::R11);
        copyToScratchForRet(I.A, 0, Reg::RAX);
        A.movRR(Width::W64, Reg::RDX, Reg::R11);
      } else {
        copyToScratchForRet(I.A, 0, Reg::RAX);
      }
    }
    A.movRR(Width::W64, Reg::RSP, Reg::RBP);
    A.popR(Reg::RBP);
    A.ret();
  }

  /// Like copyToScratch but tolerates the destination holding a value
  /// (the function is about to return; tracking no longer matters).
  void copyToScratchForRet(ValueId Val, unsigned Lane, Reg Dst) {
    if (V[Val].Reg[Lane] != NOREG) {
      Reg Src = static_cast<Reg>(V[Val].Reg[Lane]);
      if (Src != Dst)
        A.movRR(Width::W64, Dst, Src);
    } else {
      A.movRM(Width::W64, Dst, memOf(Val, Lane));
    }
  }

public:
  size_t FuncStart = 0;

private:
  const qir::Function &F;
  Assembler &A;
  CfiWriter &Cfi;
  TimeTrace *Trace;

  std::optional<qir::CfgInfo> Cfg;
  std::optional<qir::DomTree> DT;
  std::optional<qir::LoopInfo> LI;
  std::vector<Bitset> LiveIn, LiveOut;
  std::vector<BlockId> DefBlock;
  std::vector<VInfo> V;
  std::map<ValueId, int32_t> StackSlotOff;

  ValueId GpVal[16] = {
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE};
  uint8_t GpLane[16] = {};
  bool GpPinned[16] = {};
  ValueId XmmVal[16] = {
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE, qir::INVALID_VALUE, qir::INVALID_VALUE,
      qir::INVALID_VALUE};
  bool XmmPinned[16] = {};
  unsigned NextEvict = 0;
  unsigned NextXmmEvict = 0;

  uint32_t NextFrame = 16;
  size_t FramePatchPos = 0;
  std::vector<Label> BlockLabels;
  Label TrapLabels[2] = {};
  bool TrapUsed[2] = {false, false};
};

} // namespace

// --- Module-level driver -----------------------------------------------------

size_t DirectModule::cfiRecordOffset(const std::string &Name) const {
  size_t I = Image.indexOf(Name);
  return I == SIZE_MAX ? SIZE_MAX : CfiOffsets[I];
}

std::unique_ptr<backend::CompiledModule>
DirectBackend::compile(const qir::Module &M,
                       const backend::CompileOptions &Opts) {
  obs::CompileObs CompObs(Opts.Obs, name());
  TimeTrace *Trace = CompObs.trace();
  auto Result = std::make_unique<DirectModule>();
  CfiWriter Cfi(Result->Cfi);

  if (Opts.Verify.Ir) {
    if (auto Err = qir::verify(M)) {
      fprintf(stderr, "%s\n", Err->c_str());
      reportFatalError("QIR verification failed (direct)");
    }
  }

  std::vector<x64::CodeImage::Piece> Pieces;
  for (const auto &F : M.functions()) {
    Assembler A;
    size_t CfiOff = Cfi.beginFunction(0);
    FunctionCompiler FC(*F, A, Cfi, Trace);
    FC.compile();
    Cfi.endFunction(CfiOff, A.size());
    Result->CfiOffsets.push_back(CfiOff);
    Pieces.push_back({F->name(), A.code(), std::move(FC.RtRelocs)});
    if (Opts.Verify.Mc) {
      // DirectEmit calls through registers, so the bytes are final here:
      // no relocations to exempt.
      std::string Err = x64::lintFunction(A.code().data(), A.size());
      if (!Err.empty()) {
        fprintf(stderr, "%s: in function '%s'\n", Err.c_str(),
                F->name().c_str());
        reportFatalError("machine-code lint failed (direct)");
      }
    }
  }

  TimeTraceScope Scope(Trace, "direct.link");
  Result->image().link(Pieces);

  if (Opts.Verify.Tv) {
    std::string Err = tv::validateModule(M, Result->tvFunctions(),
                                         tv::TvOptions::fromEnv(),
                                         Opts.Obs.Metrics);
    if (!Err.empty()) {
      fprintf(stderr, "%s", Err.c_str());
      reportFatalError("translation validation failed (direct)");
    }
  }
  return Result;
}

// --- Persistent-cache serialization --------------------------------------------

bool DirectModule::serialize(std::vector<uint8_t> &Out) const {
  ByteWriter W;
  if (!Image.serialize(W))
    return false;
  W.bytes(Cfi.data(), Cfi.size());
  for (uint64_t Off : CfiOffsets)
    W.u64(Off);
  Out = W.take();
  return true;
}

std::unique_ptr<backend::CompiledModule>
DirectBackend::deserialize(const uint8_t *Data, size_t Len) {
  ByteReader R(Data, Len);
  x64::CodeImage::Payload P;
  if (!P.decode(R))
    return nullptr;
  auto Result = std::make_unique<DirectModule>();
  auto [CfiData, CfiLen] = R.bytes();
  for (size_t I = 0; I != P.Fns.size(); ++I) {
    // Every record starts with an 8-byte header (code offset, length).
    uint64_t Off = R.u64();
    if (!R.ok() || CfiLen < 8 || Off > CfiLen - 8)
      return nullptr;
    Result->CfiOffsets.push_back(Off);
  }
  if (!R.ok() || R.remaining())
    return nullptr;
  Result->Cfi.assign(CfiData, CfiData + CfiLen);
  Result->image().install(std::move(P));
  return Result;
}

// --- CFI validation ------------------------------------------------------------

bool direct::validateCfi(const std::vector<uint8_t> &Buf, size_t FuncOff,
                         uint64_t CodeSize) {
  if (FuncOff > Buf.size() || Buf.size() - FuncOff < 8)
    return false;
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Buf[FuncOff + 4 + I]) << (I * 8);
  size_t Pos = FuncOff + 8, End = FuncOff + 8 + Len;
  if (End > Buf.size())
    return false;
  uint64_t Loc = 0;
  auto ReadUleb = [&](uint64_t *Out) {
    uint64_t V = 0;
    unsigned Shift = 0;
    while (Pos < End) {
      uint8_t B = Buf[Pos++];
      V |= static_cast<uint64_t>(B & 0x7f) << Shift;
      Shift += 7;
      if (!(B & 0x80)) {
        *Out = V;
        return true;
      }
    }
    return false;
  };
  while (Pos < End) {
    uint8_t Op = Buf[Pos++];
    uint64_t Arg;
    switch (static_cast<CfiOp>(Op)) {
    case CfiOp::AdvanceLoc:
      if (!ReadUleb(&Arg) || Arg == 0)
        return false;
      Loc += Arg;
      if (Loc > CodeSize)
        return false;
      break;
    case CfiOp::DefCfaOffset:
    case CfiOp::DefCfaRegister:
    case CfiOp::OffsetRbp:
      if (!ReadUleb(&Arg))
        return false;
      break;
    default:
      return false;
    }
  }
  return Pos == End;
}
