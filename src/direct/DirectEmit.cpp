//===- direct/DirectEmit.cpp - Single-pass x86-64 back-end ----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Value placement model
// ---------------------
// Every SSA value is in the canonical form x64/QirLower.h defines, and the
// scalar opcodes are emitted through that lowering, the one the stencil
// table builds its cores with. Values that live across a basic-block
// boundary ("globals": parameters, phis, phi incomings, and anything in a
// block's live-out set) get a fixed rbp-relative home slot and are stored
// there once at their definition. Block-local values stay in scratch
// registers and are lazily spilled under pressure; R10 and R11 stay out of
// the pool as the lowering's scratch. Register state dies at block
// boundaries; phi updates happen as parallel move sequences on the edges.
//
//===----------------------------------------------------------------------===//

#include "direct/DirectEmit.h"
#include "direct/Cfi.h"
#include "qir/Cfg.h"
#include "qir/Operands.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "support/Bitset.h"
#include "support/Compiler.h"
#include "x64/Decode.h"
#include "x64/QirLower.h"
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

  /// useGp/defGp over every lane of a GP value, low lane first.
  Lanes useLanes(ValueId Val) {
    Lanes L{useGp(Val, 0)};
    if (qir::isTwoLane(F.valueType(Val)))
      L.Hi = useGp(Val, 1);
    return L;
  }

  Lanes defLanes(ValueId Val) {
    Lanes L{defGp(Val, 0)};
    if (qir::isTwoLane(F.valueType(Val)))
      L.Hi = defGp(Val, 1);
    return L;
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

  void emitTrapStubs() {
    for (auto [L, Code] : {std::pair{Sink.Ovf, rt::TrapCode::Overflow},
                           std::pair{Sink.Div, rt::TrapCode::DivByZero}}) {
      if (L == LowerSink::NoLabel)
        continue;
      A.bind(L);
      size_t Field = lowerTrapStub(
          A, Code,
          reinterpret_cast<uint64_t>(rt::runtimeSymbolAddress("rt_trap")));
      RtRelocs.push_back({Field, "rt_trap"});
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
    if (I.Ty == Type::I128)
      if (const char *Helper = runtimeHelper128(I.Op)) {
        ValueId Args[] = {I.A, I.B};
        emitCall(Id, Args, 2, Helper, rt::runtimeSymbolAddress(Helper));
        return;
      }
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

    case Opcode::Mul:
      if (I.Ty == Type::I128) {
        // Fixed registers (a.lo in rax), so flush the register state first.
        flushAllRegs();
        A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
        A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));
        A.movRM(Width::W64, Reg::R9, memOf(I.B, 1));
        A.movRM(Width::W64, Reg::RCX, memOf(I.A, 1));
        lowerMul128(A, {Reg::RSI, Reg::RDI}, {Reg::RAX, Reg::RCX},
                    {Reg::R8, Reg::R9});
        attachGp(Reg::RSI, Id, 0);
        attachGp(Reg::RDI, Id, 1);
        finishDef(Id);
        return;
      }
      [[fallthrough]];
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::SAddTrap:
    case Opcode::SSubTrap:
    case Opcode::SMulTrap: {
      Lanes Ar = useLanes(I.A), Br = useLanes(I.B), D = defLanes(Id);
      lowerArith(A, I.Op, I.Ty, D, Ar, Br, Sink);
      finishDef(Id);
      return;
    }
    case Opcode::SDiv:
    case Opcode::UDiv:
    case Opcode::SRem: {
      // Dividend in RAX, divisor in R8; RDX is the high half / remainder.
      flushAllRegs();
      A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
      A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));
      Reg R = I.Op == Opcode::SRem ? Reg::RDX : Reg::RAX;
      lowerDivRem(A, I.Op, I.Ty, Reg::R8, R, Sink);
      attachGp(R, Id, 0);
      finishDef(Id);
      return;
    }
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
    case Opcode::RotR: {
      // The amount goes through CL.
      evictGp(Reg::RCX);
      pin(Reg::RCX);
      copyToScratch(I.B, 0, Reg::RCX);
      Reg Ar = useGp(I.A, 0), D = defGp(Id, 0);
      lowerShift(A, I.Op, I.Ty, D, Ar);
      finishDef(Id);
      return;
    }
    case Opcode::Neg:
    case Opcode::Not: {
      Lanes Ar = useLanes(I.A), D = defLanes(Id);
      lowerNegNot(A, I.Op, I.Ty, D, Ar);
      finishDef(Id);
      return;
    }

    case Opcode::Crc32: {
      Reg Ar = useGp(I.A, 0), Br = useGp(I.B, 0), D = defGp(Id, 0);
      lowerCrc32(A, D, Ar, Br);
      finishDef(Id);
      return;
    }
    case Opcode::LongMulFold:
      flushAllRegs();
      A.movRM(Width::W64, Reg::RAX, memOf(I.A, 0));
      A.movRM(Width::W64, Reg::R8, memOf(I.B, 0));
      lowerLongMulFold(A, Reg::R8);
      attachGp(Reg::RAX, Id, 0);
      finishDef(Id);
      return;

    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv: {
      Xmm Ar = useXmm(I.A), Br = useXmm(I.B), D = defXmm(Id);
      lowerFArith(A, I.Op, D, Ar, Br);
      finishDef(Id);
      return;
    }
    case Opcode::FNeg: {
      Xmm Ar = useXmm(I.A);
      Reg Tmp = allocGp();
      pin(Tmp);
      lowerFNeg(A, defXmm(Id), Ar, Tmp);
      finishDef(Id);
      return;
    }

    case Opcode::ICmp: {
      Lanes Ar = useLanes(I.A), Br = useLanes(I.B);
      lowerICmp(A, I.cmpPred(), F.valueType(I.A), defGp(Id, 0), Ar, Br);
      finishDef(Id);
      return;
    }
    case Opcode::FCmp: {
      Xmm Ar = useXmm(I.A), Br = useXmm(I.B);
      lowerFCmp(A, I.cmpPred(), defGp(Id, 0), Ar, Br);
      finishDef(Id);
      return;
    }
    case Opcode::Select: {
      Reg C = useGp(I.A, 0);
      if (I.Ty == Type::F64) {
        Xmm Tv = useXmm(I.B), Fv = useXmm(I.C);
        lowerSelectF64(A, C, defXmm(Id), Tv, Fv);
      } else {
        // Allocated per lane (true, false, destination), so each lane's
        // registers are chosen together.
        Lanes Tv{useGp(I.B, 0)}, Fv{useGp(I.C, 0)}, D{defGp(Id, 0)};
        if (qir::isTwoLane(I.Ty)) {
          Tv.Hi = useGp(I.B, 1);
          Fv.Hi = useGp(I.C, 1);
          D.Hi = defGp(Id, 1);
        }
        lowerSelect(A, I.Ty, C, D, Tv, Fv);
      }
      finishDef(Id);
      return;
    }

    case Opcode::ZExt: {
      Reg Ar = useGp(I.A, 0);
      lowerZExt(A, I.Ty, defLanes(Id), Ar);
      finishDef(Id);
      return;
    }
    case Opcode::SExt: {
      Reg Ar = useGp(I.A, 0);
      lowerSExt(A, F.valueType(I.A), I.Ty, defLanes(Id), Ar);
      finishDef(Id);
      return;
    }
    case Opcode::Trunc: {
      Reg Ar = useGp(I.A, 0); // lo lane of i128 or the single lane
      lowerTrunc(A, I.Ty, defGp(Id, 0), Ar);
      finishDef(Id);
      return;
    }
    case Opcode::SIToFP: {
      Reg Ar = useGp(I.A, 0);
      Reg Tmp = allocGp();
      pin(Tmp);
      lowerSIToFP(A, F.valueType(I.A), defXmm(Id), Tmp, Ar);
      finishDef(Id);
      return;
    }
    case Opcode::FPToSI: {
      Xmm Ar = useXmm(I.A);
      lowerFPToSI(A, I.Ty, defGp(Id, 0), Ar);
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
      if (I.Ty == Type::F64)
        A.movsdXM(defXmm(Id), Mem::base(P));
      else
        lowerLoad(A, I.Ty, defLanes(Id), P);
      finishDef(Id);
      return;
    }
    case Opcode::Store: {
      Reg P = useGp(I.A, 0);
      if (I.Ty == Type::F64)
        A.movsdMX(Mem::base(P), useXmm(I.B));
      else
        lowerStore(A, I.Ty, P, useLanes(I.B));
      unpinAll();
      return;
    }
    case Opcode::Gep: {
      Reg Base = useGp(I.A, 0), D = defGp(Id, 0);
      Reg Idx = I.B == qir::INVALID_VALUE ? Reg::NoReg : useGp(I.B, 0);
      lowerGep(A, D, Base, Idx, static_cast<int32_t>(I.C),
               static_cast<int32_t>(static_cast<int64_t>(I.Imm)), Sink);
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

    case Opcode::Call: {
      const qir::RuntimeSig &Sig = F.parent()->symbol(F.callee(I));
      assert(Sig.Address && "unbound runtime symbol");
      emitCall(Id, F.callArgs(I), F.numCallArgs(I), Sig.Name, Sig.Address);
      return;
    }

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

  /// Calls runtime function \p Name at \p Addr, passing each argument lane
  /// by lane in the SysV argument registers; a result lands in RAX(/RDX).
  void emitCall(ValueId Id, const ValueId *Args, unsigned NumArgs,
                const std::string &Name, const void *Addr) {
    flushAllRegs();
    unsigned Slot = 0;
    for (unsigned K = 0; K != NumArgs; ++K) {
      unsigned Lanes = qir::isTwoLane(F.valueType(Args[K])) ? 2 : 1;
      for (unsigned L = 0; L != Lanes; ++L) {
        assert(Slot < 6 && "too many call argument slots");
        A.movRM(Width::W64, GpArgRegs[Slot++], memOf(Args[K], L));
      }
    }
    RtRelocs.push_back(
        {lowerCallAbs(A, reinterpret_cast<uint64_t>(Addr)), Name});
    Cfi.atCall(A.size() - FuncStart);
    Type RetTy = F.valueType(Id);
    if (RetTy != Type::Void) {
      attachGp(Reg::RAX, Id, 0);
      if (qir::isTwoLane(RetTy))
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
  LowerSink Sink;
};

} // namespace

// --- Module-level driver -----------------------------------------------------

size_t DirectModule::cfiRecordOffset(const std::string &Name) const {
  size_t I = Image.indexOf(Name);
  return I < CfiOffsets.size() ? CfiOffsets[I] : SIZE_MAX;
}

std::unique_ptr<backend::CompiledModule>
DirectBackend::compile(const qir::Module &M,
                       const backend::CompileOptions &Opts) {
  obs::CompileObs CompObs(Opts.Obs, name());
  TimeTrace *Trace = CompObs.trace();
  auto Result = std::make_unique<DirectModule>();
  CfiWriter Cfi(Result->Cfi);

  if (Opts.Verify.Ir)
    qir::verifyOrDie(M, "direct");

  std::vector<x64::CodeImage::Piece> Pieces;
  for (const auto &F : M.functions()) {
    Assembler A;
    size_t CfiOff = Cfi.beginFunction(0);
    FunctionCompiler FC(*F, A, Cfi, Trace);
    FC.compile();
    Cfi.endFunction(CfiOff, A.size());
    Result->CfiOffsets.push_back(CfiOff);
    Pieces.push_back({F->name(), A.code(), std::move(FC.RtRelocs)});
    // DirectEmit calls through registers, so the bytes are final here:
    // no relocations to exempt.
    if (Opts.Verify.Mc)
      x64::lintOrDie(A.code().data(), A.size(), {}, F->name(), "direct");
  }

  TimeTraceScope Scope(Trace, "direct.link");
  Result->image().link(Pieces);

  if (Opts.Verify.Tv)
    tv::validateOrDie(M, Result->tvFunctions(), Opts.Obs.Metrics, "direct");
  return Result;
}

// --- Persistent-cache serialization --------------------------------------------

// The payload is the image section alone: the CFI table stays in memory
// (it has no consumer), so a warm-installed module carries none.
std::unique_ptr<backend::CompiledModule>
DirectBackend::deserialize(const uint8_t *Data, size_t Len) {
  return backend::installImage<DirectModule>(Data, Len);
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
