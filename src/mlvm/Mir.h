//===- mlvm/Mir.h - MLVM Machine IR -----------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MLVM's Machine IR (§V-B3): target instructions in SSA form with
/// unallocated virtual registers. All three instruction selectors produce
/// this representation (GlobalISel first produces generic G_* opcodes in
/// the same container); PHI elimination, two-address rewriting, register
/// allocation, and prologue/epilogue insertion transform it; the
/// AsmPrinter lowers it instruction by instruction into MCInsts.
///
/// Operands live in per-instruction vectors and are accessed through a
/// generic interface — the paper measures the addOperand path alone at 3%
/// of cheap-mode compile time (§V-B8).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_MLVM_MIR_H
#define QCF_MLVM_MIR_H

#include "qir/Type.h"
#include "support/MemContext.h"
#include "x64/Asm.h"
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace qcf::mlvm {

/// Register operand encoding: [0,16) physical GP, [32,48) physical XMM,
/// >= 64 virtual.
using MReg = uint32_t;
inline constexpr MReg MREG_VBASE = 64;
inline constexpr MReg MREG_NONE = 0xffffffffu;

inline bool isVReg(MReg R) { return R >= MREG_VBASE && R != MREG_NONE; }
inline bool isPGp(MReg R) { return R < 16; }
inline bool isPXmm(MReg R) { return R >= 32 && R < 48; }
inline MReg pgp(x64::Reg R) { return x64::regNum(R); }
inline MReg pxmm(x64::Xmm R) { return 32 + x64::regNum(R); }

/// Base register marker for spill-slot accesses until PEI runs. Note it
/// satisfies isVReg(); register scans must treat it separately.
inline constexpr MReg MLVM_SPILL_MARKER = 0xfffffffdu;

enum class MRegClass : uint8_t { Int, Float };

/// Machine opcodes. G_* opcodes are GlobalISel's generic MIR; they never
/// survive into register allocation.
enum class MOpc : uint16_t {
  // SSA-level pseudo instructions.
  PHI,  ///< def, then (use, mbb) pairs.
  COPY, ///< def, use (either class).
  // Three-address forms produced by instruction selection.
  MOVRI,    ///< def, Imm.
  ALU3,     ///< def, a, b; Aux = x64 Alu; W.
  ALURI3,   ///< def, a; Imm; Aux = x64 Alu; W.
  MUL3,     ///< def, a, b (signed imul); W.
  SHIFT3I,  ///< def, a; Imm; Aux = x64 Shift; W.
  SHIFT3C,  ///< def, a; amount pre-copied to CL; Aux; W.
  NEG2,     ///< def, a; W.
  NOT2,     ///< def, a; W.
  MOVZX2,   ///< def, a; Aux = source width.
  MOVSX2,   ///< def, a; Aux = source width.
  SETCC,    ///< def (byte, then zero-extended by a MOVZX2); CC.
  CMOV3,    ///< def, a, b; CC: def = CC ? a : b; W.
  CMP,      ///< a, b; W.
  CMPRI,    ///< a; Imm; W.
  TEST,     ///< a, b; W.
  CRC323,   ///< def, a, b.
  MULWIDE,  ///< use b; implicitly RAX in, RDX:RAX out; Aux = signed.
  DIVREM,   ///< use divisor; implicit RDX:RAX; Aux bit0 = signed; W.
  CQO,      ///< implicit RAX -> RDX:RAX; W.
  LOADZX,   ///< def, base; Disp; W.
  LOADSX,   ///< def, base; Disp; W.
  STORE,    ///< val, base; Disp; W.
  LEA,      ///< def, base [, index]; Disp, Scale.
  STACKADDR,///< def; Imm = frame index.
  XADD3,    ///< def, val, base; lock xadd; W.
  FMOV2,    ///< def, a (xmm).
  FALU3,    ///< def, a, b; Aux: 0 add 1 sub 2 mul 3 div.
  FLOAD,    ///< def, base; Disp.
  FSTORE,   ///< val, base; Disp.
  UCOMISD,  ///< a, b.
  CVTSI2SD, ///< def(xmm), a(gp).
  CVTTSD2SI,///< def(gp), a(xmm).
  MOVGX,    ///< def(gp), a(xmm).
  MOVXG,    ///< def(xmm), a(gp).
  CALL,     ///< Imm = callee table index; Aux = GP arg slot count.
  JMP,      ///< mbb.
  JCC,      ///< CC; mbb.
  RET,
  UD2,
  TRAPIF,   ///< CC; Imm = trap code.
  // Post-two-address forms (destination is also the first source).
  ALU2,
  ALURI2,
  MUL2,
  SHIFT2I,
  SHIFT2C,
  NEG1,
  NOT1,
  CMOV2,
  XADD2, ///< dst in/out, base.
  // GlobalISel generic opcodes (typed vregs; see MirFunction::VRegType).
  G_CONSTANT,
  G_BINOP,   ///< Aux = qir::Opcode for the operation.
  G_UNOP,    ///< Aux = qir::Opcode (Neg/Not/ZExt/SExt/Trunc/...).
  G_ICMP,    ///< CC encodes the predicate via Aux; operands a, b.
  G_FCMP,
  G_SELECT,
  G_LOAD,
  G_STORE,
  G_GEP,     ///< def, base [, index]; Imm = offset; Scale.
  G_STACKADDR,
  G_CALL,    ///< Imm = callee index; uses = arg lanes; defs = ret lanes.
  G_BR,
  G_BRCOND,
  G_RET,
  G_UNREACHABLE,
  G_MERGE,   ///< def(i128) from lo, hi.
  G_UNMERGE, ///< def lo, def hi from i128.
  G_TRAP_ARITH, ///< Aux = qir::Opcode (SAddTrap/...).
};

/// A generic machine operand.
struct MOperand {
  enum class Kind : uint8_t { RegDef, RegUse, Imm, Mbb };
  Kind K;
  MReg Reg = MREG_NONE;
  int64_t Imm = 0;
  uint32_t Mbb = 0;

  static MOperand def(MReg R) { return {Kind::RegDef, R, 0, 0}; }
  static MOperand use(MReg R) { return {Kind::RegUse, R, 0, 0}; }
  static MOperand imm(int64_t V) { return {Kind::Imm, MREG_NONE, V, 0}; }
  static MOperand mbb(uint32_t B) { return {Kind::Mbb, MREG_NONE, 0, B}; }
};

/// A machine instruction (allocated per object like llvm::MachineInstr,
/// from the owning MirFunction's MemPool; create via
/// MirFunction::createInstr so the operand tail shares the pool).
class MachineInstr {
public:
  MOpc Opc;
  x64::Width W = x64::Width::W64;
  x64::Cond CC = x64::Cond::E;
  uint16_t Aux = 0;
  uint8_t Scale = 1;
  int32_t Disp = 0;
  int64_t Imm = 0;
  PoolVector<MOperand> Operands;

  MachineInstr(MOpc Opc, MemPool &Pool) : Opc(Opc), Operands(Pool) {}

  /// The generic operand-append path (§V-B8's 3%).
  void addOperand(MOperand Op) { Operands.push_back(Op); }

  MReg reg(unsigned I) const { return Operands[I].Reg; }
};

/// Enumerates explicit register operands. Fn(MOperand*, isDef). Works on
/// const and non-const instructions (the operand pointer follows).
template <typename InstrT, typename FnT>
void forEachReg(InstrT &I, FnT Fn) {
  for (auto &Op : I.Operands) {
    if (Op.K == MOperand::Kind::RegDef)
      Fn(&Op, true);
    else if (Op.K == MOperand::Kind::RegUse)
      Fn(&Op, false);
  }
}

/// Enumerates implicit physical register effects (fixed-reg choreography
/// and call clobbers). Fn(physIndex, isDef).
template <typename FnT>
void forEachImplicitPhys(const MachineInstr &I, FnT Fn) {
  using x64::Reg;
  switch (I.Opc) {
  case MOpc::SHIFT3C:
  case MOpc::SHIFT2C:
    Fn(pgp(Reg::RCX), false);
    break;
  case MOpc::MULWIDE:
    Fn(pgp(Reg::RAX), false);
    Fn(pgp(Reg::RAX), true);
    Fn(pgp(Reg::RDX), true);
    break;
  case MOpc::DIVREM:
    Fn(pgp(Reg::RAX), false);
    Fn(pgp(Reg::RDX), false);
    Fn(pgp(Reg::RAX), true);
    Fn(pgp(Reg::RDX), true);
    break;
  case MOpc::CQO:
    Fn(pgp(Reg::RAX), false);
    Fn(pgp(Reg::RDX), true);
    break;
  case MOpc::CALL: {
    for (unsigned S = 0; S != I.Aux; ++S)
      Fn(pgp(x64::GpArgRegs[S]), false);
    for (Reg R : {Reg::RAX, Reg::RCX, Reg::RDX, Reg::RSI, Reg::RDI,
                  Reg::R8, Reg::R9})
      Fn(pgp(R), true);
    for (unsigned X = 0; X != 16; ++X)
      Fn(32 + X, true);
    break;
  }
  default:
    break;
  }
}

/// Printable opcode name (diagnostics; defined in MirVerify.cpp).
const char *mopcName(MOpc Opc);

/// A machine basic block. Pool-owning blocks (created by
/// MirFunction::createBlock) release their instructions through the pool;
/// pool-less blocks are splice scratch (IselImpl's phi-copy staging) and
/// must be emptied before destruction.
struct MachineBasicBlock {
  uint32_t Id;
  std::vector<MachineInstr *> Insts;
  std::vector<uint32_t> Succs;
  MemPool *Pool = nullptr;

  ~MachineBasicBlock() {
    if (!Pool)
      return;
    for (MachineInstr *I : Insts)
      Pool->destroy(I);
  }
};

/// Callee info for CALL instructions.
struct MirCallee {
  std::string Name;
  void *Address;
};

/// A machine function. Instructions draw from the MemPool handed to the
/// constructor; the default binds to the process heap pool so tests can
/// build MIR by hand.
class MirFunction {
public:
  MirFunction() : Pool(&MemPool::defaultHeap()) {}
  explicit MirFunction(MemPool &Pool) : Pool(&Pool) {}

  std::string Name;
  std::vector<std::unique_ptr<MachineBasicBlock>> Blocks;
  std::vector<MRegClass> VRegClass;
  std::vector<qir::Type> VRegType; ///< Used by GlobalISel's gMIR.
  std::vector<uint64_t> FrameObjects; ///< Stack slot sizes (frame indexes).
  std::vector<MirCallee> Callees;
  uint32_t NumParams = 0;

  MemPool &pool() { return *Pool; }

  /// The only way machine instructions are made (MIR, gMIR, and the
  /// selectors' DAG output all allocate here).
  MachineInstr *createInstr(MOpc Opc) {
    return Pool->create<MachineInstr>(Opc, *Pool);
  }

  /// Heap mode: frees a detached instruction. Arena mode: no-op (the node
  /// dies with the compile's MemContext, covering mid-pass unwinds).
  void destroyInstr(MachineInstr *I) { Pool->destroy(I); }

  MachineBasicBlock *createBlock() {
    Blocks.push_back(std::make_unique<MachineBasicBlock>());
    Blocks.back()->Id = static_cast<uint32_t>(Blocks.size() - 1);
    Blocks.back()->Pool = Pool;
    return Blocks.back().get();
  }

  MReg newVReg(MRegClass RC, qir::Type Ty = qir::Type::I64) {
    VRegClass.push_back(RC);
    VRegType.push_back(Ty);
    return MREG_VBASE + static_cast<MReg>(VRegClass.size() - 1);
  }

  MRegClass regClass(MReg R) const {
    assert(isVReg(R));
    return VRegClass[R - MREG_VBASE];
  }

  uint32_t numVRegs() const {
    return static_cast<uint32_t>(VRegClass.size());
  }

  uint32_t addFrameObject(uint64_t Size) {
    FrameObjects.push_back(Size);
    return static_cast<uint32_t>(FrameObjects.size() - 1);
  }

  uint32_t addCallee(const std::string &Name, void *Addr) {
    for (uint32_t I = 0; I != Callees.size(); ++I)
      if (Callees[I].Name == Name)
        return I;
    Callees.push_back({Name, Addr});
    return static_cast<uint32_t>(Callees.size() - 1);
  }

private:
  MemPool *Pool;
};

} // namespace qcf::mlvm

#endif // QCF_MLVM_MIR_H
