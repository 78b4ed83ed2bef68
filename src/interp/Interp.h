//===- interp/Interp.h - QIR bytecode interpreter ---------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter back-end (§VIII): QIR is translated into register-based
/// bytecode — per-value register slots, branch instructions carrying
/// pre-resolved phi move lists, and calls with pre-resolved host addresses
/// — and executed by a switch dispatch loop. Translation is the
/// interpreter's "compile time" in Table III.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_INTERP_INTERP_H
#define QCF_INTERP_INTERP_H

#include "backend/Backend.h"
#include "qir/Function.h"
#include "qir/Semantics.h"
#include "x64/CallbackThunk.h"
#include <memory>
#include <vector>

namespace qcf::interp {

/// A 16-byte value slot: one value in the canonical two-lane form of
/// qir/Semantics.h.
using Slot = qir::Lanes;

/// One translated bytecode instruction.
struct TInst {
  qir::Opcode Op;
  qir::Type Ty;
  uint8_t Flags;
  qir::Type SrcTy; ///< Type of operand A for icmp, sext and sitofp.
  uint32_t Dst; ///< Destination register (== original value id).
  uint32_t A;
  uint32_t B;
  uint32_t C;
  uint64_t Imm;

  qir::CmpPred cmpPred() const { return static_cast<qir::CmpPred>(Flags); }
};

/// A translated function. It keeps no reference to its qir::Function:
/// everything run() reads is copied at translate time, so the code stays
/// valid after the module it came from is freed (a CachingBackend hit
/// runs code whose source module died with the plan that compiled it).
class InterpFunction {
public:
  InterpFunction(const qir::Function &F);

  /// Runs the function. \p ArgLanes holds the parameter lanes in order
  /// (two-lane types contribute two lanes). \returns the result (two
  /// lanes; Hi is zero for one-lane results).
  Slot run(const uint64_t *ArgLanes, unsigned NumLanes) const;

  /// Number of parameter lanes this function expects.
  unsigned numParamLanes() const { return NumParamLanes; }

private:
  friend class InterpretedModule;

  struct Edge {
    uint32_t TargetPc;
    uint32_t MoveOff;
    uint32_t MoveCount;
  };
  struct Move {
    uint32_t Dst;
    uint32_t Src;
  };
  struct CallDesc {
    void *Addr;
    uint8_t NumSlots;
    uint8_t RetKind; ///< 0 = void, 1 = one lane, 2 = two lanes.
    uint32_t ArgOff; ///< Offset into ArgRegs.
    uint32_t NumArgs;
  };
  struct ArgRef {
    uint32_t Reg;
    uint8_t Lanes;
  };

  void translate(const qir::Function &F);
  void applyEdge(const Edge &E, Slot *Regs) const;
  uint32_t buildEdgeMoves(const qir::Function &F, qir::BlockId From,
                          qir::BlockId To);

  std::vector<TInst> Code;
  std::vector<uint32_t> BlockPc;
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

/// CompiledModule wrapper: entry() returns a machine-code trampoline that
/// enters the dispatch loop, so interpreted functions are callable through
/// plain C function pointers (including as runtime callbacks).
class InterpretedModule : public backend::CompiledModule {
public:
  explicit InterpretedModule(const qir::Module &M);

  void *entry(const std::string &Name) override;

  /// Direct access for tests.
  const InterpFunction *function(const std::string &Name) const;

private:
  std::vector<std::pair<std::string, std::unique_ptr<InterpFunction>>> Fns;
  x64::ThunkAllocator Thunks;
  std::vector<std::pair<std::string, void *>> Entries;
};

/// The interpreter back-end.
class InterpBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "Interpreter"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;
};

} // namespace qcf::interp

#endif // QCF_INTERP_INTERP_H
