//===- qir/Cfg.h - CFG analyses over QIR ------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control-flow analyses shared by the back-ends: predecessor lists,
/// reverse post-order, dominator tree (Cooper-Harvey-Kennedy), and natural
/// loop detection. The DirectEmit back-end runs exactly these analyses in
/// its single analysis pass (§VII); Craneline and MLVM reuse them where
/// their originals would compute the same information.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_CFG_H
#define QCF_QIR_CFG_H

#include "qir/Function.h"
#include <span>
#include <vector>

namespace qcf::qir {

/// Predecessor lists and block layout order helpers. All predecessor
/// lists share one flat array, and compute() reuses the storage of an
/// earlier function, so analysing a module's functions in turn allocates
/// only when a function is larger than every one before it.
class CfgInfo {
public:
  CfgInfo() = default;
  explicit CfgInfo(const Function &F) { compute(F); }

  /// (Re)computes the analysis for \p F. Every branch target of \p F must
  /// be a block of \p F.
  void compute(const Function &F);

  std::span<const BlockId> preds(BlockId B) const {
    return {PredList.data() + PredBegin[B], numPreds(B)};
  }
  unsigned numPreds(BlockId B) const {
    return PredBegin[B + 1] - PredBegin[B];
  }

  /// Blocks in reverse post-order of a DFS from entry. Unreachable blocks
  /// are excluded.
  const std::vector<BlockId> &rpo() const { return Rpo; }

  /// Position of \p B in the RPO sequence (UINT32_MAX if unreachable).
  uint32_t rpoIndex(BlockId B) const { return RpoIndex[B]; }

  bool isReachable(BlockId B) const { return RpoIndex[B] != INVALID_BLOCK; }

private:
  /// preds(B) is PredList[PredBegin[B], PredBegin[B + 1]).
  std::vector<uint32_t> PredBegin;
  std::vector<BlockId> PredList;
  std::vector<BlockId> Rpo;
  std::vector<uint32_t> RpoIndex;
  // Scratch, kept for reuse: each block's successors and the DFS stack.
  std::vector<BlockId> Succ;
  std::vector<std::pair<BlockId, unsigned>> Stack;
};

/// Dominator tree via the Cooper-Harvey-Kennedy iterative algorithm.
class DomTree {
public:
  DomTree() = default;
  DomTree(const Function &F, const CfgInfo &Cfg) { compute(F, Cfg); }

  /// (Re)computes the tree for \p F, reusing this object's storage.
  /// \p Cfg must stay alive and unchanged while the tree is queried.
  void compute(const Function &F, const CfgInfo &Cfg);

  /// Immediate dominator (INVALID_BLOCK for entry / unreachable blocks).
  BlockId idom(BlockId B) const { return Idom[B]; }

  /// True iff \p A dominates \p B (reflexive).
  bool dominates(BlockId A, BlockId B) const;

private:
  const CfgInfo *Cfg = nullptr;
  std::vector<BlockId> Idom;
};

/// Natural loop info: loop depth per block, derived from back edges
/// (an edge B -> H where H dominates B).
class LoopInfo {
public:
  LoopInfo(const Function &F, const CfgInfo &Cfg, const DomTree &DT);

  unsigned loopDepth(BlockId B) const { return Depth[B]; }
  bool isLoopHeader(BlockId B) const { return Header[B]; }
  unsigned numLoops() const { return NumLoops; }

private:
  std::vector<unsigned> Depth;
  std::vector<bool> Header;
  unsigned NumLoops = 0;
};

} // namespace qcf::qir

#endif // QCF_QIR_CFG_H
