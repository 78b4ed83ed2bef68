//===- qir/Cfg.cpp - CFG analyses over QIR --------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "qir/Cfg.h"
#include <algorithm>

using namespace qcf;
using namespace qcf::qir;

void CfgInfo::compute(const Function &F) {
  uint32_t N = F.numBlocks();
  // Doubles as the DFS's visited mark until the real indices are set.
  RpoIndex.assign(N, INVALID_BLOCK);
  // A reached block's distinct successors, read from its terminator once:
  // Succ[2B] and Succ[2B + 1], INVALID_BLOCK where absent. A block
  // branching to the same successor on both edges has one successor (phi
  // incomings are per-predecessor, not per-edge).
  Succ.resize(2 * size_t(N));
  auto Reach = [&](BlockId B) {
    RpoIndex[B] = 0;
    const Inst &Term = F.terminator(B);
    unsigned E = F.numSuccessors(Term);
    BlockId S0 = E > 0 ? F.successor(Term, 0) : INVALID_BLOCK;
    BlockId S1 = E > 1 ? F.successor(Term, 1) : INVALID_BLOCK;
    Succ[2 * B] = S0;
    Succ[2 * B + 1] = S1 == S0 ? INVALID_BLOCK : S1;
  };

  // Post-order DFS from entry using an explicit stack. The post-order is
  // collected in Rpo and reversed in place.
  Stack.clear();
  Rpo.clear();
  if (N != 0) {
    Reach(0);
    Stack.push_back({0, 0});
  }
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc == 2) {
      Rpo.push_back(B);
      Stack.pop_back();
      continue;
    }
    BlockId S = Succ[2 * B + NextSucc++];
    if (S != INVALID_BLOCK && RpoIndex[S] == INVALID_BLOCK) {
      Reach(S);
      Stack.push_back({S, 0});
    }
  }

  std::reverse(Rpo.begin(), Rpo.end());
  for (uint32_t I = 0; I != Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = I;

  // Predecessors, restricted to reachable blocks, in RPO order of the
  // predecessor: counted into PredBegin, summed into each list's end, and
  // filled from the back so that each PredBegin[S] ends at its list's
  // start.
  PredBegin.assign(N + 1, 0);
  for (BlockId B : Rpo)
    for (unsigned K = 0; K != 2; ++K)
      if (BlockId S = Succ[2 * B + K]; S != INVALID_BLOCK)
        ++PredBegin[S];
  for (uint32_t B = 1; B <= N; ++B)
    PredBegin[B] += PredBegin[B - 1];
  PredList.resize(PredBegin[N]);
  for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It)
    for (unsigned K = 0; K != 2; ++K)
      if (BlockId S = Succ[2 * *It + K]; S != INVALID_BLOCK)
        PredList[--PredBegin[S]] = *It;
}

void DomTree::compute(const Function &F, const CfgInfo &Cfg) {
  this->Cfg = &Cfg;
  uint32_t N = F.numBlocks();
  Idom.assign(N, INVALID_BLOCK);
  const std::vector<BlockId> &Rpo = Cfg.rpo();
  if (Rpo.empty())
    return;

  BlockId Entry = Rpo.front();
  Idom[Entry] = Entry;

  auto intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (Cfg.rpoIndex(A) > Cfg.rpoIndex(B))
        A = Idom[A];
      while (Cfg.rpoIndex(B) > Cfg.rpoIndex(A))
        B = Idom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I != Rpo.size(); ++I) {
      BlockId B = Rpo[I];
      BlockId NewIdom = INVALID_BLOCK;
      for (BlockId P : Cfg.preds(B)) {
        if (Idom[P] == INVALID_BLOCK)
          continue; // Not yet processed.
        NewIdom = NewIdom == INVALID_BLOCK ? P : intersect(P, NewIdom);
      }
      if (NewIdom != Idom[B]) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
  // Entry's idom is conventionally "none".
  Idom[Entry] = INVALID_BLOCK;
}

bool DomTree::dominates(BlockId A, BlockId B) const {
  if (!Cfg->isReachable(A) || !Cfg->isReachable(B))
    return false;
  // Walk B's idom chain; RPO index strictly decreases, so this terminates.
  while (B != INVALID_BLOCK) {
    if (A == B)
      return true;
    if (Cfg->rpoIndex(B) <= Cfg->rpoIndex(A))
      return false;
    B = Idom[B];
  }
  return false;
}

LoopInfo::LoopInfo(const Function &F, const CfgInfo &Cfg, const DomTree &DT) {
  uint32_t N = F.numBlocks();
  Depth.assign(N, 0);
  Header.assign(N, false);

  // For each back edge Tail -> Head, all blocks in the natural loop body
  // (found by a reverse flood from Tail stopping at Head) get +1 depth.
  for (BlockId Tail : Cfg.rpo()) {
    const Inst &Term = F.terminator(Tail);
    for (unsigned I = 0, E = F.numSuccessors(Term); I != E; ++I) {
      BlockId Head = F.successor(Term, I);
      if (!DT.dominates(Head, Tail))
        continue;
      ++NumLoops;
      Header[Head] = true;
      std::vector<BlockId> Work{Tail};
      std::vector<bool> InLoop(N, false);
      InLoop[Head] = true;
      ++Depth[Head];
      while (!Work.empty()) {
        BlockId B = Work.back();
        Work.pop_back();
        if (InLoop[B])
          continue;
        InLoop[B] = true;
        ++Depth[B];
        for (BlockId P : Cfg.preds(B))
          Work.push_back(P);
      }
    }
  }
}
