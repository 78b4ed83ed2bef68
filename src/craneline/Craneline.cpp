//===- craneline/Craneline.cpp - Craneline back-end driver -----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "craneline/Craneline.h"
#include "craneline/Emit.h"
#include "craneline/Lower.h"
#include "craneline/RegAlloc.h"
#include "craneline/Translate.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "x64/Decode.h"
#include <cstring>

using namespace qcf;
using namespace qcf::craneline;

namespace {

/// The "IRPasses" stage (Fig. 4): CFG predecessor lists, reverse
/// post-order, and an iterative dominator tree over CIR. The results feed
/// nothing downstream in QCF's pipeline (lowering is per-block), but the
/// stage exists in Cranelift and its cost is part of the breakdown.
///
/// All side tables draw from the compile's scratch pool: the predecessor
/// lists are CSR-shaped (one offset array + one flat list) rather than a
/// vector-of-vectors, so the whole analysis is a handful of flat pool
/// buffers that the per-function clear releases wholesale in Arena mode.
struct CirAnalyses {
  PoolVector<uint32_t> PredStart; ///< CSR offsets, size N+1.
  PoolVector<uint32_t> PredList;  ///< Flat predecessor ids.
  PoolVector<uint32_t> Rpo;
  PoolVector<uint32_t> Idom;

  explicit CirAnalyses(MemPool &Pool)
      : PredStart(Pool), PredList(Pool), Rpo(Pool), Idom(Pool) {}

  /// Predecessors of \p B.
  std::pair<const uint32_t *, const uint32_t *> preds(uint32_t B) const {
    return {PredList.data() + PredStart[B], PredList.data() + PredStart[B + 1]};
  }
};

void runIrPasses(const CFunction &CF, CirAnalyses *Out, MemPool &Pool) {
  size_t N = CF.Blocks.size();

  // Successors: every block ends in at most two edges, so one counting
  // pass + one fill pass build the CSR tables without per-block vectors.
  PoolVector<uint32_t> SuccStart(N + 1, 0, Pool), SuccList(Pool);
  auto ForEachSucc = [&](uint32_t B, auto Fn) {
    uint32_t Last = CF.Blocks[B].LastInst;
    if (Last == C_INVALID)
      return;
    const CInst &T = CF.Insts[Last];
    if (T.Op == COp::Jump) {
      Fn(T.A);
    } else if (T.Op == COp::Brif) {
      Fn(CF.Edges[T.B].Target);
      Fn(CF.Edges[T.C].Target);
    }
  };
  Out->PredStart.assign(N + 1, 0);
  for (CBlock B = CF.FirstBlock; B != C_INVALID; B = CF.BlockNext[B])
    ForEachSucc(B, [&](uint32_t S) {
      ++SuccStart[B + 1];
      ++Out->PredStart[S + 1];
    });
  for (uint32_t B = 0; B != N; ++B) {
    SuccStart[B + 1] += SuccStart[B];
    Out->PredStart[B + 1] += Out->PredStart[B];
  }
  SuccList.assign(SuccStart[N], 0);
  Out->PredList.assign(Out->PredStart[N], 0);
  {
    PoolVector<uint32_t> SuccFill(SuccStart.begin(), SuccStart.end() - 1,
                                  Pool),
        PredFill(Out->PredStart.begin(), Out->PredStart.end() - 1, Pool);
    for (CBlock B = CF.FirstBlock; B != C_INVALID; B = CF.BlockNext[B])
      ForEachSucc(B, [&](uint32_t S) {
        SuccList[SuccFill[B]++] = S;
        Out->PredList[PredFill[S]++] = B;
      });
  }

  // DFS post-order from the entry block.
  PoolVector<uint8_t> State(N, 0, Pool);
  PoolVector<uint32_t> Stack(Pool), Post(Pool);
  PoolVector<size_t> NextChild(N, 0, Pool);
  Stack.push_back(CF.FirstBlock);
  State[CF.FirstBlock] = 1;
  while (!Stack.empty()) {
    uint32_t B = Stack.back();
    size_t NumSuccs = SuccStart[B + 1] - SuccStart[B];
    if (NextChild[B] < NumSuccs) {
      uint32_t S = SuccList[SuccStart[B] + NextChild[B]++];
      if (!State[S]) {
        State[S] = 1;
        Stack.push_back(S);
      }
    } else {
      Post.push_back(B);
      Stack.pop_back();
    }
  }
  Out->Rpo.assign(Post.rbegin(), Post.rend());

  PoolVector<uint32_t> RpoIdx(N, UINT32_MAX, Pool);
  for (uint32_t I = 0; I != Out->Rpo.size(); ++I)
    RpoIdx[Out->Rpo[I]] = I;
  Out->Idom.assign(N, UINT32_MAX);
  if (!Out->Rpo.empty())
    Out->Idom[Out->Rpo[0]] = Out->Rpo[0];
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RpoIdx[A] > RpoIdx[B])
        A = Out->Idom[A];
      while (RpoIdx[B] > RpoIdx[A])
        B = Out->Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < Out->Rpo.size(); ++I) {
      uint32_t B = Out->Rpo[I];
      uint32_t New = UINT32_MAX;
      auto [P, E] = Out->preds(B);
      for (; P != E; ++P) {
        if (Out->Idom[*P] == UINT32_MAX)
          continue;
        New = New == UINT32_MAX ? *P : Intersect(*P, New);
      }
      if (New != Out->Idom[B]) {
        Out->Idom[B] = New;
        Changed = true;
      }
    }
  }
}

} // namespace

std::unique_ptr<backend::CompiledModule>
CranelineBackend::compile(const qir::Module &M,
                          const backend::CompileOptions &COpts) {
  obs::CompileObs CompObs(COpts.Obs, name());
  TimeTrace *Trace = CompObs.trace();
  MemContext Mem(COpts.Alloc);
  auto Result = std::make_unique<CranelineModule>();

  struct FnOut {
    std::string Name;
    EmitResult Emitted;
  };
  std::vector<FnOut> Outs;

  if (COpts.Verify.Ir)
    qir::verifyOrDie(M, "craneline");

  // Cranelift compiles one function at a time (§VI).
  for (const auto &F : M.functions()) {
    CFunction CF;
    {
      TimeTraceScope Scope(Trace, "craneline.irgen");
      translateFunction(*F, Opts, &CF);
    }
    {
      TimeTraceScope Scope(Trace, "craneline.irpasses");
      CirAnalyses An(Mem.scratch());
      runIrPasses(CF, &An, Mem.scratch());
    }
    // The analyses are per-function scratch; recycle the slab (arena
    // mode) or verify the frees balanced (heap mode).
    Mem.scratch().clear();
    VCode VC;
    lowerFunction(CF, &VC, Trace); // traces iselprepare + isel internally
    RegAllocResult RA;
    {
      TimeTraceScope Scope(Trace, "craneline.regalloc");
      RA = allocateRegisters(&VC, Trace);
    }
    EmitResult E;
    {
      TimeTraceScope Scope(Trace, "craneline.emit");
      E = emitFunction(VC, CF, RA, Trace);
    }
    Outs.push_back({F->name(), std::move(E)});
    if (COpts.Verify.Mc) {
      // Absolute-address relocations patch the 8-byte immediate of a
      // mov r64, imm64; exempt those fields from the lint.
      const EmitResult &Em = Outs.back().Emitted;
      std::vector<x64::DecodeReloc> Relocs;
      for (const AbsReloc &R : Em.Relocs)
        Relocs.push_back({R.Offset, 8});
      x64::lintOrDie(Em.Code.data(), Em.Code.size(), Relocs, F->name(),
                     "craneline");
    }
  }

  // Link: copy into executable memory and apply the absolute relocations
  // (fast: "only needs to apply a small number of relocations", §VI-C5).
  // Each target address is also mapped back to its runtime-symbol name so
  // the persistent cache can re-resolve it in another process.
  std::vector<x64::CodeImage::Piece> Pieces;
  {
    TimeTraceScope Scope(Trace, "craneline.link");
    for (FnOut &O : Outs) {
      x64::CodeImage::Piece P{std::move(O.Name), std::move(O.Emitted.Code),
                              {}};
      for (const AbsReloc &R : O.Emitted.Relocs) {
        std::memcpy(P.Code.data() + R.Offset, &R.Target, 8);
        const char *Sym =
            rt::runtimeSymbolName(reinterpret_cast<const void *>(R.Target));
        P.Relocs.push_back({R.Offset, Sym ? Sym : ""});
      }
      Pieces.push_back(std::move(P));
    }
    Result->image().link(Pieces);
  }

  if (COpts.Obs.Metrics) {
    obs::MetricsRegistry &Reg = *COpts.Obs.Metrics;
    Reg.counter("mem." + name() + ".irpasses.bytes")
        .add(Mem.scratch().bytesAllocated());
    Reg.counter("mem." + name() + ".irpasses.allocs")
        .add(Mem.scratch().numAllocs());
    Reg.counter("mem." + name() + ".compiles." +
                allocModeName(Mem.mode()))
        .inc();
  }

  if (COpts.Verify.Tv)
    tv::validateOrDie(M, Result->tvFunctions(), COpts.Obs.Metrics,
                      "craneline");
  return Result;
}

std::unique_ptr<backend::CompiledModule>
CranelineBackend::deserialize(const uint8_t *Data, size_t Len) {
  return backend::installImage<CranelineModule>(Data, Len);
}

std::string CranelineBackend::cacheConfig() const {
  std::string C = name();
  if (!Opts.NativeCrc32)
    C += "-nocrc32";
  if (!Opts.NativeOverflowArith)
    C += "-noovf";
  if (!Opts.NativeMulFull)
    C += "-nomulfull";
  return C;
}
