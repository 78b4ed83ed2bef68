//===- db/Executor.h - Morsel-driven query execution ------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a compiled query plan: compiles the QIR module with any
/// back-end, creates the runtime objects (hash tables, sort buffers), and
/// drives each pipeline over its source on the calling thread. Morsels
/// (§II) are kept only as the points where a pipeline may swap tiers or
/// observe a cancel: a pipeline with neither attached runs its whole range
/// in one call. Traps (overflow, division by zero) abort the query
/// cleanly.
///
/// Every query runs one ready module. When that module carries a pending
/// optimized compile of the same plan (CompiledModule::Optimized, from
/// backend::compileTiered: AdaptiveExec, or a code cache's fast-tier
/// answer), each pipeline swaps to the installed module's entry of the
/// same name at a morsel boundary. Every compile creates its own
/// qcf::MemContext, so a fast-tier compile on the query thread and an
/// optimized one on a service worker never share compile memory.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_EXECUTOR_H
#define QCF_DB_EXECUTOR_H

#include "backend/Backend.h"
#include "backend/CompileService.h"
#include "db/Codegen.h"
#include "db/Osr.h"
#include "runtime/Runtime.h"
#include "support/BlockCache.h"

namespace qcf::db {

/// Cancellation + deadline token for one executing query. A serving
/// layer owns one per session: session close / idle eviction calls
/// cancel(), per-query deadlines arm setDeadlineNs(). The executor
/// checks it at morsel pickups (next to the OSR morsel-boundary hook),
/// between pipelines, and in every wait on another thread's compile (a
/// code cache's in-flight wait, a forced swap's TierUp::wait) — so a
/// deadline takes effect within one morsel or at once in a wait, and a
/// cancel() within one morsel or one TierUp::CancelTick. Compiles the
/// query runs itself finish; the background compile an AdaptiveExec
/// query submitted itself is cancelled at the query's end if it has not
/// started (TierUp::finish), else waited out.
using ExecControl = qcf::CancelToken;

struct ExecOptions {
  /// Must be 1; deleted in the next benchmark PR together with
  /// FastBackend (perfbench still sets it).
  unsigned NumThreads = 1;
  uint64_t MorselSize = 2048;

  /// Cooperative cancellation + deadline for this query; null = never
  /// cancelled. See ExecControl. When the token fires mid-query the
  /// call returns early with ExecResult::Cancelled set; the output
  /// buffer may hold partial rows and must be discarded by the caller.
  ExecControl *Control = nullptr;

  /// Fairness key (CompileOptions::FairnessKey) stamped on every compile
  /// this call submits to a CompileService — the serving layer sets it
  /// to the tenant name so per-tenant compile-queue shares apply.
  std::string CompileFairnessKey;

  /// Service for AdaptiveExec's optimized compile; AdaptiveExec requires
  /// it. A compile it refuses leaves the query on the fast tier.
  backend::CompileService *Service = nullptr;

  /// Mid-query adaptive recompilation (morsel-boundary OSR; DESIGN.md
  /// "Fast now, optimized later"): execution starts immediately on a
  /// cheap tier (\ref FastBackend) while the whole plan module compiles
  /// with the optimized tier — the \p BE argument of executeQuery — on
  /// the CompileService. The pipeline loop re-reads its entry point at
  /// every morsel pickup; once the optimized module lands, each
  /// pipeline publishes its entry at the next morsel boundary, so the
  /// static tier choice of the paper's Figure 7 becomes a dynamic one
  /// with bounded regret.
  /// Results are bit-identical to either tier alone.
  bool AdaptiveExec = false;
  /// The tier execution starts on in AdaptiveExec mode; null means
  /// backend::createFastTier(BE.name()), and no fast tier at all when
  /// that is null. Must outlive the call.
  backend::Backend *FastBackend = nullptr;
  /// Deterministic cutover for tests and regret measurement: with a
  /// value >= 0, the optimized tier is force-published exactly when
  /// morsel index \p OsrForceSwapMorsel is picked up — that pickup
  /// blocks on the compile (cancellably, like every compile wait), so
  /// morsels [0, N) run the fast tier and [N, end) the optimized tier.
  /// -1 = swap is policy-driven (publish when the compile lands).
  int64_t OsrForceSwapMorsel = -1;

  /// Observability consumers for this query: the compile trace, metrics
  /// registry, and timeline sink are all carried through compilation and
  /// execution (see obs/Obs.h).
  obs::ObsContext Obs;

  /// Shares ownership of the plan passed to executeQuery, when the caller
  /// holds it in a shared object (serve::Server's plan cache). It becomes
  /// the compile's CompileOptions::ModuleOwner, so a code cache's
  /// background compile keeps the plan's module alive instead of copying
  /// it. Null = the plan is only borrowed for the call.
  std::shared_ptr<const void> PlanOwner;
};

/// Per-pipeline breakdown of one executed query.
struct PipelineStats {
  uint64_t Rows = 0;    ///< Source rows the pipeline was driven over.
  uint64_t ExecNs = 0;  ///< Wall time of the pipeline loop (+ sort step).

  // Morsel accounting (always filled on the morsel-loop path; the
  // whole-range call reports one "morsel" covering all rows). The
  // invariant OsrTest/qcf_stress --osr pin: Morsels == MorselsFast +
  // MorselsOpt == ceil(Rows / MorselSize), i.e. no lost, duplicated, or
  // torn morsel across a tier swap.
  uint64_t Morsels = 0;     ///< Total morsel ranges executed.
  uint64_t MorselsFast = 0; ///< Morsels run on the initial (fast) tier.
  uint64_t MorselsOpt = 0;  ///< Morsels run on the swapped-in tier.

  // Per-tier observed throughput (AdaptiveExec only; feeds the E15
  // regret analysis).
  uint64_t RowsFast = 0, RowsOpt = 0; ///< Source rows per tier.
  uint64_t NsFast = 0, NsOpt = 0;     ///< Summed morsel wall time per tier.

  /// Global morsel index whose pickup published the swap (that morsel
  /// and all later pickups ran optimized code); -1 when the pipeline
  /// never swapped.
  int64_t SwapMorsel = -1;
  /// Time the pipeline spent blocked on the optimized compile at a forced
  /// cutover (OsrForceSwapMorsel); 0 in policy-driven mode, which never
  /// blocks.
  uint64_t OsrStallNs = 0;
};

/// What one db::executeQuery call did, in nanoseconds — the executor-level
/// complement to the per-phase compile metrics the back-ends publish.
struct QueryStats {
  uint64_t CompileNs = 0;      ///< Blocking: whole-module compile wall time.
                               ///< AdaptiveExec: fast-tier compile wall time.
  uint64_t ExecNs = 0;         ///< Pipeline loop wall time.
  uint64_t RowsOut = 0;        ///< Rows appended to the output buffer.
  uint64_t OsrSwaps = 0;       ///< AdaptiveExec: pipelines that swapped tiers.
  uint64_t OsrStallNs = 0;     ///< AdaptiveExec: total forced-cutover stall.
  /// One per pipeline that ran. Its buffer is a recycled block
  /// (support/BlockCache.h), like the rest of a query's execution memory.
  BlockVector<PipelineStats> Pipelines;
};

struct ExecResult {
  bool Trapped = false;
  /// The query's ExecControl fired (cancel or deadline) during — or, for
  /// a deadline, possibly immediately after — execution. Results are
  /// partial; discard them. Counted as "db.query.cancelled".
  bool Cancelled = false;
  rt::TrapCode Trap = rt::TrapCode::None;
  QueryStats Stats;
};

/// Compiles \p Plan with \p BE and runs it; results append to \p Out.
/// Structural query metrics ("db.query.*") always land in
/// Opts.Obs.registry(); per-pipeline timeline slices are emitted when
/// Opts.Obs.Sink is set.
ExecResult executeQuery(const CompiledPlan &Plan, backend::Backend &BE,
                        const Catalog &Cat, rt::OutputBuffer *Out,
                        const ExecOptions &Opts = ExecOptions());

} // namespace qcf::db

#endif // QCF_DB_EXECUTOR_H
