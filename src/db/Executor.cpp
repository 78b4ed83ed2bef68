//===- db/Executor.cpp - Morsel-driven query execution ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "db/Executor.h"
#include "backend/Registry.h"
#include "backend/TierUp.h"
#include "qir/Clone.h"
#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <thread>

using namespace qcf;
using namespace qcf::db;

namespace {

/// How one runPipeline call fanned out; lands in PipelineStats.
struct PipelineRunInfo {
  unsigned Workers = 1;
  uint64_t MinWorkerMorsels = 0;
  uint64_t Morsels = 0;
  uint64_t TierMorsels[2] = {0, 0}; ///< Indexed by TierEntry::Tier.
  uint64_t TierRows[2] = {0, 0};
  uint64_t TierNs[2] = {0, 0};
};

/// Per-worker morsel accounting, merged after the join. Owned by the
/// QueryRuntime (not the runPipeline frame) so a trap's longjmp on the
/// serial path cannot leak it.
struct WorkerAcct {
  uint64_t Morsels = 0;
  uint64_t TierMorsels[2] = {0, 0};
  uint64_t TierRows[2] = {0, 0};
  uint64_t TierNs[2] = {0, 0};
};

/// The publish policy of one pipeline's tier-up under AdaptiveExec: the
/// optimized compile is a backend::TierUp, and this driver decides when
/// its installed code is published into the pipeline's TierCell. atPickup
/// runs at every morsel pickup of every worker; once the decision is
/// terminal it is one acquire flag check. Policy-driven mode polls and
/// never blocks; with OsrForceSwapMorsel the first worker to reach that
/// morsel blocks in the cancellable ticket wait while the others poll.
struct OsrDriver {
  OsrDriver(TierCell &Cell, backend::TierUp &Up, std::string FnName,
            uint64_t Contract, const ExecOptions &Opts)
      : Cell(Cell), Up(Up), FnName(std::move(FnName)), Contract(Contract),
        ForceMorsel(Opts.OsrForceSwapMorsel), Ctl(Opts.Control),
        Inert(!Up.pending()) {
    // Nothing pending (a rejected submit): nothing to drive, and nothing
    // to count at finalize.
    Done.store(Inert, std::memory_order_relaxed);
  }

  /// Worker-side hook, invoked before executing global morsel \p Idx.
  void atPickup(uint64_t Idx) {
    if (Done.load(std::memory_order_acquire))
      return;
    if (ForceMorsel >= 0 && static_cast<int64_t>(Idx) < ForceMorsel)
      return;
    bool Landed;
    if (ForceMorsel >= 0 && !Forced.exchange(true, std::memory_order_acq_rel)) {
      // Deterministic cutover: block on the compile so morsel ForceMorsel
      // is the first to run optimized code (exact when single-threaded;
      // parallel workers keep draining fast-tier morsels meanwhile).
      uint64_t W0 = nowNs();
      Landed = Up.wait(Ctl);
      WaitNs.store(nowNs() - W0, std::memory_order_relaxed);
    } else {
      Landed = Up.poll();
    }
    if (Landed) {
      // Only the installing worker gets here, and it fills OptEntry
      // strictly before the release store in Cell.publish().
      OptEntry.Fn = reinterpret_cast<PipeFn>(Up.installed()->entry(FnName));
      OptEntry.Tier = OsrTierOpt;
      OptEntry.Contract = Contract;
      if (Cell.publish(&OptEntry)) {
        SwapMorsel.store(static_cast<int64_t>(Idx), std::memory_order_relaxed);
        SwapNs.store(nowNs(), std::memory_order_relaxed);
        Installed.store(true, std::memory_order_release);
      } else {
        Mismatch.store(true, std::memory_order_relaxed);
      }
    }
    if (!Up.pending())
      Done.store(true, std::memory_order_release);
  }

  TierCell &Cell;
  backend::TierUp &Up; ///< Owns the optimized code every worker may run.
  const std::string FnName;
  const uint64_t Contract;
  const int64_t ForceMorsel;
  ExecControl *const Ctl;
  const bool Inert;

  TierEntry OptEntry; ///< Swap target; immutable once published.
  std::atomic<bool> Done{false};   ///< Terminal decision reached.
  std::atomic<bool> Forced{false}; ///< The forced cutover wait is claimed.
  std::atomic<bool> Installed{false};
  std::atomic<bool> Mismatch{false};
  std::atomic<int64_t> SwapMorsel{-1};
  std::atomic<uint64_t> SwapNs{0};
  std::atomic<uint64_t> WaitNs{0};
};

/// Runs one pipeline over [0, Rows), morsel-parallel when allowed. With
/// \p Osr attached the loop always goes morsel-by-morsel (even single-
/// threaded) so every morsel boundary is a potential cutover point, and
/// each worker re-reads the entry from \p Cell at every pickup.
PipelineRunInfo runPipeline(TierCell &Cell, void *Ctx, uint64_t Rows,
                            bool Parallel, const ExecOptions &Opts,
                            OsrDriver *Osr, std::vector<WorkerAcct> &Acct) {
  ExecControl *Ctl = Opts.Control;
  // With a cancellation token attached the loop always goes morsel-by-
  // morsel (like OSR), so a cancel or deadline takes effect within one
  // morsel instead of one whole pipeline.
  if (!Osr && !Ctl &&
      (!Parallel || Opts.NumThreads <= 1 || Rows < Opts.MorselSize * 2)) {
    const TierEntry *E = Cell.load();
    E->Fn(Ctx, 0, static_cast<int64_t>(Rows));
    PipelineRunInfo R{1, 1};
    R.Morsels = 1;
    R.TierMorsels[E->Tier & 1] = 1;
    R.TierRows[E->Tier & 1] = Rows;
    return R;
  }

  uint64_t NumMorsels = (Rows + Opts.MorselSize - 1) / Opts.MorselSize;
  if (NumMorsels == 0)
    return {1, 0};
  // Cap the fan-out at the morsel supply: spawning NumThreads - 1 workers
  // unconditionally creates threads whose only act is to observe the
  // cursor past Rows and exit. Each worker is pre-assigned its first
  // morsel statically (worker T starts at T * MorselSize) and the shared
  // cursor starts past the pre-assigned region, so every spawned thread
  // runs at least one morsel by construction, not by scheduling luck.
  unsigned Workers = 1;
  if (Parallel && Opts.NumThreads > 1)
    Workers =
        static_cast<unsigned>(std::min<uint64_t>(Opts.NumThreads, NumMorsels));
  std::atomic<uint64_t> Next{static_cast<uint64_t>(Workers) * Opts.MorselSize};
  Acct.assign(Workers, WorkerAcct());
  auto Worker = [&](unsigned T) {
    WorkerAcct &A = Acct[T];
    uint64_t Begin = static_cast<uint64_t>(T) * Opts.MorselSize;
    while (Begin < Rows) {
      // Cancellation check at the morsel pickup, after the OSR hook
      // (whose forced cutover wait the token may have cut short):
      // unclaimed morsels stay unclaimed, claimed ones are never torn.
      if (Osr)
        Osr->atPickup(Begin / Opts.MorselSize);
      if (Ctl && Ctl->stopped())
        break;
      // Re-read the entry at every pickup — including the statically
      // pre-assigned first morsel, so a swap landing between spawn and
      // first pickup is honored rather than missed (the entry is never
      // captured at spawn time).
      const TierEntry *E = Cell.load();
      uint64_t End = std::min(Rows, Begin + Opts.MorselSize);
      uint64_t T0 = Osr ? nowNs() : 0;
      E->Fn(Ctx, static_cast<int64_t>(Begin), static_cast<int64_t>(End));
      unsigned Tier = E->Tier & 1;
      ++A.Morsels;
      ++A.TierMorsels[Tier];
      A.TierRows[Tier] += End - Begin;
      if (Osr)
        A.TierNs[Tier] += nowNs() - T0;
      Begin = Next.fetch_add(Opts.MorselSize);
    }
  };
  if (Workers == 1) {
    Worker(0);
  } else {
    std::vector<std::thread> Threads;
    for (unsigned T = 1; T < Workers; ++T)
      Threads.emplace_back(Worker, T);
    Worker(0);
    for (std::thread &T : Threads)
      T.join();
  }

  PipelineRunInfo R;
  R.Workers = Workers;
  R.MinWorkerMorsels = Acct[0].Morsels;
  for (const WorkerAcct &A : Acct) {
    R.MinWorkerMorsels = std::min(R.MinWorkerMorsels, A.Morsels);
    R.Morsels += A.Morsels;
    for (int I = 0; I != 2; ++I) {
      R.TierMorsels[I] += A.TierMorsels[I];
      R.TierRows[I] += A.TierRows[I];
      R.TierNs[I] += A.TierNs[I];
    }
  }
  return R;
}

/// What one pipeline resolves to before its morsel loop runs: the entry
/// cell workers re-read, an optional swap driver, and the module entries
/// (sort comparator) resolve against.
struct ResolvedCode {
  TierCell *Cell = nullptr;
  OsrDriver *Osr = nullptr;
  backend::CompiledModule *Module = nullptr;
};

/// Per-query runtime state: context slots, runtime objects, and the
/// pipeline loop.
struct QueryRuntime {
  QueryRuntime(const CompiledPlan &Plan, const Catalog &Cat,
               rt::OutputBuffer *Out)
      : Plan(Plan), Cat(Cat), Ctx(Plan.NumCtxSlots, 0),
        Tables(Plan.Objects.size()), Buffers(Plan.Objects.size()) {
    Ctx[0] = reinterpret_cast<uint64_t>(Out);
    Ctx[1] = reinterpret_cast<uint64_t>(&QueryArena);
  }

  /// Source row count of pipeline \p P: the range its morsels cover.
  uint64_t sourceRows(const PipelineDesc &P) const {
    switch (P.Src) {
    case PipelineDesc::Source::TableScan: {
      const Table *T = Cat.find(P.SourceTable);
      assert(T && "unknown table at execution");
      return T->numRows();
    }
    case PipelineDesc::Source::HtScan:
      return Tables[P.SourceObject]->count();
    case PipelineDesc::Source::SortedScan: {
      const RuntimeObject &Obj = Plan.Objects[P.SourceObject];
      uint64_t Count = Ctx[Obj.CountSlot];
      if (Obj.Limit && Count > Obj.Limit)
        Count = Obj.Limit;
      return Count;
    }
    }
    QCF_UNREACHABLE("invalid pipeline source");
  }

  /// Creates the runtime objects pipeline \p PI fills. Each is a hash
  /// table that grows with what is inserted; a sort buffer is an unlinked
  /// one whose payload is the row.
  void createObjects(size_t PI) {
    for (size_t OI = 0; OI != Plan.Objects.size(); ++OI) {
      const RuntimeObject &Obj = Plan.Objects[OI];
      if (Obj.ProducerPipeline != static_cast<int>(PI))
        continue;
      bool Sort = Obj.K == RuntimeObject::Kind::SortBuffer;
      Tables[OI] = std::make_unique<rt::HashTable>(
          static_cast<uint32_t>(Sort ? Obj.RowStride : Obj.PayloadBytes));
      Ctx[Obj.Slot] = reinterpret_cast<uint64_t>(Tables[OI].get());
    }
  }

  /// Makes what pipeline \p PI filled readable by the pipelines after it:
  /// a join table links its directory, and sort rows are packed into one
  /// exact-size buffer.
  void finishObjects(size_t PI) {
    for (size_t OI = 0; OI != Plan.Objects.size(); ++OI) {
      const RuntimeObject &Obj = Plan.Objects[OI];
      if (Obj.ProducerPipeline != static_cast<int>(PI))
        continue;
      if (Obj.K == RuntimeObject::Kind::JoinHt) {
        Tables[OI]->link();
      } else if (Obj.K == RuntimeObject::Kind::SortBuffer) {
        const rt::HashTable &Rows = *Tables[OI];
        uint64_t N = Rows.count();
        Buffers[OI].reset(new uint8_t[N * Obj.RowStride]);
        for (uint64_t I = 0; I != N; ++I)
          std::memcpy(Buffers[OI].get() + I * Obj.RowStride,
                      static_cast<char *>(Rows.entryAt(I)) +
                          rt::HashTable::HeaderBytes,
                      Obj.RowStride);
        Tables[OI].reset();
        Ctx[Obj.Slot] = reinterpret_cast<uint64_t>(Buffers[OI].get());
        Ctx[Obj.CountSlot] = N;
      }
    }
  }

  /// Runs every pipeline, resolving code through \p Resolve (which
  /// returns the pipeline's entry cell, optional swap driver, and
  /// comparator source). Fills PipeStats with per-pipeline rows, wall
  /// time, and morsel/tier accounting, and emits one timeline slice per
  /// pipeline when a sink is attached.
  template <typename ResolveFn>
  rt::TrapCode runAll(const ExecOptions &Opts, ResolveFn Resolve) {
    PipeStats.resize(Plan.Pipelines.size());
    ExecControl *Ctl = Opts.Control;
    return rt::runWithTrapGuard([&] {
      for (size_t PI = 0; PI != Plan.Pipelines.size(); ++PI) {
        const PipelineDesc &P = Plan.Pipelines[PI];
        if (Ctl && Ctl->stopped()) {
          CancelObserved = true;
          break;
        }
        createObjects(PI);

        // A null cell from Resolve means "stop now": the query was
        // cancelled while its code compiled.
        ResolvedCode RC = Resolve(PI);
        if (!RC.Cell) {
          CancelObserved = true;
          break;
        }
        uint64_t Rows = sourceRows(P);
        uint64_t StartNs = nowNs();
        PipelineRunInfo Run = runPipeline(*RC.Cell, Ctx.data(), Rows,
                                          P.ParallelSafe, Opts, RC.Osr,
                                          AcctScratch);
        finishObjects(PI);

        // Sort step after a materialization pipeline. The comparator
        // resolves through the current tier (an installed swap covers it
        // too: the sliced unit carries the comparator alongside the
        // pipeline function).
        if (P.SortObject >= 0) {
          const RuntimeObject &Obj = Plan.Objects[P.SortObject];
          void *Cmp = nullptr;
          if (RC.Osr && RC.Osr->Installed.load(std::memory_order_acquire))
            Cmp = RC.Osr->Up.installed()->entry(Obj.CmpFnName);
          if (!Cmp)
            Cmp = RC.Module->entry(Obj.CmpFnName);
          assert(Cmp && "missing comparator entry point");
          rt_sort(reinterpret_cast<void *>(Ctx[Obj.Slot]), Ctx[Obj.CountSlot],
                  Obj.RowStride, Cmp);
        }

        uint64_t DurNs = nowNs() - StartNs;
        PipelineStats &S = PipeStats[PI];
        S.Rows = Rows;
        S.ExecNs = DurNs;
        S.Workers = Run.Workers;
        S.MinWorkerMorsels = Run.MinWorkerMorsels;
        S.Morsels = Run.Morsels;
        S.MorselsFast = Run.TierMorsels[OsrTierFast];
        S.MorselsOpt = Run.TierMorsels[OsrTierOpt];
        S.RowsFast = Run.TierRows[OsrTierFast];
        S.RowsOpt = Run.TierRows[OsrTierOpt];
        S.NsFast = Run.TierNs[OsrTierFast];
        S.NsOpt = Run.TierNs[OsrTierOpt];
        if (obs::TraceSink *Sink = Opts.Obs.Sink)
          Sink->completeEvent("db.pipeline." + P.FnName, "exec", StartNs,
                              DurNs);
        // Workers break out of the morsel loop when the token fires; a
        // pipeline interrupted that way must not feed partial state into
        // the next one. Both signals are monotonic, so re-checking here
        // observes everything any worker observed.
        if (Ctl && Ctl->stopped()) {
          CancelObserved = true;
          break;
        }
      }
    });
  }

  const CompiledPlan &Plan;
  const Catalog &Cat;
  std::vector<uint64_t> Ctx;
  Arena QueryArena;
  std::vector<std::unique_ptr<rt::HashTable>> Tables;
  std::vector<std::unique_ptr<uint8_t[]>> Buffers;
  std::vector<PipelineStats> PipeStats;
  /// The query's ExecControl fired (or Resolve signalled a cancelled
  /// compile wait) and the pipeline loop stopped early.
  bool CancelObserved = false;
  /// Stable storage for per-pipeline entries/cells (deques: growth never
  /// moves elements a running pipeline still reads).
  std::deque<TierEntry> Entries;
  std::deque<TierCell> Cells;
  std::vector<WorkerAcct> AcctScratch;
};

/// Publishes the always-on structural query metrics and the spanning
/// timeline slice.
void finishQuery(const ExecOptions &Opts, ExecResult &Result,
                 rt::OutputBuffer *Out, uint64_t RowsBefore,
                 uint64_t QueryStartNs) {
  QueryStats &S = Result.Stats;
  S.RowsOut = Out ? Out->numRows() - RowsBefore : 0;

  obs::MetricsRegistry &Reg = Opts.Obs.registry();
  Reg.counter("db.queries").inc();
  Reg.counter("db.query.rows").add(S.RowsOut);
  Reg.histogram("db.query.exec_ns").observe(S.ExecNs);
  Reg.histogram("db.query.compile_ns").observe(S.CompileNs);
  if (Result.Trapped)
    Reg.counter("db.query.traps").inc();
  if (Result.Cancelled)
    Reg.counter("db.query.cancelled").inc();

  if (obs::TraceSink *Sink = Opts.Obs.Sink) {
    Sink->completeEvent("db.query", "exec", QueryStartNs,
                        nowNs() - QueryStartNs);
    if (Result.Trapped)
      Sink->instantEvent("db.trap", "exec");
  }
}

/// Slices \p Plan into one module per pipeline: the pipeline function plus
/// the comparator of the object it sorts. \returns empty if some function
/// is not claimed by any pipeline (unknown shape: caller falls back to
/// whole-module compilation).
std::vector<std::unique_ptr<qir::Module>>
slicePlanModules(const CompiledPlan &Plan) {
  std::vector<std::unique_ptr<qir::Module>> Units;
  size_t Claimed = 0;
  for (const PipelineDesc &P : Plan.Pipelines) {
    auto Unit = std::make_unique<qir::Module>();
    qir::cloneSymbols(*Plan.Module, *Unit);
    const qir::Function *Fn = Plan.Module->functionByName(P.FnName);
    if (!Fn)
      return {};
    qir::cloneFunctionInto(*Fn, *Unit);
    ++Claimed;
    if (P.SortObject >= 0) {
      const qir::Function *Cmp =
          Plan.Module->functionByName(Plan.Objects[P.SortObject].CmpFnName);
      if (!Cmp)
        return {};
      qir::cloneFunctionInto(*Cmp, *Unit);
      ++Claimed;
    }
    Units.push_back(std::move(Unit));
  }
  if (Claimed != Plan.Module->functions().size())
    return {};
  return Units;
}

} // namespace

ExecResult db::executeQuery(const CompiledPlan &Plan, backend::Backend &BE,
                            const Catalog &Cat, rt::OutputBuffer *Out,
                            const ExecOptions &Opts) {
  uint64_t QueryStartNs = nowNs();
  uint64_t RowsBefore = Out ? Out->numRows() : 0;
  ExecControl *Ctl = Opts.Control;
  ExecResult Result;

  // AdaptiveExec starts on the fast tier and swaps to BE, one unit per
  // pipeline. A plan that does not slice runs blocking instead, on the
  // fast tier: AdaptiveExec's contract is to start right away.
  std::unique_ptr<backend::Backend> OwnedFast;
  backend::Backend *Fast = nullptr;
  std::vector<std::unique_ptr<qir::Module>> Units;
  if (Opts.AdaptiveExec) {
    assert(Opts.Service && "AdaptiveExec requires ExecOptions::Service");
    Fast = Opts.FastBackend;
    if (!Fast) {
      OwnedFast = backend::createBackend("DirectEmit");
      Fast = OwnedFast.get();
    }
    Units = slicePlanModules(Plan);
  }

  if (Ctl && Ctl->stopped()) {
    // Cancelled before anything compiled (e.g. an already-expired
    // deadline): report it without paying for a compile or a submit.
    Result.Cancelled = true;
    finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
    return Result;
  }

  backend::CompileOptions CO{Opts.Obs};
  CO.Cancel = Ctl;
  CO.FairnessKey = Opts.CompileFairnessKey;

  // Each pipeline's code comes from a ready module: the whole-module
  // compile, or under AdaptiveExec the unit's fast tier plus a pending
  // optimized compile. Units must outlive every pending compile and
  // module (running jobs and interpreted code reference them), so those
  // are declared after.
  std::unique_ptr<backend::TierUp[]> Pending;
  std::vector<std::unique_ptr<backend::CompiledModule>> Ready;
  if (!Units.empty()) {
    // Submit everything up front, in execution order, so workers compile
    // ahead of the pipelines that need the code. The optimized tier is
    // speculative until a pipeline swaps, so it queues at Background
    // priority. A refused submit (queue full, share used up, service shut
    // down) leaves nothing pending: that pipeline stays on the fast tier.
    Pending = std::make_unique<backend::TierUp[]>(Units.size());
    for (size_t PI = 0; PI != Units.size(); ++PI)
      Pending[PI].start(Opts.Service->submit(
          *Units[PI], BE, backend::CompilePriority::Background, CO));
  }
  uint64_t CompileStartNs = nowNs();
  if (Units.empty())
    Ready.push_back((Fast ? *Fast : BE).compile(*Plan.Module, CO));
  for (auto &U : Units)
    Ready.push_back(Fast->compile(*U, CO));
  Result.Stats.CompileNs = nowNs() - CompileStartNs;

  QueryRuntime RT(Plan, Cat, Out);
  std::vector<std::unique_ptr<OsrDriver>> Drivers;
  uint64_t ExecStartNs = nowNs();
  rt::TrapCode Code = RT.runAll(Opts, [&](size_t PI) -> ResolvedCode {
    const PipelineDesc &P = Plan.Pipelines[PI];
    backend::CompiledModule *M = Ready[Units.empty() ? 0 : PI].get();
    backend::TierUp *Up = Pending ? &Pending[PI] : nullptr;
    // No module: only a fired token stops a compile (a caching back-end's
    // cancelled wait).
    if (!M)
      return ResolvedCode{};
    uint64_t Contract = osrContract(P.FnName, Plan.NumCtxSlots);
    auto *Fn = reinterpret_cast<PipeFn>(M->entry(P.FnName));
    assert(Fn && "missing pipeline entry point");
    RT.Entries.push_back(TierEntry{Fn, OsrTierFast, Contract});
    TierCell &Cell = RT.Cells.emplace_back(&RT.Entries.back());
    if (Up)
      Drivers.push_back(
          std::make_unique<OsrDriver>(Cell, *Up, P.FnName, Contract, Opts));
    return ResolvedCode{&Cell, Up ? Drivers.back().get() : nullptr, M};
  });
  Result.Stats.ExecNs = nowNs() - ExecStartNs;
  if (Code != rt::TrapCode::None) {
    Result.Trapped = true;
    Result.Trap = Code;
  }
  Result.Cancelled = RT.CancelObserved;
  Result.Stats.Pipelines = std::move(RT.PipeStats);

  // Swap outcomes: stats, exec.osr.* metrics, timeline markers. (A trap
  // or a cancel leaves later pipelines without drivers; their compiles
  // are torn down below without counting as "too late".)
  obs::MetricsRegistry &Reg = Opts.Obs.registry();
  for (size_t PI = 0; PI != Drivers.size(); ++PI) {
    OsrDriver &D = *Drivers[PI];
    uint64_t Stall = D.WaitNs.load(std::memory_order_relaxed);
    int64_t Swap = D.SwapMorsel.load(std::memory_order_relaxed);
    Result.Stats.Pipelines[PI].SwapMorsel = Swap;
    Result.Stats.Pipelines[PI].OsrStallNs = Stall;
    Result.Stats.OsrStallNs += Stall;
    if (Stall)
      Reg.histogram("exec.osr.stall_ns").observe(Stall);
    if (D.Inert)
      continue;
    if (D.Installed.load(std::memory_order_acquire)) {
      ++Result.Stats.OsrSwaps;
      Reg.counter("exec.osr.swaps").inc();
      if (Swap >= 0)
        Reg.histogram("exec.osr.swap_morsel").observe(
            static_cast<uint64_t>(Swap));
      if (obs::TraceSink *Sink = Opts.Obs.Sink)
        Sink->instantEvent("db.osr.swap." + Plan.Pipelines[PI].FnName, "exec",
                           D.SwapNs.load(std::memory_order_relaxed));
    } else if (D.Mismatch.load(std::memory_order_relaxed)) {
      Reg.counter("exec.osr.contract_mismatch").inc();
    } else {
      // Compile never landed while the pipeline ran.
      Reg.counter("exec.osr.too_late").inc();
    }
  }

  // Teardown: cancel every compile that has not started and wait out the
  // running ones — no worker may outlive the query's units.
  Pending.reset();
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}
