//===- db/Executor.cpp - Morsel-driven query execution ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "db/Executor.h"
#include "backend/Registry.h"
#include "backend/TierUp.h"
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

using namespace qcf;
using namespace qcf::db;

namespace {

/// Per-worker morsel accounting, merged after the join. Owned by the
/// QueryRuntime (not the runPipeline frame) so a trap's longjmp on the
/// serial path cannot leak it.
struct WorkerAcct {
  uint64_t Morsels = 0;
  uint64_t TierMorsels[2] = {0, 0}; ///< Indexed by TierEntry::Tier.
  uint64_t TierRows[2] = {0, 0};
  uint64_t TierNs[2] = {0, 0};
};

/// The publish policy of one pipeline's tier-up: the optimized module is
/// one backend::TierUp shared by every pipeline, and this driver decides
/// when its installed code is published into the pipeline's TierCell.
/// atPickup runs at every morsel pickup of every worker; once the
/// decision is terminal it is one acquire flag check. Policy-driven mode
/// polls and never blocks; with OsrForceSwapMorsel the first worker to
/// reach that morsel blocks in the cancellable wait while the others
/// poll. Whoever installed the module, each driver publishes its own
/// pipeline's entry, so a pipeline that starts after the install runs
/// optimized code from its first morsel.
struct OsrDriver {
  OsrDriver(TierCell &Cell, backend::TierUp &Up, std::string FnName,
            uint64_t Contract, const ExecOptions &Opts)
      : Cell(Cell), Up(Up), FnName(std::move(FnName)), Contract(Contract),
        ForceMorsel(Opts.OsrForceSwapMorsel), Ctl(Opts.Control),
        Inert(!Up.pending() && !Up.installed()) {
    // Nothing pending or installed (the compile was cancelled): nothing
    // to drive, and nothing to count at finalize.
    Done.store(Inert, std::memory_order_relaxed);
  }

  /// Worker-side hook, invoked before executing global morsel \p Idx.
  void atPickup(uint64_t Idx) {
    if (Done.load(std::memory_order_acquire))
      return;
    if (ForceMorsel >= 0 && static_cast<int64_t>(Idx) < ForceMorsel)
      return;
    if (ForceMorsel >= 0 && !Forced.exchange(true, std::memory_order_acq_rel)) {
      // Deterministic cutover: block on the compile so morsel ForceMorsel
      // is the first to run optimized code (exact when single-threaded;
      // parallel workers keep draining fast-tier morsels meanwhile).
      uint64_t W0 = nowNs();
      Up.wait(Ctl);
      WaitNs.store(nowNs() - W0, std::memory_order_relaxed);
    } else {
      Up.poll();
    }
    // pending() before installed(): the install is stored before pending
    // ends, so a compile that is no longer pending shows its module.
    bool StillPending = Up.pending();
    if (backend::CompiledModule *M = Up.installed()) {
      // The worker that seals Done publishes, filling OptEntry strictly
      // before the release store in Cell.publish().
      if (Done.exchange(true, std::memory_order_acq_rel))
        return;
      OptEntry.Fn = reinterpret_cast<PipeFn>(M->entry(FnName));
      OptEntry.Tier = OsrTierOpt;
      OptEntry.Contract = Contract;
      if (Cell.publish(&OptEntry)) {
        SwapMorsel.store(static_cast<int64_t>(Idx), std::memory_order_relaxed);
        SwapNs.store(nowNs(), std::memory_order_relaxed);
        Installed.store(true, std::memory_order_release);
      } else {
        Mismatch.store(true, std::memory_order_relaxed);
      }
    } else if (!StillPending) {
      Done.store(true, std::memory_order_release);
    }
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

/// Runs one pipeline over [0, Rows), morsel-parallel when allowed, and
/// fills \p S's fan-out and morsel/tier accounting. With \p Osr attached
/// the loop always goes morsel-by-morsel (even single-threaded) so every
/// morsel boundary is a potential cutover point, and each worker re-reads
/// the entry from \p Cell at every pickup.
void runPipeline(TierCell &Cell, void *Ctx, uint64_t Rows, bool Parallel,
                 const ExecOptions &Opts, OsrDriver *Osr,
                 std::vector<WorkerAcct> &Acct, PipelineStats &S) {
  ExecControl *Ctl = Opts.Control;
  // With a cancellation token attached the loop always goes morsel-by-
  // morsel (like OSR), so a cancel or deadline takes effect within one
  // morsel instead of one whole pipeline.
  if (!Osr && !Ctl &&
      (!Parallel || Opts.NumThreads <= 1 || Rows < Opts.MorselSize * 2)) {
    // No driver: the cell keeps its fast-tier entry.
    Cell.load()->Fn(Ctx, 0, static_cast<int64_t>(Rows));
    S.Morsels = S.MorselsFast = S.MinWorkerMorsels = 1;
    S.RowsFast = Rows;
    return;
  }

  uint64_t NumMorsels = (Rows + Opts.MorselSize - 1) / Opts.MorselSize;
  if (NumMorsels == 0)
    return;
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

  S.Workers = Workers;
  S.MinWorkerMorsels = Acct[0].Morsels;
  for (const WorkerAcct &A : Acct) {
    S.MinWorkerMorsels = std::min(S.MinWorkerMorsels, A.Morsels);
    S.Morsels += A.Morsels;
    S.MorselsFast += A.TierMorsels[OsrTierFast];
    S.MorselsOpt += A.TierMorsels[OsrTierOpt];
    S.RowsFast += A.TierRows[OsrTierFast];
    S.RowsOpt += A.TierRows[OsrTierOpt];
    S.NsFast += A.TierNs[OsrTierFast];
    S.NsOpt += A.TierNs[OsrTierOpt];
  }
}

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

  /// Runs every pipeline on \p Code's entries, each with a swap driver
  /// onto \p Up's module when Code carries a pending optimized compile.
  /// Fills PipeStats with per-pipeline rows, wall time, and morsel/tier
  /// accounting, and emits one timeline slice per pipeline when a sink is
  /// attached.
  rt::TrapCode runAll(const ExecOptions &Opts, backend::CompiledModule &Code,
                      backend::TierUp *Up) {
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

        // The entry and cell live while the pipeline's workers do; a
        // trap's longjmp may skip them, as neither has a destructor.
        uint64_t Contract = osrContract(P.FnName, Plan.NumCtxSlots);
        auto *Fn = reinterpret_cast<PipeFn>(Code.entry(P.FnName));
        assert(Fn && "missing pipeline entry point");
        TierEntry FastEntry{Fn, OsrTierFast, Contract};
        TierCell Cell(&FastEntry);
        OsrDriver *Osr = nullptr;
        if (Up)
          Osr = Drivers
                    .emplace_back(std::make_unique<OsrDriver>(
                        Cell, *Up, P.FnName, Contract, Opts))
                    .get();

        PipelineStats &S = PipeStats[PI];
        S.Rows = sourceRows(P);
        uint64_t StartNs = nowNs();
        runPipeline(Cell, Ctx.data(), S.Rows, P.ParallelSafe, Opts, Osr,
                    AcctScratch, S);
        finishObjects(PI);

        // Sort step after a materialization pipeline, with the comparator
        // of the optimized module once it is installed.
        if (P.SortObject >= 0) {
          const RuntimeObject &Obj = Plan.Objects[P.SortObject];
          backend::CompiledModule *M =
              Up && Up->installed() ? Up->installed() : &Code;
          void *Cmp = M->entry(Obj.CmpFnName);
          assert(Cmp && "missing comparator entry point");
          rt_sort(reinterpret_cast<void *>(Ctx[Obj.Slot]), Ctx[Obj.CountSlot],
                  Obj.RowStride, Cmp);
        }

        S.ExecNs = nowNs() - StartNs;
        if (obs::TraceSink *Sink = Opts.Obs.Sink)
          Sink->completeEvent("db.pipeline." + P.FnName, "exec", StartNs,
                              S.ExecNs);
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
  /// The query's ExecControl fired and the pipeline loop stopped early.
  bool CancelObserved = false;
  /// The swap drivers of the pipelines that started, in pipeline order.
  std::vector<std::unique_ptr<OsrDriver>> Drivers;
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

} // namespace

ExecResult db::executeQuery(const CompiledPlan &Plan, backend::Backend &BE,
                            const Catalog &Cat, rt::OutputBuffer *Out,
                            const ExecOptions &Opts) {
  uint64_t QueryStartNs = nowNs();
  uint64_t RowsBefore = Out ? Out->numRows() : 0;
  ExecControl *Ctl = Opts.Control;
  ExecResult Result;

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
  CO.Fingerprint = Plan.Fingerprint;

  // AdaptiveExec starts on the fast tier while BE compiles the whole
  // module in the background; a refused submit leaves the query on the
  // fast tier. Either way the code comes from one ready module, and a
  // module that carries a pending optimized compile (a code cache's
  // fast-tier answer too) swaps every pipeline to it.
  std::unique_ptr<backend::Backend> OwnedFast;
  backend::Backend *Fast = nullptr;
  if (Opts.AdaptiveExec) {
    assert(Opts.Service && "AdaptiveExec requires ExecOptions::Service");
    Fast = Opts.FastBackend;
    if (!Fast) {
      OwnedFast = backend::createFastTier(BE.name());
      Fast = OwnedFast.get();
    }
  }
  uint64_t CompileStartNs = nowNs();
  std::unique_ptr<backend::CompiledModule> Code;
  if (Fast)
    Code = backend::compileTiered(*Plan.Module, *Fast, BE, *Opts.Service, CO);
  if (!Code)
    Code = (Fast ? *Fast : BE).compile(*Plan.Module, CO);
  Result.Stats.CompileNs = nowNs() - CompileStartNs;
  // No module: only a fired token stops a compile (a caching back-end's
  // cancelled wait).
  if (!Code) {
    Result.Cancelled = true;
    finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
    return Result;
  }

  QueryRuntime RT(Plan, Cat, Out);
  uint64_t ExecStartNs = nowNs();
  rt::TrapCode Trap = RT.runAll(Opts, *Code, Code->Optimized.get());
  Result.Stats.ExecNs = nowNs() - ExecStartNs;
  if (Trap != rt::TrapCode::None) {
    Result.Trapped = true;
    Result.Trap = Trap;
  }
  Result.Cancelled = RT.CancelObserved;
  Result.Stats.Pipelines = std::move(RT.PipeStats);

  // Swap outcomes: stats, exec.osr.* metrics, timeline markers. (A trap
  // or a cancel leaves later pipelines without drivers; their compiles
  // are torn down below without counting as "too late".)
  obs::MetricsRegistry &Reg = Opts.Obs.registry();
  for (size_t PI = 0; PI != RT.Drivers.size(); ++PI) {
    OsrDriver &D = *RT.Drivers[PI];
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

  // Teardown: drop the query's handle on the optimized compile. One only
  // this query submitted is cancelled if it has not started, else waited
  // out, since it borrows the plan and BE; one a code cache shares runs on
  // for the sessions that rely on it.
  Code.reset();
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}
