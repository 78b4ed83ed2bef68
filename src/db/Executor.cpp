//===- db/Executor.cpp - Morsel-driven query execution ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "db/Executor.h"
#include "backend/Registry.h"
#include "backend/TierUp.h"
#include <algorithm>
#include <cstring>

using namespace qcf;
using namespace qcf::db;

namespace {

/// The publish policy of one pipeline's tier-up: the optimized module is
/// one backend::TierUp shared by every pipeline, and this driver decides
/// when its installed code is published into the pipeline's TierCell.
/// atPickup runs at every morsel pickup; once the decision is terminal it
/// is one flag check. Policy-driven mode loads the handle's state and
/// never blocks; with OsrForceSwapMorsel the pickup of that morsel blocks
/// in the cancellable wait. Whoever installed the module, each driver
/// publishes its own pipeline's entry, so a pipeline that starts after
/// the install runs optimized code from its first morsel. The driver lives on the query
/// thread; only the TierUp is shared with the compile worker.
struct OsrDriver {
  OsrDriver(TierCell &Cell, backend::TierUp &Up, std::string FnName,
            uint64_t Contract, const ExecOptions &Opts)
      : Cell(Cell), Up(Up), FnName(std::move(FnName)), Contract(Contract),
        ForceMorsel(Opts.OsrForceSwapMorsel), Ctl(Opts.Control),
        // Nothing pending or installed (the compile was cancelled):
        // nothing to drive, and nothing to count at finalize.
        Inert(!Up.pending() && !Up.installed()), Done(Inert) {}

  /// Invoked before executing morsel \p Idx.
  void atPickup(uint64_t Idx) {
    if (Done)
      return;
    if (ForceMorsel >= 0 && static_cast<int64_t>(Idx) < ForceMorsel)
      return;
    if (ForceMorsel >= 0 && !Forced) {
      // Deterministic cutover: block on the compile so morsel ForceMorsel
      // is the first to run optimized code.
      Forced = true;
      uint64_t W0 = nowNs();
      Up.wait(Ctl);
      WaitNs = nowNs() - W0;
    }
    // pending() before installed(): the install is stored before pending
    // ends, so a compile that is no longer pending shows its module.
    bool StillPending = Up.pending();
    if (backend::CompiledModule *M = Up.installed()) {
      Done = true;
      OptEntry.Fn = reinterpret_cast<PipeFn>(M->entry(FnName));
      OptEntry.Tier = OsrTierOpt;
      OptEntry.Contract = Contract;
      if (Cell.publish(&OptEntry)) {
        SwapMorsel = static_cast<int64_t>(Idx);
        SwapNs = nowNs();
        Installed = true;
      } else {
        Mismatch = true;
      }
    } else if (!StillPending) {
      Done = true;
    }
  }

  TierCell &Cell;
  backend::TierUp &Up; ///< Owns the optimized code the pipeline may run.
  const std::string FnName;
  const uint64_t Contract;
  const int64_t ForceMorsel;
  ExecControl *const Ctl;
  const bool Inert;

  TierEntry OptEntry;  ///< Swap target; immutable once published.
  bool Done;           ///< Terminal decision reached.
  bool Forced = false; ///< The forced cutover wait has run.
  bool Installed = false;
  bool Mismatch = false;
  int64_t SwapMorsel = -1;
  uint64_t SwapNs = 0;
  uint64_t WaitNs = 0;
};

/// Runs one pipeline over [0, Rows) on the calling thread and fills \p S's
/// morsel/tier accounting. Without a swap driver or a cancellation token
/// it is one whole-range call. With either, it goes morsel by morsel, so
/// every morsel boundary is a potential cutover and a cancel point, and
/// the entry is re-read from \p Cell at every pickup. \p S lives outside
/// this frame, so a trap's longjmp out of the loop skips nothing that
/// needs destroying.
void runPipeline(TierCell &Cell, void *Ctx, uint64_t Rows,
                 const ExecOptions &Opts, OsrDriver *Osr, PipelineStats &S) {
  ExecControl *Ctl = Opts.Control;
  if (!Osr && !Ctl) {
    // No driver: the cell keeps its fast-tier entry.
    Cell.load()->Fn(Ctx, 0, static_cast<int64_t>(Rows));
    S.Morsels = S.MorselsFast = 1;
    S.RowsFast = Rows;
    return;
  }

  for (uint64_t Begin = 0; Begin < Rows; Begin += Opts.MorselSize) {
    // Cancellation check at the morsel pickup, after the OSR hook (whose
    // forced cutover wait the token may have cut short): a started morsel
    // always runs to its end.
    if (Osr)
      Osr->atPickup(Begin / Opts.MorselSize);
    if (Ctl && Ctl->stopped())
      break;
    const TierEntry *E = Cell.load();
    uint64_t End = std::min(Rows, Begin + Opts.MorselSize);
    uint64_t T0 = Osr ? nowNs() : 0;
    E->Fn(Ctx, static_cast<int64_t>(Begin), static_cast<int64_t>(End));
    bool Opt = E->Tier == OsrTierOpt;
    ++S.Morsels;
    ++(Opt ? S.MorselsOpt : S.MorselsFast);
    (Opt ? S.RowsOpt : S.RowsFast) += End - Begin;
    if (Osr)
      (Opt ? S.NsOpt : S.NsFast) += nowNs() - T0;
  }
}

/// Per-query runtime state: context slots, runtime objects, and the
/// pipeline loop. All of its memory (the vectors, the tables, sort buffers
/// and arena slabs) is recycled blocks of the query thread, so a warm
/// query reuses the last one's.
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
        Buffers[OI] = blocks::Block(N * Obj.RowStride);
        auto *Packed = Buffers[OI].get<uint8_t>();
        for (uint64_t I = 0; I != N; ++I)
          std::memcpy(Packed + I * Obj.RowStride,
                      static_cast<char *>(Rows.entryAt(I)) +
                          rt::HashTable::HeaderBytes,
                      Obj.RowStride);
        Tables[OI].reset();
        Ctx[Obj.Slot] = reinterpret_cast<uint64_t>(Packed);
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

        // The entry and cell live while the pipeline runs; a trap's
        // longjmp may skip them, as neither has a destructor.
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
        runPipeline(Cell, Ctx.data(), S.Rows, Opts, Osr, S);
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
        // The morsel loop breaks when the token fires; a pipeline
        // interrupted that way must not feed partial state into the next
        // one. Both signals are monotonic, so re-checking here observes
        // whatever the loop observed.
        if (Ctl && Ctl->stopped()) {
          CancelObserved = true;
          break;
        }
      }
    });
  }

  const CompiledPlan &Plan;
  const Catalog &Cat;
  BlockVector<uint64_t> Ctx;
  Arena QueryArena;
  BlockVector<std::unique_ptr<rt::HashTable>> Tables;
  BlockVector<blocks::Block> Buffers;
  BlockVector<PipelineStats> PipeStats;
  /// The query's ExecControl fired and the pipeline loop stopped early.
  bool CancelObserved = false;
  /// The swap drivers of the pipelines that started, in pipeline order.
  std::vector<std::unique_ptr<OsrDriver>> Drivers;
};

/// The executor's instruments in one registry, resolved once per registry
/// and thread (a name lookup takes the registry's mutex) and each on its
/// first use, so a name enters a snapshot only once something is recorded
/// under it.
class ExecMetrics {
public:
  /// This thread's instruments in \p Reg.
  static ExecMetrics &of(obs::MetricsRegistry &Reg) {
    thread_local ExecMetrics M;
    if (M.RegId != Reg.id())
      M = ExecMetrics(Reg);
    return M;
  }

  obs::Counter &queries() { return get(Queries, "db.queries"); }
  obs::Counter &rows() { return get(Rows, "db.query.rows"); }
  obs::Counter &traps() { return get(Traps, "db.query.traps"); }
  obs::Counter &cancelled() { return get(Cancelled, "db.query.cancelled"); }
  obs::Histogram &execNs() { return get(ExecNs, "db.query.exec_ns"); }
  obs::Histogram &compileNs() { return get(CompileNs, "db.query.compile_ns"); }
  obs::Counter &swaps() { return get(Swaps, "exec.osr.swaps"); }
  obs::Counter &mismatches() {
    return get(Mismatches, "exec.osr.contract_mismatch");
  }
  obs::Counter &tooLate() { return get(TooLate, "exec.osr.too_late"); }
  obs::Histogram &stallNs() { return get(StallNs, "exec.osr.stall_ns"); }
  obs::Histogram &swapMorsel() {
    return get(SwapMorsel, "exec.osr.swap_morsel");
  }

private:
  ExecMetrics() = default;
  explicit ExecMetrics(obs::MetricsRegistry &Reg)
      : Reg(&Reg), RegId(Reg.id()) {}

  obs::Counter &get(obs::Counter *&C, const char *Name) {
    return C ? *C : *(C = &Reg->counter(Name));
  }
  obs::Histogram &get(obs::Histogram *&H, const char *Name) {
    return H ? *H : *(H = &Reg->histogram(Name));
  }

  obs::MetricsRegistry *Reg = nullptr;
  uint64_t RegId = 0;
  obs::Counter *Queries = nullptr, *Rows = nullptr, *Traps = nullptr,
               *Cancelled = nullptr, *Swaps = nullptr, *Mismatches = nullptr,
               *TooLate = nullptr;
  obs::Histogram *ExecNs = nullptr, *CompileNs = nullptr, *StallNs = nullptr,
                 *SwapMorsel = nullptr;
};

/// Publishes the always-on structural query metrics and the spanning
/// timeline slice.
void finishQuery(const ExecOptions &Opts, ExecResult &Result,
                 rt::OutputBuffer *Out, uint64_t RowsBefore,
                 uint64_t QueryStartNs) {
  QueryStats &S = Result.Stats;
  S.RowsOut = Out ? Out->numRows() - RowsBefore : 0;

  ExecMetrics &M = ExecMetrics::of(Opts.Obs.registry());
  M.queries().inc();
  M.rows().add(S.RowsOut);
  M.execNs().observe(S.ExecNs);
  M.compileNs().observe(S.CompileNs);
  if (Result.Trapped)
    M.traps().inc();
  if (Result.Cancelled)
    M.cancelled().inc();

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
  assert(Opts.NumThreads == 1 && "one thread runs every pipeline");

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
  CO.ModuleOwner = Opts.PlanOwner;

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
  // The query's start also starts its compile: only the cancel check and
  // option set-up run between them, unless a fast tier was created.
  uint64_t CompileStartNs = OwnedFast ? nowNs() : QueryStartNs;
  std::unique_ptr<backend::CompiledModule> Code;
  // The optimized compile this query submitted, if any: it borrows the
  // plan and BE.
  backend::TierUp *Submitted = nullptr;
  if (Fast) {
    Code = backend::compileTiered(*Plan.Module, *Fast, BE, *Opts.Service, CO);
    Submitted = Code ? Code->Optimized.get() : nullptr;
  }
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
  ExecMetrics &M = ExecMetrics::of(Opts.Obs.registry());
  for (size_t PI = 0; PI != RT.Drivers.size(); ++PI) {
    OsrDriver &D = *RT.Drivers[PI];
    uint64_t Stall = D.WaitNs;
    int64_t Swap = D.SwapMorsel;
    Result.Stats.Pipelines[PI].SwapMorsel = Swap;
    Result.Stats.Pipelines[PI].OsrStallNs = Stall;
    Result.Stats.OsrStallNs += Stall;
    if (Stall)
      M.stallNs().observe(Stall);
    if (D.Inert)
      continue;
    if (D.Installed) {
      ++Result.Stats.OsrSwaps;
      M.swaps().inc();
      if (Swap >= 0)
        M.swapMorsel().observe(static_cast<uint64_t>(Swap));
      if (obs::TraceSink *Sink = Opts.Obs.Sink)
        Sink->instantEvent("db.osr.swap." + Plan.Pipelines[PI].FnName, "exec",
                           D.SwapNs);
    } else if (D.Mismatch) {
      M.mismatches().inc();
    } else {
      // Compile never landed while the pipeline ran.
      M.tooLate().inc();
    }
  }

  // Teardown: a compile this query submitted is cancelled if it has not
  // started, else waited out, since it borrows the plan and BE. One a
  // code cache shares runs on for the sessions that rely on it.
  if (Submitted)
    Submitted->finish();
  finishQuery(Opts, Result, Out, RowsBefore, QueryStartNs);
  return Result;
}
