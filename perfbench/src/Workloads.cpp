//===- perfbench/src/Workloads.cpp - The benchmark's workloads ------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Every layer is measured from outside: the benchmark times its own calls
// into each layer's public functions and, in a traced run, records those
// calls as spans (Report.h). Nothing inside src/ is instrumented for it.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "serve/Server.h"
#include "support/Rng.h"
#include "x64/ExecArena.h"
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>
#include <unistd.h>
#include <map>
#include <unordered_map>

namespace qcf::perfbench {

namespace {

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Fixed configuration
//===----------------------------------------------------------------------===//

/// The six in-process tiers, in Table III order. GCC is deliberately
/// absent: one out-of-process suite compile takes over a second.
struct Tier {
  const char *Key;  ///< Metric-name component.
  const char *Name; ///< backend::createBackend name.
  bool ExecMetric;  ///< Has an exec_ms.<tier> metric.
};
constexpr Tier Tiers[] = {
    {"interp", "Interpreter", false}, {"stencil", "Stencil", true},
    {"direct", "DirectEmit", true},   {"craneline", "Craneline", true},
    {"mlvm_cheap", "MLVM-cheap", false}, {"mlvm_opt", "MLVM-opt", true},
};
constexpr size_t NumTiers = sizeof(Tiers) / sizeof(Tiers[0]);

/// TimeTrace labels reported as phase.<tier>.<label>_us, in Tiers order. A
/// label is written without its back-end prefix ("craneline.regalloc" is
/// "regalloc"). Labels left out each take under 2% of their tier's compile
/// time; a traced run prints them.
struct PhaseSet {
  const char *Prefix; ///< The labels' back-end prefix, with the dot.
  std::vector<const char *> Labels;
};

const std::vector<PhaseSet> &phaseSets() {
  static const std::vector<PhaseSet> Sets = {
      {"interp.", {"translate"}},
      {"stencil.", {"codegen", "link"}},
      {"direct.", {"analysis", "analysis.liveness", "codegen", "link"}},
      {"craneline.",
       {"irgen", "irpasses", "iselprepare", "isel", "regalloc", "ra.liveness",
        "ra.merge", "ra.assign", "ra.rewrite", "emit", "emit.encode", "link"}},
      {"mlvm.",
       {"irgen", "prep", "isel", "isel.fast", "isel.dag", "isel.dag.select",
        "mir.phielim", "mir.twoaddress", "ra.liveness", "ra.fast",
        "ra.rewrite", "mir.pei", "asmprinter", "objectwriter", "link",
        "link.phase2", "link.phase3", "irdestroy"}},
      {"mlvm.",
       {"irgen", "opt.cse", "opt.licm", "opt.domtree", "opt.instcombine",
        "opt.simplifycfg", "opt.dce", "prep", "isel", "isel.seldag",
        "isel.dag", "isel.dag.build", "isel.dag.combine", "isel.dag.legalize",
        "isel.dag.select", "mir.phielim", "mir.twoaddress", "ra.liveness",
        "ra.coalesce", "ra.greedy", "ra.rewrite", "mir.pei", "asmprinter",
        "objectwriter", "link", "link.phase2", "link.phase3", "irdestroy"}},
  };
  return Sets;
}

/// Scale factors (db::generate*Like units) per workload.
constexpr double AdhocScale = 0.25;   ///< Small: compile dominates.
constexpr double AnalyticScale = 8.0; ///< Native tiers separate on exec.
constexpr double ServeScale = 0.05;   ///< bench_serve's scale.

/// serve-churn: L1 capacity below the 23-query suite, two closed-loop
/// sessions, one admission slot each.
constexpr size_t ServeCacheCapacity = 12;
constexpr unsigned ServeSessions = 2;
constexpr unsigned ServeQueriesPerSession = 150; ///< Per round.
constexpr double ServeZipfS = 1.0;
/// Rounds per --seconds, and one tier pass per this many rounds: together
/// about the budget at reference speed.
constexpr double ServeRoundsPerSecond = 20;
constexpr uint64_t ServeRoundsPerTierPass = 8;

/// The probe time (calibrationMs) every reported time is rescaled to.
constexpr double ReferenceCalibrationMs = 1.5;

/// Nearest-rank p99 is reported only with at least this many samples
/// above it.
constexpr uint64_t MinAboveP99 = 10;
/// query_p99_ms is the median over consecutive blocks of this many query
/// samples (the fewest with MinAboveP99 above their p99) of each block's
/// nearest-rank p99. On a shared host a neighbour's burst stalls a few
/// seconds of queries; the median over blocks keeps that burst from
/// deciding the whole run's p99.
constexpr size_t P99Block = 1000;
/// Time-bounded runs go on past --seconds until they have this many.
constexpr size_t MinBlocks = 3;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double medianOf(std::vector<double> V) { return nearestRank(std::move(V), 0.5); }

/// Peak resident set of this process image. VmHWM rather than
/// getrusage's ru_maxrss, which keeps the peak of the image that exec'ed
/// this one (the launcher's).
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

/// Failure accounting shared by every workload (thread-safe).
struct Tally {
  std::atomic<uint64_t> Attempted{0}, Traps{0}, Cancels{0}, Rejects{0},
      Mismatches{0};
  uint64_t failed() const {
    return Traps + Cancels + Rejects + Mismatches;
  }
};

void noteMismatch(Tally &T, const std::string &Query) {
  if (T.Mismatches++ < 5)
    std::fprintf(stderr, "digest mismatch on %s\n", Query.c_str());
}

/// Executes already-compiled code through the public executor: compile()
/// hands back the module compiled earlier, so db::executeQuery's own
/// compile step costs nothing.
class Precompiled : public backend::Backend {
public:
  explicit Precompiled(std::shared_ptr<backend::CompiledModule> Mod)
      : Mod(std::move(Mod)) {}

  std::string name() const override { return "precompiled"; }

  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &, const backend::CompileOptions &) override {
    return std::make_unique<Forward>(Mod);
  }

private:
  struct Forward : backend::CompiledModule {
    explicit Forward(std::shared_ptr<backend::CompiledModule> M)
        : M(std::move(M)) {}
    void *entry(const std::string &Name) override { return M->entry(Name); }
    std::shared_ptr<backend::CompiledModule> M;
  };
  std::shared_ptr<backend::CompiledModule> Mod;
};

/// Compile options every benchmark compile uses: verification off and
/// per-object heap allocation, set explicitly rather than read from the
/// environment.
backend::CompileOptions compileOptions(TimeTrace *Trace = nullptr) {
  backend::CompileOptions CO(Trace);
  CO.Verify = VerifyOptions::none();
  CO.Alloc = AllocMode::Heap;
  return CO;
}

db::ExecOptions execOptions() {
  db::ExecOptions EO;
  EO.NumThreads = 1;
  return EO;
}

//===----------------------------------------------------------------------===//
// Set-up: data, plans and the reference oracle
//===----------------------------------------------------------------------===//

/// The inputs of one workload, all derived from the seed.
struct Env {
  db::Catalog Cat;
  std::vector<db::Query> Queries; ///< TPC-H-like + TPC-DS-like, seeded order.
  /// Position in Queries of the I-th query in suite order.
  std::vector<size_t> SuiteOrder;
  std::vector<db::CompiledPlan> Plans;
  std::vector<uint64_t> RefDigest; ///< Interpreter unorderedDigest().
  std::vector<uint64_t> RefRows;
};

void buildEnv(Env &E, double Scale, uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 17);
  db::generateTpchLike(E.Cat, Scale, 42 + R.nextBounded(1u << 20));
  db::generateTpcdsLike(E.Cat, Scale, 7 + R.nextBounded(1u << 20));
  std::vector<db::Query> Suite = db::tpchQueries();
  for (db::Query &Q : db::tpcdsQueries())
    Suite.push_back(std::move(Q));
  std::vector<size_t> Perm(Suite.size());
  for (size_t I = 0; I != Perm.size(); ++I)
    Perm[I] = I;
  for (size_t I = Perm.size(); I > 1; --I) // Seeded Fisher-Yates.
    std::swap(Perm[I - 1], Perm[R.nextBounded(I)]);
  E.SuiteOrder.resize(Perm.size());
  for (size_t I = 0; I != Perm.size(); ++I) {
    E.Queries.push_back(std::move(Suite[Perm[I]]));
    E.SuiteOrder[Perm[I]] = I;
  }
  for (const db::Query &Q : E.Queries)
    E.Plans.push_back(db::compileQuery(Q, E.Cat));

  // The oracle: the interpreter shares no code generation with any JIT
  // tier, so every measured execution is checked against it.
  auto Interp = backend::createBackend("Interpreter");
  for (const db::CompiledPlan &P : E.Plans) {
    rt::OutputBuffer Out;
    db::ExecResult Res =
        db::executeQuery(P, *Interp, E.Cat, &Out, execOptions());
    if (Res.Trapped || Res.Cancelled)
      reportFatalError("reference execution failed");
    E.RefDigest.push_back(Out.unorderedDigest());
    E.RefRows.push_back(Out.numRows());
  }
}

//===----------------------------------------------------------------------===//
// Measurements shared by the workloads
//===----------------------------------------------------------------------===//

/// Per-run accumulators. Plain vectors are only touched by the thread
/// running the tier passes; serve-churn's session threads use their own locals.
struct Meas {
  Tally T;
  std::vector<double> CompileMs[NumTiers]; ///< Suite compile per pass.
  std::vector<double> ExecMs[NumTiers];    ///< Suite exec per pass.
  std::vector<double> QueryMs;             ///< Call-to-output per query.
  std::vector<double> OverheadUs;          ///< Executor overhead per call.
  uint64_t CodeBytes[NumTiers] = {};
  uint64_t QirInsts = 0;
  uint64_t Completed = 0;      ///< Queries whose output was checked.
  uint64_t Served = 0;         ///< Of those, through serve::Server.
  std::vector<double> WorkSec; ///< Wall time of each measured unit.

  // Adaptive path (analytic-large).
  uint64_t AdaptiveQueries = 0, OsrSwaps = 0, RowsFast = 0, RowsOpt = 0,
           OsrStallNs = 0;
  backend::CompileServiceStats Svc;

  // serve-churn.
  backend::CacheStats L1;
  backend::DiskCacheStats Disk;
  std::vector<double> AdmitWaitUs;

  // Traced runs.
  TimeTrace Phases[NumTiers];     ///< Rescaled, over all traced passes.
  TimeTrace StepPhases[NumTiers]; ///< The current step, raw.
  uint64_t TracedPasses = 0;
  std::vector<double> CycleNs[2]; ///< [traced] time of each cycle.

  // Robust summaries, one value per cycle or per block of queries.
  std::vector<double> CycleQps; ///< Queries per second of each cycle.
  std::vector<double> BlockP99; ///< p99 of each block of P99Block queries.

  /// Queries throughput_qps counts: serve-churn times its rounds only, so
  /// counts served queries.
  uint64_t throughputQueries() const { return Served ? Served : Completed; }

  /// Every series of times, so a step's samples can be rescaled at once.
  std::vector<std::vector<double> *> timeSeries() {
    std::vector<std::vector<double> *> S = {&QueryMs, &OverheadUs, &WorkSec,
                                            &AdmitWaitUs};
    for (size_t TI = 0; TI != NumTiers; ++TI)
      for (std::vector<double> *V : {&CompileMs[TI], &ExecMs[TI]})
        S.push_back(V);
    return S;
  }
  std::vector<size_t> seriesSizes() {
    std::vector<size_t> N;
    for (std::vector<double> *V : timeSeries())
      N.push_back(V->size());
    return N;
  }
  /// Multiplies every time recorded since \p Sizes was taken by \p F.
  void rescaleSince(const std::vector<size_t> &Sizes, double F) {
    std::vector<std::vector<double> *> S = timeSeries();
    for (size_t I = 0; I != S.size(); ++I)
      for (size_t J = Sizes[I]; J < S[I]->size(); ++J)
        (*S[I])[J] *= F;
    for (size_t TI = 0; TI != NumTiers; ++TI) {
      for (const auto &[Label, Rec] : StepPhases[TI].records())
        Phases[TI].add(Label, {uint64_t(double(Rec.TotalNs) * F),
                               uint64_t(double(Rec.SelfNs) * F), Rec.Count});
      StepPhases[TI].clear();
    }
  }
};

/// Checks one ExecResult + output; returns true when it counts as a
/// completed, correct query.
bool checkExec(Env &E, Meas &M, size_t Q, const db::ExecResult &R,
               const rt::OutputBuffer &Out) {
  ++M.T.Attempted;
  if (R.Trapped) {
    ++M.T.Traps;
    return false;
  }
  if (R.Cancelled) {
    ++M.T.Cancels;
    return false;
  }
  if (Out.unorderedDigest() == E.RefDigest[Q] && Out.numRows() == E.RefRows[Q])
    return true;
  noteMismatch(M.T, E.Queries[Q].Name);
  return false;
}

const char *const CompileSpan[NumTiers] = {
    "compile.interp",    "compile.stencil",    "compile.direct",
    "compile.craneline", "compile.mlvm_cheap", "compile.mlvm_opt"};
const char *const ExecSpan[NumTiers] = {
    "exec.interp",    "exec.stencil",    "exec.direct",
    "exec.craneline", "exec.mlvm_cheap", "exec.mlvm_opt"};

/// One pass over the suite in two phases: a cold Backend::compile of every
/// module with every tier (tiers interleaved per query, seeded query
/// order), then one execution of the compiled code through
/// db::executeQuery per (query, tier), checked against the oracle. Keeping
/// the phases apart keeps each phase's caches its own. In \p Adhoc mode
/// every tier's code runs (not only the tiers with an exec metric), and
/// the compile + exec of each (query, tier) pair counts as one query for
/// query_p50_ms and query_p99_ms.
struct TierPass {
  Env &E;
  Meas &M;
  std::vector<std::unique_ptr<backend::Backend>> BEs;
  bool Adhoc;

  TierPass(Env &E, Meas &M, bool Adhoc) : E(E), M(M), Adhoc(Adhoc) {
    for (const Tier &T : Tiers)
      BEs.push_back(backend::createBackend(T.Name));
    for (const db::CompiledPlan &P : E.Plans)
      for (const auto &F : P.Module->functions())
        M.QirInsts += F->numInsts();
  }

  void run(bool Record, bool Traced) {
    SpanScope Pass("pass");
    size_t NumQ = E.Plans.size();
    std::vector<std::shared_ptr<backend::CompiledModule>> Mods(NumQ * NumTiers);
    std::vector<uint64_t> CompileNs(NumQ * NumTiers);
    double Compile[NumTiers] = {}, Exec[NumTiers] = {};
    bool FirstPass = M.CompileMs[0].empty();
    for (size_t Q = 0; Q != NumQ; ++Q)
      for (size_t TI = 0; TI != NumTiers; ++TI) {
        backend::CompileOptions CO =
            compileOptions(Traced ? &M.StepPhases[TI] : nullptr);
        uint64_t T0 = nowNs();
        {
          SpanScope S(CompileSpan[TI], Q);
          Mods[Q * NumTiers + TI] = BEs[TI]->compile(*E.Plans[Q].Module, CO);
        }
        CompileNs[Q * NumTiers + TI] = nowNs() - T0;
        Compile[TI] += double(CompileNs[Q * NumTiers + TI]);
        if (Record && FirstPass)
          for (const tv::TvFunction &F : Mods[Q * NumTiers + TI]->tvFunctions())
            M.CodeBytes[TI] += F.Size;
      }

    for (size_t Q = 0; Q != NumQ; ++Q)
      for (size_t TI = 0; TI != NumTiers; ++TI) {
        if (!Tiers[TI].ExecMetric && !Adhoc)
          continue;
        Precompiled Pre(Mods[Q * NumTiers + TI]);
        rt::OutputBuffer Out;
        uint64_t T0 = nowNs();
        db::ExecResult R;
        {
          SpanScope S(ExecSpan[TI], Q);
          R = db::executeQuery(E.Plans[Q], Pre, E.Cat, &Out, execOptions());
        }
        uint64_t ENs = nowNs() - T0;
        Exec[TI] += double(ENs);
        if (!Record)
          continue;
        if (checkExec(E, M, Q, R, Out))
          ++M.Completed;
        uint64_t Inner = R.Stats.CompileNs + R.Stats.ExecNs;
        M.OverheadUs.push_back(double(ENs > Inner ? ENs - Inner : 0) / 1e3);
        if (Adhoc)
          M.QueryMs.push_back(double(CompileNs[Q * NumTiers + TI] + ENs) / 1e6);
      }

    if (!Record)
      return;
    for (size_t TI = 0; TI != NumTiers; ++TI) {
      M.CompileMs[TI].push_back(Compile[TI] / 1e6);
      if (Tiers[TI].ExecMetric)
        M.ExecMs[TI].push_back(Exec[TI] / 1e6);
    }
    if (Traced)
      ++M.TracedPasses;
  }
};

/// Time-to-result of every query on the production adaptive path:
/// execution starts on DirectEmit while MLVM-opt compiles on one
/// CompileService worker and is swapped in at a morsel boundary.
struct AdaptivePass {
  Env &E;
  Meas &M;
  std::unique_ptr<backend::Backend> Fast = backend::createBackend("DirectEmit");
  std::unique_ptr<backend::Backend> Opt = backend::createBackend("MLVM-opt");
  obs::MetricsRegistry Reg;
  backend::CompileService Svc{1, 0, &Reg};

  AdaptivePass(Env &E, Meas &M) : E(E), M(M) {}

  void run(bool Record) {
    SpanScope Pass("pass.adaptive");
    for (size_t Q = 0; Q != E.Plans.size(); ++Q) {
      db::ExecOptions EO = execOptions();
      EO.AdaptiveExec = true;
      EO.FastBackend = Fast.get();
      EO.Service = &Svc;
      rt::OutputBuffer Out;
      uint64_t T0 = nowNs();
      db::ExecResult R;
      {
        SpanScope S("exec.adaptive", Q);
        R = db::executeQuery(E.Plans[Q], *Opt, E.Cat, &Out, EO);
      }
      uint64_t Ns = nowNs() - T0;
      if (!Record)
        continue;
      if (checkExec(E, M, Q, R, Out))
        ++M.Completed;
      M.QueryMs.push_back(double(Ns) / 1e6);
      ++M.AdaptiveQueries;
      M.OsrSwaps += R.Stats.OsrSwaps;
      M.OsrStallNs += R.Stats.OsrStallNs;
      for (const db::PipelineStats &PS : R.Stats.Pipelines) {
        M.RowsFast += PS.RowsFast;
        M.RowsOpt += PS.RowsOpt;
      }
    }
  }
};

//===----------------------------------------------------------------------===//
// serve-churn
//===----------------------------------------------------------------------===//

/// One server lifetime: a fresh Server over a fresh disk code cache, two
/// closed-loop sessions drawing from a seeded Zipf over the suite. The
/// L1 cache holds fewer modules than the suite, so the round mixes L1
/// hits, disk reloads and first-touch compiles + stores.
struct ServeRound {
  Env &E;
  const RunConfig &Cfg;
  std::vector<double> ZipfCdf;
  uint64_t Round = 0;

  ServeRound(Env &E, const RunConfig &Cfg) : E(E), Cfg(Cfg) {
    double Sum = 0;
    for (size_t I = 0; I != E.Queries.size(); ++I) {
      Sum += 1.0 / std::pow(double(I + 1), ServeZipfS);
      ZipfCdf.push_back(Sum);
    }
    for (double &C : ZipfCdf)
      C /= Sum;
  }

  static serve::ServerConfig serverConfig(obs::MetricsRegistry *Reg) {
    serve::ServerConfig SC;
    SC.BackendName = "Craneline";
    SC.CompileWorkers = 2;
    SC.CompileQueueCapacity = 64;
    SC.CacheCapacity = ServeCacheCapacity;
    SC.Admission.Slots = ServeSessions;
    SC.Admission.MaxWaiters = 64;
    SC.StartSweeper = false;
    SC.ExecThreads = 1;
    SC.Reg = Reg;
    return SC;
  }

  /// A query index. Popularity follows suite order, so the seed changes
  /// the draws but not which queries are hot.
  size_t draw(Rng &R) const {
    double U = R.nextDouble();
    size_t Rank = size_t(std::lower_bound(ZipfCdf.begin(), ZipfCdf.end(), U) -
                         ZipfCdf.begin());
    return E.SuiteOrder[std::min(Rank, ZipfCdf.size() - 1)];
  }

  /// \returns the round's wall time in nanoseconds.
  uint64_t run(Meas &M, bool Record) {
    SpanScope RoundSpan("round");
    fs::path Dir = fs::path(Cfg.WorkDir) / ("code-cache-" + std::to_string(Round));
    fs::remove_all(Dir);
    // Server takes its disk tier only from $QCF_CODE_CACHE.
    setenv("QCF_CODE_CACHE", Dir.c_str(), 1);
    obs::MetricsRegistry Reg;
    std::vector<double> Lat[ServeSessions], Wait[ServeSessions];
    uint64_t Ok[ServeSessions] = {};
    uint64_t T0 = nowNs();
    {
      serve::Server Srv(serverConfig(&Reg), E.Cat);
      unsetenv("QCF_CODE_CACHE");
      Srv.registerTenant("bench", serve::TenantQuota{});
      std::vector<std::thread> Clients;
      for (unsigned S = 0; S != ServeSessions; ++S)
        Clients.emplace_back([&, S] {
          SpanScope SessionSpan("session", 0, RoundSpan.id());
          serve::OpenOutcome O = Srv.openSession("bench");
          if (O.Outcome != serve::Admit::Ok) {
            ++M.T.Rejects;
            return;
          }
          Rng R(Cfg.Seed * 1000003 + Round * 131 + S);
          for (unsigned I = 0; I != ServeQueriesPerSession; ++I) {
            size_t Q = draw(R);
            uint64_t Q0 = nowNs();
            serve::QueryOutcome QO;
            {
              SpanScope Span("serve.execute", Q);
              QO = Srv.execute(O.SessionId, E.Queries[Q]);
            }
            uint64_t Ns = nowNs() - Q0;
            if (!Record)
              continue;
            ++M.T.Attempted;
            if (QO.Outcome != serve::Admit::Ok && !QO.Cancelled)
              ++M.T.Rejects;
            else if (QO.Cancelled)
              ++M.T.Cancels;
            else if (QO.Trapped)
              ++M.T.Traps;
            else if (QO.Digest != E.RefDigest[Q] || QO.Rows != E.RefRows[Q])
              noteMismatch(M.T, E.Queries[Q].Name);
            else
              ++Ok[S];
            Lat[S].push_back(double(Ns) / 1e6);
            Wait[S].push_back(double(QO.AdmitWaitNs) / 1e3);
          }
          Srv.closeSession(O.SessionId);
        });
      for (std::thread &C : Clients)
        C.join();
      if (Record) {
        backend::CacheStats C = Srv.cacheBackend().stats();
        M.L1.Hits += C.Hits;
        M.L1.Misses += C.Misses;
        M.L1.Evictions += C.Evictions;
        if (backend::DiskCodeCache *D = Srv.diskCache()) {
          backend::DiskCacheStats DS = D->stats();
          M.Disk.Hits += DS.Hits;
          M.Disk.Misses += DS.Misses;
          M.Disk.Stores += DS.Stores;
          M.Disk.Rejected += DS.Rejected;
        }
        backend::CompileServiceStats SS = Srv.compileService().stats();
        M.Svc.JobsCompleted += SS.JobsCompleted;
        M.Svc.QueueDepthHighWater =
            std::max(M.Svc.QueueDepthHighWater, SS.QueueDepthHighWater);
        M.Svc.RejectedForeground += SS.RejectedForeground;
        M.Svc.RejectedBackground += SS.RejectedBackground;
        M.Svc.RejectedTenant += SS.RejectedTenant;
      }
      Srv.shutdown();
    }
    uint64_t Ns = nowNs() - T0;
    fs::remove_all(Dir);
    ++Round;
    if (Record)
      for (unsigned S = 0; S != ServeSessions; ++S) {
        M.QueryMs.insert(M.QueryMs.end(), Lat[S].begin(), Lat[S].end());
        M.AdmitWaitUs.insert(M.AdmitWaitUs.end(), Wait[S].begin(),
                             Wait[S].end());
        M.Completed += Ok[S];
        M.Served += Ok[S];
      }
    return Ns;
  }
};

//===----------------------------------------------------------------------===//
// Probes (traced runs): direct calls on the workload's own modules
//===----------------------------------------------------------------------===//

struct Probes {
  double CodegenUs = 0, L1HitUs = 0, DiskLoadUs = 0, DiskStoreUs = 0,
         AdmissionPairNs = 0;
};

Probes runProbes(Env &E, const RunConfig &Cfg) {
  Probes P;
  constexpr unsigned Reps = 5;

  std::vector<double> Us;
  for (unsigned R = 0; R != Reps; ++R)
    for (size_t Q = 0; Q != E.Queries.size(); ++Q) {
      SpanScope S("probe.codegen", Q);
      uint64_t T0 = nowNs();
      db::CompiledPlan Plan = db::compileQuery(E.Queries[Q], E.Cat);
      Us.push_back(double(nowNs() - T0) / 1e3);
    }
  P.CodegenUs = medianOf(Us);

  // L1 hit: the cache has no disk tier and no service here, so a hit is
  // fingerprint + LRU lookup + handle copy.
  {
    obs::MetricsRegistry Reg;
    backend::CachingBackend Cache(backend::createBackend("Craneline"), 0,
                                  nullptr, &Reg, nullptr);
    backend::CompileOptions CO = compileOptions();
    for (const db::CompiledPlan &Plan : E.Plans)
      (void)Cache.compile(*Plan.Module, CO);
    Us.clear();
    for (unsigned R = 0; R != Reps; ++R)
      for (size_t Q = 0; Q != E.Plans.size(); ++Q) {
        SpanScope S("probe.l1_hit", Q);
        uint64_t T0 = nowNs();
        auto Mod = Cache.compile(*E.Plans[Q].Module, CO);
        Us.push_back(double(nowNs() - T0) / 1e3);
      }
    P.L1HitUs = medianOf(Us);
  }

  // Disk store and load of every module, Craneline code.
  {
    fs::path Dir = fs::path(Cfg.WorkDir) / "probe-disk";
    fs::remove_all(Dir);
    obs::MetricsRegistry Reg;
    backend::DiskCodeCache Disk(Dir.string(), 0, &Reg);
    auto BE = backend::createBackend("Craneline");
    backend::CompileOptions CO = compileOptions();
    std::vector<backend::ModuleFingerprint> Keys;
    std::vector<std::unique_ptr<backend::CompiledModule>> Mods;
    for (const db::CompiledPlan &Plan : E.Plans) {
      Keys.push_back(backend::fingerprintModule(*Plan.Module));
      Mods.push_back(BE->compile(*Plan.Module, CO));
    }
    std::vector<double> Store, Load;
    for (unsigned R = 0; R != Reps; ++R)
      for (size_t Q = 0; Q != Mods.size(); ++Q) {
        uint64_t T0 = nowNs();
        {
          SpanScope S("probe.disk_store", Q);
          Disk.store(Keys[Q], *BE, *Mods[Q], CO);
        }
        uint64_t T1 = nowNs();
        {
          SpanScope S("probe.disk_load", Q);
          auto M = Disk.load(Keys[Q], *BE, CO);
        }
        Store.push_back(double(T1 - T0) / 1e3);
        Load.push_back(double(nowNs() - T1) / 1e3);
      }
    P.DiskStoreUs = medianOf(Store);
    P.DiskLoadUs = medianOf(Load);
    fs::remove_all(Dir);
  }

  // Uncontended admission enter + leave.
  {
    obs::MetricsRegistry Reg;
    serve::AdmissionGate::Config GC;
    GC.Slots = ServeSessions;
    serve::AdmissionGate G(GC, &Reg);
    std::vector<double> Ns;
    constexpr unsigned Iters = 20000;
    for (unsigned R = 0; R != 7; ++R) {
      uint64_t T0 = nowNs();
      for (unsigned I = 0; I != Iters; ++I) {
        (void)G.enter();
        G.leave(1000);
      }
      Ns.push_back(double(nowNs() - T0) / Iters);
    }
    P.AdmissionPairNs = medianOf(Ns);
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Driving one run
//===----------------------------------------------------------------------===//

/// The workload-specific part of a run: set-up of the measured objects,
/// one warm-up pass, and one measured unit of work.
struct Workload {
  virtual ~Workload() = default;
  virtual double scale() const = 0;
  /// Builds the measured objects over \p E; runs the untimed warm-up.
  virtual void prepare(Env &E, Meas &M, const RunConfig &Cfg) = 0;
  /// One unit of measured work; tracing is on when \p Traced.
  virtual void step(bool Traced) = 0;
  /// True once the loop has enough samples to stop at the deadline.
  virtual bool enough() const { return true; }
  /// Nonzero: the loop runs exactly this many steps instead of until the
  /// deadline.
  virtual uint64_t fixedSteps(double Seconds) const { return 0; }
  /// Steps that together run each kind of step once.
  virtual uint64_t stepsPerCycle() const { return 1; }
  /// Reads the stats of the workload's own objects after the loop.
  virtual void collect() {}
};

struct AdhocCompile : Workload {
  std::unique_ptr<TierPass> TP;
  Meas *M = nullptr;
  double scale() const override { return AdhocScale; }
  void prepare(Env &E, Meas &Ms, const RunConfig &) override {
    M = &Ms;
    TP = std::make_unique<TierPass>(E, Ms, /*Adhoc=*/true);
    TP->run(/*Record=*/false, false);
  }
  void step(bool Traced) override { TP->run(true, Traced); }
  bool enough() const override { return M->BlockP99.size() >= MinBlocks; }
};

struct AnalyticLarge : Workload {
  std::unique_ptr<TierPass> TP;
  std::unique_ptr<AdaptivePass> AP;
  Meas *M = nullptr;
  uint64_t Steps = 0, WarmJobs = 0;
  double scale() const override { return AnalyticScale; }
  void prepare(Env &E, Meas &Ms, const RunConfig &) override {
    M = &Ms;
    TP = std::make_unique<TierPass>(E, Ms, /*Adhoc=*/false);
    AP = std::make_unique<AdaptivePass>(E, Ms);
    TP->run(false, false);
    AP->run(false);
    AP->Svc.drain();
    WarmJobs = AP->Svc.stats().JobsCompleted;
  }
  void step(bool Traced) override {
    // Adaptive passes are cheaper than a tier pass; five of them per
    // tier pass give query_p99_ms its blocks within the run. Each pass is
    // its own step, so it gets its own time scale.
    if (Steps++ % stepsPerCycle() == 0)
      TP->run(true, Traced);
    else
      AP->run(true);
  }
  bool enough() const override { return M->BlockP99.size() >= MinBlocks; }
  uint64_t stepsPerCycle() const override { return 6; }
  void collect() override {
    M->Svc = AP->Svc.stats();
    M->Svc.JobsCompleted -= WarmJobs;
  }
};

struct ServeChurn : Workload {
  std::unique_ptr<ServeRound> SR;
  std::unique_ptr<TierPass> TP;
  Meas *M = nullptr;
  uint64_t Steps = 0;
  double scale() const override { return ServeScale; }
  void prepare(Env &E, Meas &Ms, const RunConfig &Cfg) override {
    M = &Ms;
    SR = std::make_unique<ServeRound>(E, Cfg);
    TP = std::make_unique<TierPass>(E, Ms, /*Adhoc=*/false);
    SR->run(Ms, /*Record=*/false);
    TP->run(false, false);
  }
  void step(bool Traced) override {
    M->WorkSec.push_back(double(SR->run(*M, true)) / 1e9);
    // compile_ms.* and exec_ms.* on this workload's own modules, in the
    // same time window as the rounds.
    if (++Steps % ServeRoundsPerTierPass == 0)
      TP->run(true, Traced);
  }
  /// Every round grows the append-only ExecArena by its disk reloads, so
  /// the round count is fixed per run to keep peak_rss_mb comparable.
  uint64_t fixedSteps(double Seconds) const override {
    return std::max<uint64_t>(ServeRoundsPerTierPass,
                              uint64_t(Seconds * ServeRoundsPerSecond));
  }
  uint64_t stepsPerCycle() const override { return ServeRoundsPerTierPass; }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "adhoc-compile")
    return std::make_unique<AdhocCompile>();
  if (Name == "analytic-large")
    return std::make_unique<AnalyticLarge>();
  if (Name == "serve-churn")
    return std::make_unique<ServeChurn>();
  return nullptr;
}

/// Unsets every variable that would change what the program under test
/// does behind the benchmark's back.
void clearEnvironment() {
  static const char *const Prefixes[] = {"QCF_CODE_CACHE", "QCF_FAST_TIER",
                                         "QCF_VERIFY", "QCF_ALLOC",
                                         "QCF_SERVE_"};
  std::vector<std::string> Names;
  for (char **P = environ; *P; ++P) {
    std::string Var(*P);
    std::string Name = Var.substr(0, Var.find('='));
    for (const char *Pre : Prefixes)
      if (Name.rfind(Pre, 0) == 0)
        Names.push_back(Name);
  }
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

void printConfig(const RunConfig &Cfg, const Workload &W) {
  serve::ServerConfig SC = ServeRound::serverConfig(nullptr);
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d scale=%g "
              "queries=23 tiers=interp,stencil,direct,craneline,mlvm_cheap,"
              "mlvm_opt verify=none alloc=heap exec_threads=1 morsel=2048\n",
              Cfg.Workload.c_str(), (unsigned long long)Cfg.Seed, Cfg.Seconds,
              int(Cfg.Trace), W.scale());
  if (Cfg.Workload == "analytic-large")
    std::printf("config: adaptive fast=DirectEmit opt=MLVM-opt "
                "service_workers=1 osr_min_rows_remaining=1\n");
  if (Cfg.Workload == "serve-churn")
    std::printf("config: server backend=%s compile_workers=%u queue_cap=%zu "
                "cache_cap=%zu slots=%u max_waiters=%u exec_threads=%u "
                "sessions=%u queries_per_session_round=%u zipf_s=%g "
                "disk_cache=fresh dir per round\n",
                SC.BackendName.c_str(), SC.CompileWorkers,
                SC.CompileQueueCapacity, SC.CacheCapacity, SC.Admission.Slots,
                SC.Admission.MaxWaiters, SC.ExecThreads, ServeSessions,
                ServeQueriesPerSession, ServeZipfS);
  std::printf("config: cleared QCF_CODE_CACHE* QCF_FAST_TIER QCF_VERIFY "
              "QCF_ALLOC QCF_SERVE_*\n");
}

/// Machine-speed probe independent of QCF: hashing, node allocation and
/// a sort, roughly the mix a compiler pass does. On a shared host every
/// process can slow down by 40% for seconds to minutes at a time (memory
/// contention and CPU steal from other tenants). The probe, timed in wall
/// time, slows down with it, so the benchmark probes between every two
/// units of work (see Calibrator). Timing it in thread CPU time and
/// correcting for /proc/stat steal separately tracked the workloads worse.
volatile uint64_t CalibrationSink;

double calibrationMs() {
  uint64_t T0 = nowNs();
  Rng R(1);
  std::map<uint64_t, std::unique_ptr<std::string>> Tree;
  std::unordered_map<uint64_t, uint64_t> Hash;
  for (int I = 0; I != 5000; ++I) {
    uint64_t K = R.next();
    Tree[K % 100000] = std::make_unique<std::string>(40, char('a' + I % 26));
    Hash[K] = I;
  }
  std::vector<uint64_t> V;
  for (auto &KV : Tree)
    V.push_back(KV.first * Hash.size());
  std::sort(V.begin(), V.end(), std::greater<>());
  CalibrationSink = V[0];
  return double(nowNs() - T0) / 1e6;
}

/// Host steal time so far, summed over all CPUs, in seconds: time this
/// machine's virtual CPUs were runnable but the host ran someone else.
double stealSec() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  return N == 8 ? double(V[7]) / double(sysconf(_SC_CLK_TCK)) : 0;
}

/// Rescales the times of each unit of work (one set-up, pass or serve
/// round) by ReferenceCalibrationMs over the mean of the probes before and
/// after the unit. Remembers each unit's interval and scale so spans can
/// be rescaled by when they ran.
class Calibrator {
public:
  Calibrator()
      : Before(calibrationMs()), Probes{Before}, StartNs(nowNs()),
        StartSteal(stealSec()) {}

  /// Ends the unit of work that ran over [\p StartNs, \p EndNs) and
  /// returns its time scale.
  double endUnit(uint64_t StartNs, uint64_t EndNs) {
    double After = calibrationMs();
    Probes.push_back(After);
    double F = 2 * ReferenceCalibrationMs / (Before + After);
    Before = After;
    Intervals.push_back({StartNs, EndNs, F});
    return F;
  }

  /// \p Spans on a rescaled clock: inside each unit of work, time runs at
  /// that unit's scale from the unit's start. Both ends of a span move by
  /// the unit its start falls in, so nesting and self times survive.
  std::vector<Span> rescale(std::vector<Span> Spans) const {
    for (Span &S : Spans) {
      auto It = std::upper_bound(
          Intervals.begin(), Intervals.end(), S.StartNs,
          [](uint64_t T, const Interval &I) { return T < I.StartNs; });
      if (It == Intervals.begin() || S.StartNs >= std::prev(It)->EndNs)
        continue;
      const Interval &U = *std::prev(It);
      auto At = [&](uint64_t T) {
        return U.StartNs + uint64_t(double(T - U.StartNs) * U.Scale);
      };
      S.StartNs = At(S.StartNs);
      S.EndNs = At(S.EndNs);
    }
    return Spans;
  }

  double medianProbeMs() const { return medianOf(Probes); }
  /// Host steal since construction, as a share of all CPUs' time; printed
  /// so a noisy run can be told apart.
  double stealShare() const {
    double WallSec = double(nowNs() - StartNs) / 1e9;
    long Cpus = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    return WallSec > 0 ? (stealSec() - StartSteal) / (WallSec * double(Cpus))
                       : 0;
  }

private:
  struct Interval {
    uint64_t StartNs, EndNs;
    double Scale;
  };
  double Before;
  std::vector<double> Probes;
  uint64_t StartNs;
  double StartSteal;
  std::vector<Interval> Intervals; ///< In start order.
};

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0.0;
}

/// nearest-rank p99, or 0 when fewer than MinAboveP99 samples lie above.
double p99(const std::vector<double> &V) {
  return samplesAbove(V.size(), 0.99) >= MinAboveP99 ? nearestRank(V, 0.99)
                                                     : 0.0;
}

void emitEndToEnd(Result &R, Meas &M, double SetupS) {
  R.metric("setup_s", SetupS, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  for (size_t TI = 0; TI != NumTiers; ++TI)
    R.metric(std::string("compile_ms.") + Tiers[TI].Key,
             medianOf(M.CompileMs[TI]), "ms");
  for (size_t TI = 0; TI != NumTiers; ++TI)
    if (Tiers[TI].ExecMetric)
      R.metric(std::string("exec_ms.") + Tiers[TI].Key,
               medianOf(M.ExecMs[TI]), "ms");
  R.metric("query_p50_ms", nearestRank(M.QueryMs, 0.5), "ms");
  R.metric("query_p99_ms",
           M.BlockP99.empty() ? p99(M.QueryMs) : medianOf(M.BlockP99), "ms");
  R.metric("throughput_qps", medianOf(M.CycleQps), "1/s");
}

void emitPerLayer(Result &R, Meas &M, const Probes &P, double Overhead,
                  const Calibrator *Cal) {
  std::vector<Span> Raw = SpanRecorder::global().spans();
  std::map<std::string, SpanStats> Spans =
      spanStats(Cal ? Cal->rescale(std::move(Raw)) : std::move(Raw));
  for (const auto &[Name, St] : Spans)
    std::printf("span %-20s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                Name.c_str(), (unsigned long long)St.Count,
                double(St.TotalNs) / 1e6, double(St.SelfNs) / 1e6);
  auto spanUs = [&](const char *Name, double Pct) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? 0.0
                             : (Pct == 0.99 ? p99(It->second.DurNs)
                                            : nearestRank(It->second.DurNs,
                                                          Pct)) /
                                   1e3;
  };

  R.metric("db.codegen_us", P.CodegenUs, "us");
  R.metric("qir.insts", double(M.QirInsts), "count");
  for (size_t TI = 0; TI != NumTiers; ++TI) {
    std::string K = Tiers[TI].Key;
    R.metric(K + ".compile_us_p50", spanUs(CompileSpan[TI], 0.5), "us");
    R.metric(K + ".compile_us_p99", spanUs(CompileSpan[TI], 0.99), "us");
  }
  for (size_t TI = 0; TI != NumTiers; ++TI) {
    const PhaseSet &PS = phaseSets()[TI];
    const auto &Recs = M.Phases[TI].records();
    for (const char *L : PS.Labels) {
      auto It = Recs.find(std::string(PS.Prefix) + L);
      double SelfNs = It == Recs.end() ? 0 : double(It->second.SelfNs);
      R.metric(std::string("phase.") + Tiers[TI].Key + "." + L + "_us",
               M.TracedPasses ? SelfNs / 1e3 / double(M.TracedPasses) : 0,
               "us");
    }
    // Labels the metric set leaves out, so a new phase does not go unseen.
    for (const auto &[Label, Rec] : Recs)
      if (std::none_of(PS.Labels.begin(), PS.Labels.end(), [&](const char *L) {
            return std::string(PS.Prefix) + L == Label;
          }))
        std::printf("phase not reported: %s %s self_us=%.1f\n", Tiers[TI].Key,
                    Label.c_str(),
                    double(Rec.SelfNs) / 1e3 / double(M.TracedPasses));
  }
  for (size_t TI = 0; TI != NumTiers; ++TI)
    if (std::string(Tiers[TI].Key) != "interp")
      R.metric(std::string(Tiers[TI].Key) + ".code_bytes",
               double(M.CodeBytes[TI]), "bytes");
  R.metric("x64.arena_bytes", double(x64::ExecArena::global().bytesAllocated()),
           "bytes");

  R.metric("backend.cache.l1_hit_ratio", ratio(M.L1.Hits, M.L1.lookups()),
           "fraction");
  R.metric("backend.cache.l1_lookups", double(M.L1.lookups()), "count");
  R.metric("backend.cache.l1_evictions", double(M.L1.Evictions), "count");
  R.metric("backend.disk.hits", double(M.Disk.Hits), "count");
  R.metric("backend.disk.misses", double(M.Disk.Misses), "count");
  R.metric("backend.disk.stores", double(M.Disk.Stores), "count");
  R.metric("backend.disk.rejected", double(M.Disk.Rejected), "count");
  R.metric("backend.cache.l1_hit_us", P.L1HitUs, "us");
  R.metric("backend.disk.load_us", P.DiskLoadUs, "us");
  R.metric("backend.disk.store_us", P.DiskStoreUs, "us");
  R.metric("backend.svc.jobs", double(M.Svc.JobsCompleted), "count");
  R.metric("backend.svc.queue_high_water", double(M.Svc.QueueDepthHighWater),
           "count");
  R.metric("backend.svc.rejected",
           double(M.Svc.RejectedForeground + M.Svc.RejectedBackground +
                  M.Svc.RejectedTenant),
           "count");

  R.metric("db.exec.osr_swaps", ratio(M.OsrSwaps, M.AdaptiveQueries),
           "1/query");
  R.metric("db.exec.fast_row_frac", ratio(M.RowsFast, M.RowsFast + M.RowsOpt),
           "fraction");
  R.metric("db.exec.adaptive_rows", double(M.RowsFast + M.RowsOpt), "count");
  R.metric("db.exec.osr_stall_us",
           M.AdaptiveQueries ? double(M.OsrStallNs) / 1e3 / M.AdaptiveQueries
                             : 0,
           "us");
  R.metric("db.exec.overhead_us", medianOf(M.OverheadUs), "us");

  R.metric("serve.admit_wait_us_p50", nearestRank(M.AdmitWaitUs, 0.5), "us");
  R.metric("serve.admit_wait_us_p99", p99(M.AdmitWaitUs), "us");
  R.metric("serve.admission_pair_ns", P.AdmissionPairNs, "ns");
  R.metric("query.samples", double(M.QueryMs.size()), "count");
  R.metric("obs.trace_overhead", Overhead, "fraction");
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "adhoc-compile", "analytic-large", "serve-churn"};
  return Names;
}

const std::vector<MetricDef> &metricCatalog() {
  static const std::vector<MetricDef> Catalog = [] {
    // Read the names back from one throwaway result of each kind, so the
    // catalog cannot drift from what the emitters produce.
    std::vector<MetricDef> C;
    Meas M;
    Result E2E, Layer;
    emitEndToEnd(E2E, M, 0);
    emitPerLayer(Layer, M, Probes(), 0, nullptr);
    for (const Result *R : {&E2E, &Layer})
      for (const Result::Entry &En : R->entries())
        C.push_back({En.Name, En.Unit, R == &E2E});
    return C;
  }();
  return Catalog;
}

bool runWorkload(const RunConfig &Cfg, Result &R) {
  std::unique_ptr<Workload> W = makeWorkload(Cfg.Workload);
  if (!W)
    return false;
  clearEnvironment();
  printConfig(Cfg, *W);
  Calibrator Cal;

  // Set-up three times from scratch; report the median, keep the last.
  constexpr unsigned SetupReps = 3;
  std::vector<double> SetupS;
  std::unique_ptr<Env> E;
  std::unique_ptr<Meas> M;
  for (unsigned I = 0; I != SetupReps; ++I) {
    W = makeWorkload(Cfg.Workload);
    M.reset();
    E.reset();
    uint64_t T0 = nowNs();
    E = std::make_unique<Env>();
    M = std::make_unique<Meas>();
    buildEnv(*E, W->scale(), Cfg.Seed);
    W->prepare(*E, *M, Cfg);
    uint64_t T1 = nowNs();
    SetupS.push_back(double(T1 - T0) / 1e9 * Cal.endUnit(T0, T1));
  }
  if (Cfg.CorruptDigest)
    E->RefDigest[0] ^= 1;

  // The measured loop, one step per unit of work, each rescaled by the
  // probes around it. A traced run alternates traced and untraced cycles
  // (a cycle covers each kind of step once) so their ratio prices the
  // tracing itself.
  bool TimesOwnWork = Cfg.Workload == "serve-churn";
  uint64_t Start = nowNs();
  uint64_t LoopEnd = Start + uint64_t(Cfg.Seconds * 1e9);
  uint64_t HardEnd = Start + uint64_t(4 * Cfg.Seconds * 1e9);
  uint64_t Fixed = W->fixedSteps(Cfg.Seconds);
  uint64_t Cycle = W->stepsPerCycle();
  double CycleNs = 0;
  uint64_t CycleQueries = M->throughputQueries();
  double CycleWork = 0;
  size_t BlockStart = 0;
  for (uint64_t Step = 0;; ++Step) {
    bool Traced = Cfg.Trace && ((Step / Cycle) & 1);
    SpanRecorder::global().setEnabled(Traced);
    std::vector<size_t> Sizes = M->seriesSizes();
    uint64_t T0 = nowNs();
    W->step(Traced);
    uint64_t T1 = nowNs();
    SpanRecorder::global().setEnabled(false);
    if (!TimesOwnWork)
      M->WorkSec.push_back(double(T1 - T0) / 1e9);
    double F = Cal.endUnit(T0, T1);
    M->rescaleSince(Sizes, F);
    CycleNs += double(T1 - T0) * F;
    if ((Step + 1) % Cycle)
      continue;
    M->CycleNs[Traced].push_back(CycleNs);
    CycleNs = 0;
    double Work = std::accumulate(M->WorkSec.begin(), M->WorkSec.end(), 0.0);
    M->CycleQps.push_back(double(M->throughputQueries() - CycleQueries) /
                          std::max(1e-9, Work - CycleWork));
    CycleQueries = M->throughputQueries();
    CycleWork = Work;
    if (M->QueryMs.size() - BlockStart >= P99Block) {
      M->BlockP99.push_back(nearestRank(
          std::vector<double>(M->QueryMs.begin() + BlockStart, M->QueryMs.end()),
          0.99));
      BlockStart = M->QueryMs.size();
    }
    uint64_t Now = nowNs();
    if (Fixed ? Step + 1 >= Fixed
              : Now >= HardEnd || (Now >= LoopEnd && W->enough() &&
                                   (!Cfg.Trace || M->CycleNs[1].size() >= 2)))
      break;
  }
  W->collect();

  Probes P;
  double Overhead = 0;
  if (Cfg.Trace) {
    SpanRecorder::global().setEnabled(true);
    uint64_t T0 = nowNs();
    P = runProbes(*E, Cfg);
    uint64_t T1 = nowNs();
    SpanRecorder::global().setEnabled(false);
    double F = Cal.endUnit(T0, T1);
    for (double *V : {&P.CodegenUs, &P.L1HitUs, &P.DiskLoadUs, &P.DiskStoreUs,
                      &P.AdmissionPairNs})
      *V *= F;
    double Plain = medianOf(M->CycleNs[0]);
    Overhead = Plain > 0 ? medianOf(M->CycleNs[1]) / Plain - 1 : 0;
  }

  R.Attempted = M->T.Attempted;
  R.Failed = M->T.failed();
  R.Correct = R.Failed == 0 && R.Attempted > 0;
  std::printf("calibration: probe_ms=%.4f reference_ms=%.4f host_steal=%.4f "
              "(times are rescaled per unit of work to the reference probe "
              "time)\n",
              Cal.medianProbeMs(), ReferenceCalibrationMs, Cal.stealShare());
  std::printf("result: attempted=%llu traps=%llu cancels=%llu rejects=%llu "
              "mismatches=%llu error_rate=%.6f query_samples=%zu "
              "query_p99_samples_above=%llu\n",
              (unsigned long long)M->T.Attempted,
              (unsigned long long)M->T.Traps.load(),
              (unsigned long long)M->T.Cancels.load(),
              (unsigned long long)M->T.Rejects.load(),
              (unsigned long long)M->T.Mismatches.load(),
              ratio(R.Failed, R.Attempted), M->QueryMs.size(),
              (unsigned long long)samplesAbove(M->QueryMs.size(), 0.99));
  if (Cfg.Trace)
    emitPerLayer(R, *M, P, Overhead, &Cal);
  else
    emitEndToEnd(R, *M, medianOf(SetupS));
  return true;
}

} // namespace qcf::perfbench
