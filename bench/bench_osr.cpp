//===- bench/bench_osr.cpp - E15: adaptive exec regret vs oracle tier ------===//
//
// Part of the QCF project. The paper's Figure 7 picks a compile tier
// statically per query from the compile-time/run-time crossover; the
// AdaptiveExec mode instead starts on the cheap tier and swaps to the
// optimized one at the morsel boundary where its compile lands. E15
// measures the *regret* of that dynamic choice against an oracle that
// picks a static tier with perfect foresight — but, crucially, under the
// same code-availability timeline: an oracle that chooses the optimized
// tier still cannot run optimized code before it exists.
//
// For each query the bench sweeps the landing boundary K deterministically
// (OsrForceSwapMorsel) over pre-warmed, cached compiles, so the measured
// times isolate the cutover mechanism itself (morsel loop, entry reload,
// swap probe, stall at the forced boundary) from compile-resource
// contention, which is excluded by design: a concurrent optimizing
// compile steals cycles from whatever it overlaps with on a loaded host.
// Per query and boundary K:
//
//   allFast     = adaptive run forced past the end (never swaps)
//   allOpt      = adaptive run forced at K=0 (everything optimized)
//   adaptive(K) = forced swap at morsel boundary K
//   tK          = fast-tier time adaptive(K) actually spent (its stats)
//   oracle(K)   = min(allFast, tK + allOpt)   — best static choice given
//                 the optimized code landed when the run reached K
//   regret(K)   = adaptive(K) - oracle(K)
//
// The acceptance bound: worst-case regret <= one cheap-tier morsel per
// pipeline (mean fast-tier morsel time from the never-swapped run) — the
// morsel each pipeline was already running when the compile landed —
// plus a fixed allowance for wall-clock noise between separate runs.
//
//   bench_osr [--json] [--quick]
//
// --json writes the BENCH_<n>.json trajectory record (n from the central
// ordinal in bench/BenchUtil.h; QCF_BENCH_ORDINAL pins it, as CI does to
// keep this bench's historical artifact name); --quick trims scale
// factor and repetitions for the CI smoke run.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "backend/Cache.h"
#include "backend/CompileService.h"

using namespace qcf;
using namespace qcf::bench;

namespace {

constexpr uint64_t MorselSize = 4096;

struct ForcedRun {
  double Sec = 1e100;  ///< Latency to results: fast compile + exec.
  double FastSec = 0;  ///< Time spent executing fast-tier morsels.
  double CheapMorselSec = 0; ///< One mean fast-tier morsel per pipeline.
  uint64_t Swaps = 0;
  uint64_t MaxMorsels = 0; ///< Largest pipeline's morsel count.
};

/// One forced-boundary adaptive run, folded into \p Best if faster. Both
/// tiers sit behind warmed CachingBackends, so the "compile" the swap
/// waits for is a cache hit and the measurement is the cutover mechanism
/// itself.
void forcedRun(db::CompiledPlan &Plan, backend::Backend &Fast,
               backend::Backend &Opt, const db::Catalog &Cat,
               backend::CompileService &Svc, int64_t K, ForcedRun &Best) {
  rt::OutputBuffer Out;
  db::ExecOptions O;
  O.MorselSize = MorselSize;
  O.AdaptiveExec = true;
  O.FastBackend = &Fast;
  O.Service = &Svc;
  O.OsrForceSwapMorsel = K;
  db::ExecResult Res = db::executeQuery(Plan, Opt, Cat, &Out, O);
  if (Res.Trapped)
    reportFatalError("benchmark query trapped");
  double Sec = 1e-9 * (Res.Stats.CompileNs + Res.Stats.ExecNs);
  if (Sec < Best.Sec) {
    Best.Sec = Sec;
    Best.Swaps = Res.Stats.OsrSwaps;
    Best.FastSec = 0;
    Best.CheapMorselSec = 0;
    Best.MaxMorsels = 0;
    for (const db::PipelineStats &P : Res.Stats.Pipelines) {
      Best.FastSec += double(P.NsFast) * 1e-9;
      if (P.MorselsFast)
        Best.CheapMorselSec +=
            (double(P.NsFast) / double(P.MorselsFast)) * 1e-9;
      Best.MaxMorsels = std::max(Best.MaxMorsels, P.Morsels);
    }
  }
}

/// One query's full regret measurement at \p Rounds repetitions.
struct QueryRegret {
  ForcedRun AllFast, AllOpt;
  double Worst = -1e100, Bound = 0;
  int64_t WorstK = 0;
  uint64_t Swaps = 0;
  uint64_t NM = 0;
};

QueryRegret measureQuery(db::CompiledPlan &Plan, backend::Backend &Fast,
                         backend::Backend &Opt, const db::Catalog &Cat,
                         backend::CompileService &Svc, uint64_t NM,
                         unsigned Rounds, double NoiseSec) {
  QueryRegret Q;
  Q.NM = NM;
  // Boundary sample: first, early, interior, and late cutovers; PastEnd
  // (beyond every pipeline's last boundary) never swaps and provides the
  // all-fast side of the oracle.
  int64_t PastEnd = static_cast<int64_t>(NM) + 1;
  std::vector<int64_t> Ks = {0, 1, 2, static_cast<int64_t>(NM / 2),
                             static_cast<int64_t>(NM ? NM - 1 : 0)};
  std::sort(Ks.begin(), Ks.end());
  Ks.erase(std::unique(Ks.begin(), Ks.end()), Ks.end());

  // Interleave every configuration round-by-round (same reasoning as
  // suiteObsOverhead): a regret subtracts separately-measured wall
  // times, so drift between measurement blocks would read as phantom
  // regret. Best-of per configuration across rounds.
  std::vector<ForcedRun> Runs(Ks.size());
  for (unsigned R = 0; R != Rounds; ++R) {
    forcedRun(Plan, Fast, Opt, Cat, Svc, PastEnd, Q.AllFast);
    forcedRun(Plan, Fast, Opt, Cat, Svc, 0, Q.AllOpt);
    for (size_t I = 0; I != Ks.size(); ++I)
      forcedRun(Plan, Fast, Opt, Cat, Svc, Ks[I], Runs[I]);
  }

  Q.Bound = Q.AllFast.CheapMorselSec + NoiseSec;
  for (size_t I = 0; I != Ks.size(); ++I) {
    Q.Swaps += Runs[I].Swaps;
    double Oracle = std::min(Q.AllFast.Sec, Runs[I].FastSec + Q.AllOpt.Sec);
    double Regret = Runs[I].Sec - Oracle;
    if (Regret > Q.Worst) {
      Q.Worst = Regret;
      Q.WorstK = Ks[I];
    }
  }
  return Q;
}

} // namespace

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  printHeader("E15: mid-query tier swap — adaptive regret vs oracle",
              "the dynamic counterpart of the paper's Fig. 7 static "
              "crossover choice");

  double Sf = Flags.Quick ? 5.0 : 20.0;
  unsigned Reps = Flags.Quick ? 2 : 3;
  Suite Tpch = makeTpchSuite(Sf);
  Suite Ds = makeDsSuite(Sf);

  backend::CachingBackend Fast(backend::createBackend("DirectEmit"));
  backend::CachingBackend Opt(backend::createBackend("MLVM-opt"));
  backend::CompileService Svc(2);

  // Allowance for timer/scheduler noise between the separate wall-clock
  // runs a regret subtracts; the signal (morsel bound) is machine-scaled
  // while this floor is fixed.
  const double NoiseSec = 5e-4;

  BenchJson Json("bench_osr");
  Json.field("experiment", std::string("E15"))
      .field("sf", Sf)
      .field("reps", double(Reps))
      .field("morsel_size", double(MorselSize))
      .field("fast", std::string("DirectEmit"))
      .field("opt", std::string("MLVM-opt"));

  std::printf("%-16s %10s %10s %12s %10s %10s %6s %s\n", "query",
              "allfast ms", "allopt ms", "worst K", "regret ms", "bound ms",
              "swaps", "ok");

  double WorstRegret = -1e100, WorstMargin = -1e100;
  bool AllOk = true;
  Suite *Suites[] = {&Tpch, &Ds};
  const char *SuiteNames[] = {"tpch", "tpcds"};
  for (int SI = 0; SI != 2; ++SI) {
    Suite &S = *Suites[SI];
    for (size_t QI = 0; QI != S.Plans.size(); ++QI) {
      // Warm both tiers' caches (and the plan's sliced units) untimed;
      // the warmup run's stats supply the morsel count for the K sweep.
      ForcedRun Warm;
      forcedRun(S.Plans[QI], Fast, Opt, S.Cat, Svc, 0, Warm);

      QueryRegret Q = measureQuery(S.Plans[QI], Fast, Opt, S.Cat, Svc,
                                   Warm.MaxMorsels, Reps, NoiseSec);
      // A single descheduling spike on this shared box can dwarf the
      // morsel-scale signal; an apparent violation must reproduce under
      // more repetitions before it counts.
      if (Q.Worst > Q.Bound) {
        QueryRegret Retry = measureQuery(S.Plans[QI], Fast, Opt, S.Cat, Svc,
                                         Warm.MaxMorsels, Reps + 3, NoiseSec);
        if (Retry.Worst < Q.Worst)
          Q = Retry;
      }
      bool Ok = Q.Worst <= Q.Bound;
      AllOk = AllOk && Ok;
      WorstRegret = std::max(WorstRegret, Q.Worst);
      WorstMargin = std::max(WorstMargin, Q.Worst - Q.Bound);

      std::string Name = std::string(SuiteNames[SI]) + "/" + S.Names[QI];
      std::printf("%-16s %10.3f %10.3f %12lld %10.3f %10.3f %6llu %s\n",
                  Name.c_str(), Q.AllFast.Sec * 1e3, Q.AllOpt.Sec * 1e3,
                  static_cast<long long>(Q.WorstK), Q.Worst * 1e3,
                  Q.Bound * 1e3, static_cast<unsigned long long>(Q.Swaps),
                  Ok ? "yes" : "NO");
      Json.row()
          .col("query", Name)
          .col("all_fast_sec", Q.AllFast.Sec)
          .col("all_opt_sec", Q.AllOpt.Sec)
          .col("worst_k", double(Q.WorstK))
          .col("worst_regret_sec", Q.Worst)
          .col("bound_sec", Q.Bound)
          .col("max_morsels", double(Q.NM))
          .col("swaps", double(Q.Swaps))
          .col("ok", Ok ? 1.0 : 0.0);
    }
  }

  std::printf("\nworst-case regret %.3f ms; worst margin to bound %.3f ms "
              "(negative = inside bound)\n",
              WorstRegret * 1e3, WorstMargin * 1e3);
  std::printf("%s: adaptive regret %s one cheap-tier morsel per pipeline "
              "(+%.2f ms noise allowance)\n",
              AllOk ? "PASS" : "FAIL", AllOk ? "<=" : ">", NoiseSec * 1e3);
  Json.field("worst_regret_sec", WorstRegret)
      .field("worst_margin_sec", WorstMargin)
      .field("pass", AllOk ? 1.0 : 0.0);
  if (Flags.Json && !Json.write())
    return 1;
  return AllOk ? 0 : 1;
}
