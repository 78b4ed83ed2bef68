//===- bench/BenchUtil.h - Shared benchmark harness helpers -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/figure benchmark binaries: suite
/// construction (catalog + compiled plans) and compile/execute timing.
/// Absolute numbers will differ from the paper (1-core VM vs. 32-core
/// Xeon; synthetic data at reduced scale); the benches print the same
/// *structure* — per-phase breakdowns and cross-back-end ratios.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BENCH_BENCHUTIL_H
#define QCF_BENCH_BENCHUTIL_H

#include "backend/Registry.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace qcf::bench {

struct Suite {
  db::Catalog Cat;
  std::vector<db::CompiledPlan> Plans;
  std::vector<std::string> Names;
  size_t TotalFunctions = 0;
};

inline Suite makeDsSuite(double Sf = 1.0) {
  Suite S;
  db::generateTpcdsLike(S.Cat, Sf);
  for (db::Query &Q : db::tpcdsQueries()) {
    S.Names.push_back(Q.Name);
    S.Plans.push_back(db::compileQuery(Q, S.Cat));
    S.TotalFunctions += S.Plans.back().Module->functions().size();
  }
  return S;
}

inline Suite makeTpchSuite(double Sf = 1.0) {
  Suite S;
  db::generateTpchLike(S.Cat, Sf);
  for (db::Query &Q : db::tpchQueries()) {
    S.Names.push_back(Q.Name);
    S.Plans.push_back(db::compileQuery(Q, S.Cat));
    S.TotalFunctions += S.Plans.back().Module->functions().size();
  }
  return S;
}

/// Total compile time of the whole suite with \p BE (seconds; best of
/// \p Reps repetitions to suppress noise), with optional observability
/// consumers (traces, metrics, timeline) attached via \p Opts.
inline double
suiteCompileSec(Suite &S, backend::Backend &BE, unsigned Reps = 3,
                const backend::CompileOptions &Opts = backend::CompileOptions()) {
  double Best = 1e100;
  for (unsigned R = 0; R != Reps; ++R) {
    Stopwatch W;
    for (db::CompiledPlan &P : S.Plans) {
      auto Compiled = BE.compile(*P.Module, Opts);
      (void)Compiled;
    }
    Best = std::min(Best, W.elapsedSec());
  }
  return Best;
}

/// Relative wall-time overhead of running the suite compile under
/// \p Obs versus under \p Baseline: (obs - baseline) / baseline,
/// best-of-\p Reps on both sides (negative values clamp to 0). Pick the
/// baseline to isolate the cost under test: default CompileOptions to
/// price a whole observability stack, or CompileOptions(&Trace) to price
/// just the metrics registry on top of the pre-existing per-phase
/// tracing. The acceptance budget for the obs layer is <= 2%.
inline double suiteObsOverhead(Suite &S, backend::Backend &BE,
                               const backend::CompileOptions &Obs,
                               unsigned Reps = 5,
                               const backend::CompileOptions &Baseline =
                                   backend::CompileOptions()) {
  // Interleave the two sides rep-by-rep so frequency ramps, page-cache
  // warmup, and background load hit both equally; a block of baseline
  // reps followed by a block of obs reps turns any drift between the
  // blocks into phantom overhead.
  double Plain = 1e100, WithObs = 1e100;
  for (unsigned R = 0; R != Reps; ++R) {
    Plain = std::min(Plain, suiteCompileSec(S, BE, 1, Baseline));
    WithObs = std::min(WithObs, suiteCompileSec(S, BE, 1, Obs));
  }
  if (Plain <= 0)
    return 0;
  return std::max(0.0, (WithObs - Plain) / Plain);
}

/// Executes the whole suite once; returns (compileSec, execSec).
inline std::pair<double, double> suiteRunSec(Suite &S,
                                             backend::Backend &BE) {
  double Compile = 0, Exec = 0;
  for (db::CompiledPlan &P : S.Plans) {
    rt::OutputBuffer Out;
    db::ExecResult R = db::executeQuery(P, BE, S.Cat, &Out);
    if (R.Trapped)
      reportFatalError("benchmark query trapped");
    Compile += 1e-9 * R.Stats.CompileNs;
    Exec += 1e-9 * R.Stats.ExecNs;
  }
  return {Compile, Exec};
}

inline void printHeader(const char *Title, const char *PaperRef) {
  std::printf("\n=== %s ===\n", Title);
  std::printf("(reproduces %s; shapes/ratios comparable, absolute times "
              "machine-dependent)\n\n", PaperRef);
}

/// The index \p Own for a bench's BENCH_<n>.json record, unless the
/// QCF_BENCH_ORDINAL environment variable overrides it with a positive
/// integer. Each bench owns its index, so one bench's run never
/// overwrites another's record.
inline unsigned benchOrdinal(unsigned Own) {
  if (const char *Env = std::getenv("QCF_BENCH_ORDINAL")) {
    char *End = nullptr;
    unsigned long V = std::strtoul(Env, &End, 10);
    if (End != Env && *End == '\0' && V > 0 && V < 100000)
      return static_cast<unsigned>(V);
    std::fprintf(stderr,
                 "ignoring malformed QCF_BENCH_ORDINAL=%s (want a positive "
                 "integer); using %u\n",
                 Env, Own);
  }
  return Own;
}

/// Common bench command-line flags: `--json` opts into writing the
/// machine-readable BENCH_<n>.json trajectory record next to the printed
/// table (n from benchOrdinal()), `--quick` trims reps/queries for CI
/// smoke runs.
struct BenchFlags {
  bool Json = false;
  bool Quick = false;
};

inline BenchFlags parseBenchFlags(int Argc, char **Argv) {
  BenchFlags F;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--json"))
      F.Json = true;
    else if (!std::strcmp(Argv[I], "--quick"))
      F.Quick = true;
  }
  return F;
}

/// Machine-readable trajectory record `BENCH_<n>.json`, so re-anchors and
/// regressions are judged from recorded data instead of anecdotes. A bench
/// builds one of these with its own index \p Ordinal (see benchOrdinal()),
/// mirroring its printed table — top-level scalars via field(), one row()
/// per table line with col()s — and write()s it into the current
/// directory.
class BenchJson {
public:
  BenchJson(const std::string &Bench, unsigned Ordinal)
      : Bench(Bench), Ordinal(Ordinal) {}

  BenchJson &field(const char *K, double V) {
    Top.push_back(keyed(K, num(V)));
    return *this;
  }
  BenchJson &field(const char *K, const std::string &V) {
    Top.push_back(keyed(K, str(V)));
    return *this;
  }
  BenchJson &row() {
    Rows.emplace_back();
    return *this;
  }
  BenchJson &col(const char *K, double V) {
    Rows.back().push_back(keyed(K, num(V)));
    return *this;
  }
  BenchJson &col(const char *K, const std::string &V) {
    Rows.back().push_back(keyed(K, str(V)));
    return *this;
  }

  /// Writes BENCH_<n>.json in the working directory, n =
  /// benchOrdinal(Ordinal). \returns false (after printing to stderr) if
  /// the file cannot be written.
  bool write() const {
    std::string Body = "{\n  \"bench\": " + str(Bench);
    for (const std::string &T : Top)
      Body += ",\n  " + T;
    Body += ",\n  \"rows\": [";
    for (size_t I = 0; I != Rows.size(); ++I) {
      Body += I ? ",\n    {" : "\n    {";
      for (size_t J = 0; J != Rows[I].size(); ++J)
        Body += (J ? std::string(", ") : std::string()) + Rows[I][J];
      Body += "}";
    }
    Body += Rows.empty() ? "]\n}\n" : "\n  ]\n}\n";

    std::string Path = "BENCH_" + std::to_string(benchOrdinal(Ordinal)) +
                       ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
      return false;
    }
    std::fwrite(Body.data(), 1, Body.size(), F);
    std::fclose(F);
    std::printf("wrote %s\n", Path.c_str());
    return true;
  }

private:
  static std::string num(double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return Buf;
  }
  static std::string str(const std::string &V) {
    std::string Out = "\"";
    for (char C : V) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    return Out + "\"";
  }
  static std::string keyed(const char *K, const std::string &V) {
    return "\"" + std::string(K) + "\": " + V;
  }

  std::string Bench;
  unsigned Ordinal;
  std::vector<std::string> Top;
  std::vector<std::vector<std::string>> Rows;
};

} // namespace qcf::bench

#endif // QCF_BENCH_BENCHUTIL_H
