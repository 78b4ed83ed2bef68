//===- examples/adaptive_compilation.cpp - Tiered execution ----------------===//
//
// Part of the QCF project.
//
// Demonstrates adaptive execution (§III-C): TPC-H-like h1 starts right
// away on the low-latency Stencil tier while the optimizing tier compiles
// the whole module in the background, and each pipeline swaps to the
// optimized code at the first morsel boundary after it lands.
//
//   ./adaptive_compilation [optimized-backend]   # default MLVM-opt
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include <cstdio>

using namespace qcf;
using namespace qcf::db;

int main(int argc, char **argv) {
  auto Opt = backend::createBackend(argc > 1 ? argv[1] : "MLVM-opt");
  if (!Opt) {
    std::fprintf(stderr, "unknown backend %s\n", argv[1]);
    return 1;
  }
  // Large enough that the optimizing compile lands mid-query.
  Catalog Cat;
  generateTpchLike(Cat, 50.0);
  std::vector<Query> Queries = tpchQueries();
  CompiledPlan Plan = compileQuery(Queries.front(), Cat);

  // Compiles the optimized tier in the background.
  backend::CompileService Svc(2);
  ExecOptions Opts;
  Opts.AdaptiveExec = true; // Fast tier: Stencil (Opts.FastBackend).
  Opts.Service = &Svc;
  Opts.MorselSize = 1024;
  rt::OutputBuffer Out;
  ExecResult R = executeQuery(Plan, *Opt, Cat, &Out, Opts);
  if (R.Trapped)
    return 1;
  std::printf("%s: Stencil -> %s, %llu swaps, exec=%.2fms\n",
              Queries.front().Name.c_str(), Opt->name().c_str(),
              (unsigned long long)R.Stats.OsrSwaps, R.Stats.ExecNs * 1e-6);
  for (size_t PI = 0; PI != R.Stats.Pipelines.size(); ++PI) {
    const PipelineStats &P = R.Stats.Pipelines[PI];
    std::printf("  pipeline %zu: %5llu morsels fast, %5llu optimized, "
                "swap at morsel %lld\n",
                PI, (unsigned long long)P.MorselsFast,
                (unsigned long long)P.MorselsOpt, (long long)P.SwapMorsel);
  }
  return 0;
}
