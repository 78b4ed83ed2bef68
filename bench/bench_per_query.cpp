//===- bench/bench_per_query.cpp - Fig. 6 reproduction ---------------------===//
//
// Part of the QCF project. Per-query compile and execution times for every
// back-end (paper Fig. 6).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace qcf;
using namespace qcf::bench;

int main() {
  printHeader("Per-query compile/execute times by back-end", "Fig. 6");
  Suite S = makeDsSuite(1.0);

  std::vector<std::string> Names = backend::allBackendNames();
  std::printf("%-14s", "query");
  for (const std::string &N : Names)
    std::printf(" %12s", N.c_str());
  std::printf("   (compile+exec [ms])\n");

  for (size_t Q = 0; Q != S.Plans.size(); ++Q) {
    std::printf("%-14s", S.Names[Q].c_str());
    for (const std::string &N : Names) {
      auto BE = backend::createBackend(N);
      rt::OutputBuffer Out;
      db::ExecResult R = db::executeQuery(S.Plans[Q], *BE, S.Cat, &Out);
      std::printf(" %5.1f+%6.2f", R.Stats.CompileNs * 1e-6,
                  R.Stats.ExecNs * 1e-6);
    }
    std::printf("\n");
  }
  return 0;
}
