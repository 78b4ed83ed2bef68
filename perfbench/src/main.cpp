//===- perfbench/src/main.cpp - The QCF benchmark command line ------------===//
//
// Part of the QCF project.
//
//   qcf_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                 [--work-dir DIR]
//
// Prints the effective configuration and a table of every metric, then, as
// the last line, one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer metrics from a traced run (spans also land in
// <work-dir>/trace-<workload>.json). Exits 1 when any execution failed or
// produced output that differs from the interpreter's.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace qcf::perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qcf_perfbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR]\nworkloads:");
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    if (!V)
      return usage();
    if (A == "--workload")
      Cfg.Workload = V;
    else if (A == "--seed")
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Cfg.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      Cfg.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--work-dir")
      Cfg.WorkDir = V;
    else
      return usage();
    ++I;
  }
  if (Cfg.Seconds <= 0)
    return usage();
  std::filesystem::create_directories(Cfg.WorkDir);

  Result R;
  if (!runWorkload(Cfg, R))
    return usage();

  if (Cfg.Trace) {
    std::string Path = Cfg.WorkDir + "/trace-" + Cfg.Workload + ".json";
    if (!SpanRecorder::global().writeChromeTrace(Path, 200000))
      std::fprintf(stderr, "cannot write %s\n", Path.c_str());
  }
  std::printf("%s", R.table().c_str());
  std::printf("%s\n", R.jsonLine().c_str());
  std::fflush(stdout);
  return R.Correct ? 0 : 1;
}
