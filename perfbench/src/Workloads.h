//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (see perfbench/README.md for why each exists):
///
///   adhoc-compile   cold Backend::compile of the 23-query suite with each
///                   in-process tier, each module run once and checked;
///   analytic-large  execution of already-compiled code per tier at a scale
///                   where the native tiers separate, plus time-to-result on
///                   the AdaptiveExec (mid-query tier swap) path;
///   serve-churn     two closed-loop sessions through serve::Server, a Zipf
///                   query mix over an L1 code cache smaller than the suite,
///                   backed by the disk code cache.
///
/// Every workload reports every end-to-end metric (untraced run) or every
/// per-layer metric (traced run); see metricCatalog().
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_WORKLOADS_H
#define QCF_PERFBENCH_WORKLOADS_H

#include "Report.h"
#include <cstdint>
#include <string>
#include <vector>

namespace qcf::perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Flip one bit of the first query's reference digest after set-up, so
  /// every execution of that query must be reported as a mismatch.
  bool CorruptDigest = false;
  /// Scratch directory for the serve-churn disk code cache.
  std::string WorkDir = ".";
};

/// A metric the benchmark reports: name, unit, and whether it is an
/// end-to-end metric (untraced run) or a per-layer one (traced run).
/// BENCHMARK.json lists the same metrics in the same order; the
/// benchmark's own tests check that.
struct MetricDef {
  std::string Name;
  std::string Unit;
  bool EndToEnd;
};

/// Every metric, in output order.
const std::vector<MetricDef> &metricCatalog();

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Runs one workload; fills \p R with every metric of the run's kind.
/// Returns false for an unknown workload.
bool runWorkload(const RunConfig &Cfg, Result &R);

} // namespace qcf::perfbench

#endif // QCF_PERFBENCH_WORKLOADS_H
