//===- obs/Obs.h - Unified observability context ----------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point of the observability layer. An ObsContext names
/// the three consumers a caller may want fed:
///
///   - TimeTrace:       per-label aggregate timings (the paper's §V-B tool),
///   - MetricsRegistry: process-wide counters / gauges / histograms,
///   - TraceSink:       Perfetto-loadable timeline events.
///
/// It is carried by backend::CompileOptions and db::ExecOptions, so adding
/// a consumer never changes another interface again. All three pointers
/// are optional; a default ObsContext means "cheap structural metrics
/// only" — subsystems still count cache hits, queue depths, and query
/// totals in MetricsRegistry::global(), but no per-phase timers run, which
/// is how the measurement overhead stays inside the paper's 2% envelope
/// until someone asks for a breakdown.
///
/// CompileObs is the helper every back-end's compile() opens: it decides
/// which TimeTrace the passes should record into (the caller's, or a
/// persistent per-thread scratch trace when a registry wants per-phase
/// deltas), binds the trace sink to the thread, and on close publishes
/// the per-phase and total-latency metrics plus a spanning timeline
/// slice.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_OBS_OBS_H
#define QCF_OBS_OBS_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/TimeTrace.h"

namespace qcf::obs {

/// Where observability output should go; see file comment. Copyable and
/// cheap — three optional pointers, all borrowed (the caller keeps them
/// alive for the duration of the instrumented operation).
struct ObsContext {
  TimeTrace *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;
  TraceSink *Sink = nullptr;

  ObsContext() = default;
  ObsContext(TimeTrace *Trace, MetricsRegistry *Metrics = nullptr,
             TraceSink *Sink = nullptr)
      : Trace(Trace), Metrics(Metrics), Sink(Sink) {}

  /// The registry structural metrics should land in: the explicit one,
  /// falling back to the process-wide default.
  MetricsRegistry &registry() const {
    return Metrics ? *Metrics : MetricsRegistry::global();
  }
};

/// RAII instrumentation session for one back-end compile; see file
/// comment. Usage inside Backend::compile implementations:
///
///   CompileObs Obs(Opts.Obs, name());
///   ... pass Obs.trace() to the phase pipeline ...
///
class CompileObs {
public:
  CompileObs(const ObsContext &Ctx, std::string BackendName);
  ~CompileObs();

  CompileObs(const CompileObs &) = delete;
  CompileObs &operator=(const CompileObs &) = delete;

  /// The TimeTrace phases should record into; null when no detail
  /// consumer asked for per-phase data (tracing cost fully off).
  TimeTrace *trace() { return T; }

private:
  ObsContext Ctx;
  std::string Name;
  /// Cached per-(thread, registry, backend) instrument handles plus the
  /// persistent scratch trace phases record into when metrics are on
  /// (obs::BackendMetrics, internal to Obs.cpp). Resolved once in the
  /// constructor so the destructor's fold is allocation-free.
  void *Cached;
  TimeTrace *T;
  ScopeSinkBinding Binding;
  uint64_t StartNs;
};

} // namespace qcf::obs

#endif // QCF_OBS_OBS_H
