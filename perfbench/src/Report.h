//===- perfbench/src/Report.h - Samples, spans and the result line -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement plumbing of the benchmark, kept free of QCF types so the
/// benchmark's own tests can link it alone:
///
///  * exact nearest-rank percentiles over raw samples (never histogram
///    bucket edges);
///  * a span recorder: one span per public call the benchmark makes into a
///    QCF layer, with name, start, end, parent span and query id, kept in
///    memory and written out as a Chrome trace when the run ends; a span's
///    self time is its duration minus the part of it covered by children;
///  * the metric set of one run and the JSON result line.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_PERFBENCH_REPORT_H
#define QCF_PERFBENCH_REPORT_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace qcf::perfbench {

/// Nearest-rank percentile of \p Samples (P in (0,1]): the smallest sample
/// such that at least P of all samples are <= it. 0 when empty.
double nearestRank(std::vector<double> Samples, double P);

/// Samples strictly above the nearest-rank P percentile of \p N samples.
uint64_t samplesAbove(uint64_t N, double P);

/// Metric names are [A-Za-z0-9_.-]+, start with a letter or digit, and
/// are at most 64 characters long.
bool validMetricName(const std::string &Name);

/// One recorded call. Times are steady-clock nanoseconds.
struct Span {
  const char *Name = "";
  uint64_t StartNs = 0, EndNs = 0;
  uint32_t Id = 0, Parent = 0; ///< Parent 0 = root.
  uint32_t Thread = 0;
  uint64_t QueryId = 0;
};

/// Per-name aggregate of span durations and self times.
struct SpanStats {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t SelfNs = 0;
  std::vector<double> DurNs; ///< Raw durations, for percentiles.
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Aggregated per span name.
std::map<std::string, SpanStats> spanStats(const std::vector<Span> &Spans);

/// Thread-safe in-memory span store. Recording is switched on and off as
/// a whole; while off, opening a span costs one relaxed load.
class SpanRecorder {
public:
  static SpanRecorder &global();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  void add(const Span &S);
  uint32_t nextId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

  std::vector<Span> spans() const;

  /// Writes at most \p MaxEvents spans as Chrome trace events.
  bool writeChromeTrace(const std::string &Path, size_t MaxEvents) const;

private:
  std::atomic<bool> Enabled{false};
  std::atomic<uint32_t> NextId{1};
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

/// RAII span around one call. Nests through a thread-local parent link;
/// work handed to another thread names its parent explicitly.
class SpanScope {
public:
  SpanScope(const char *Name, uint64_t QueryId = 0, uint32_t Parent = 0);
  ~SpanScope();

  /// 0 while recording is off.
  uint32_t id() const { return S.Id; }

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Span S;
  bool Active;
  uint32_t PrevParent = 0;
};

/// The metrics of one run, in insertion order, and the run's verdict.
class Result {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;

  /// Human-readable table, one metric per line.
  std::string table() const;
  /// The one-line JSON object the benchmark prints last.
  std::string jsonLine() const;

  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  const std::vector<Entry> &entries() const { return Entries; }

private:
  std::vector<Entry> Entries;
};

} // namespace qcf::perfbench

#endif // QCF_PERFBENCH_REPORT_H
