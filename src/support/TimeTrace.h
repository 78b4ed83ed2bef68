//===- support/TimeTrace.h - Hierarchical compile-time tracing --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight reimplementation of LLVM's time-trace infrastructure
/// (paper §V-B: "we used LLVM's time tracing infrastructure to measure the
/// execution time of the individual passes"). Scoped timers accumulate total
/// and self (exclusive) time per label; the collector can report the number
/// of measurement events so benches can quantify measurement overhead, which
/// the paper reports explicitly (up to 2% for LLVM, an "Overhead" slice for
/// Cranelift).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_TIMETRACE_H
#define QCF_SUPPORT_TIMETRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qcf {

/// Monotonic nanosecond clock.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Simple wall-clock stopwatch.
class Stopwatch {
public:
  Stopwatch() : Start(nowNs()) {}
  void restart() { Start = nowNs(); }
  uint64_t elapsedNs() const { return nowNs() - Start; }
  double elapsedSec() const {
    return static_cast<double>(elapsedNs()) * 1e-9;
  }

private:
  uint64_t Start;
};

/// Accumulated timing for one label.
struct TimeRecord {
  uint64_t TotalNs = 0; ///< Inclusive wall time.
  uint64_t SelfNs = 0;  ///< Exclusive wall time (children subtracted).
  uint64_t Count = 0;   ///< Number of scopes recorded.
};

/// Collects per-label timings from TimeTraceScope instances.
///
/// Collection is explicit: passes receive a TimeTrace pointer (possibly
/// null, meaning tracing disabled) so that the *cost of measuring* is only
/// paid when a bench asks for a breakdown — exactly the trade-off the paper
/// quantifies.
class TimeTrace {
public:
  void record(const std::string &Label, uint64_t TotalNs, uint64_t SelfNs) {
    TimeRecord &R = Records[Label];
    R.TotalNs += TotalNs;
    R.SelfNs += SelfNs;
    ++R.Count;
    ++NumEvents;
  }

  const std::map<std::string, TimeRecord> &records() const { return Records; }

  /// Total number of measurement events (paper: 1.27M/467k events caused
  /// up to 2% overhead).
  uint64_t numEvents() const { return NumEvents; }

  /// Sum of self time over labels with the given prefix ("" = all).
  uint64_t selfNsWithPrefix(const std::string &Prefix) const;

  /// Total time of one label (0 if absent).
  uint64_t totalNs(const std::string &Label) const {
    auto It = Records.find(Label);
    return It == Records.end() ? 0 : It->second.TotalNs;
  }

  /// Number of scopes recorded under one label (0 if absent).
  uint64_t count(const std::string &Label) const {
    auto It = Records.find(Label);
    return It == Records.end() ? 0 : It->second.Count;
  }

  void clear() {
    Records.clear();
    NumEvents = 0;
  }

  /// Adds a pre-aggregated record (e.g. the delta between two snapshots
  /// of another trace). Counts as \p R.Count measurement events, matching
  /// what record() would have accumulated.
  void add(const std::string &Label, const TimeRecord &R) {
    TimeRecord &D = Records[Label];
    D.TotalNs += R.TotalNs;
    D.SelfNs += R.SelfNs;
    D.Count += R.Count;
    NumEvents += R.Count;
  }

  /// Merges another trace into this one.
  void merge(const TimeTrace &Other);

  /// Renders a human-readable table sorted by self time.
  std::string reportTable() const;

  /// Renders "label,count,total_ns,self_ns" CSV rows.
  std::string reportCsv() const;

private:
  std::map<std::string, TimeRecord> Records;
  uint64_t NumEvents = 0;
};

/// Receiver for raw scope begin/end events, in addition to (or instead of)
/// the per-label aggregation a TimeTrace performs. The observability layer
/// (obs::TraceSink) implements this to turn every TimeTraceScope into a
/// Chrome trace-event, without each pass knowing about trace export.
class ScopeSink {
public:
  virtual ~ScopeSink() = default;

  /// Called from the scope's destructor on the thread that ran the scope.
  virtual void scopeClosed(const std::string &Label, uint64_t StartNs,
                           uint64_t DurNs) = 0;
};

/// RAII binding that routes this thread's TimeTraceScope events to \p S
/// until destruction (restores the previous binding; bindings nest).
/// Binding null is a no-op, so callers can pass an optional sink through.
class ScopeSinkBinding {
public:
  explicit ScopeSinkBinding(ScopeSink *S);
  ~ScopeSinkBinding();

  ScopeSinkBinding(const ScopeSinkBinding &) = delete;
  ScopeSinkBinding &operator=(const ScopeSinkBinding &) = delete;

  /// The sink bound on the calling thread, if any.
  static ScopeSink *current();

private:
  ScopeSink *Prev;
};

/// RAII scope that accumulates into a TimeTrace. Supports nesting: a
/// parent's self time excludes enclosed child scopes on the same thread.
/// When a ScopeSink is bound on this thread, the scope additionally
/// reports its raw interval there — even when \p Trace is null.
class TimeTraceScope {
public:
  TimeTraceScope(TimeTrace *Trace, std::string Label)
      : Trace(Trace), Sink(ScopeSinkBinding::current()), Label(std::move(Label)) {
    if (!Trace && !Sink)
      return;
    Start = nowNs();
    if (Trace) {
      ChildNs = 0;
      Parent = CurrentScope;
      CurrentScope = this;
    }
  }

  TimeTraceScope(const TimeTraceScope &) = delete;
  TimeTraceScope &operator=(const TimeTraceScope &) = delete;

  ~TimeTraceScope() {
    if (!Trace && !Sink)
      return;
    uint64_t Total = nowNs() - Start;
    if (Trace) {
      uint64_t Self = Total > ChildNs ? Total - ChildNs : 0;
      Trace->record(Label, Total, Self);
      CurrentScope = Parent;
      if (Parent)
        Parent->ChildNs += Total;
    }
    if (Sink)
      Sink->scopeClosed(Label, Start, Total);
  }

private:
  TimeTrace *Trace;
  ScopeSink *Sink;
  std::string Label;
  uint64_t Start = 0;
  uint64_t ChildNs = 0;
  TimeTraceScope *Parent = nullptr;

  static thread_local TimeTraceScope *CurrentScope;
};

} // namespace qcf

#endif // QCF_SUPPORT_TIMETRACE_H
