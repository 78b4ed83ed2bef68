//===- backend/CompileService.h - Async compilation service -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared compilation service: a fixed pool of worker threads draining a
/// bounded FIFO job queue. The paper's conclusion is that compile time is
/// a first-order cost for query processing; beyond making each compile
/// cheaper (the back-end study) the systems answer is to take compilation
/// off the query's critical path entirely (§III-C). The service runs only
/// that off-path work: backend::compileTiered (TierUp.h) submits the
/// optimized compile of a module while a query runs on its fast tier.
/// Every compile a caller waits for runs on that caller's thread.
///
/// Submitting hands the service a backend::TierUp (TierUp.h), the job's
/// whole shared state: the worker claims it, compiles, and installs the
/// result into it; the submitter waits on it or cancels through it. A
/// refused submit leaves the handle untouched, and the service never
/// compiles on the submitting thread: a refused compile is the caller's
/// decision (the executor keeps the query on its fast tier,
/// CachingBackend compiles inline). The submitted module (and the
/// back-end) must stay alive until the handle ends and no worker runs
/// the job (TierUp::finish), or live in the owner handed to submit (the
/// cache's background compiles hold the served plan, or a copy of the
/// module).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_COMPILESERVICE_H
#define QCF_BACKEND_COMPILESERVICE_H

#include "backend/Backend.h"
#include "support/BoundedQueue.h"
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace qcf::backend {

/// Compile-latency aggregate for one back-end (keyed by Backend::name()).
/// A view over the service's latency histograms in the metrics registry.
struct CompileLatency {
  uint64_t Count = 0;
  double MinSec = 0;
  double MaxSec = 0;
  double TotalSec = 0;

  double meanSec() const { return Count ? TotalSec / Count : 0; }
};

/// Snapshot view of a service's registry-backed metrics; see
/// CompileService::stats().
struct CompileServiceStats {
  uint64_t JobsQueued = 0;    ///< Accepted submissions.
  uint64_t JobsCompleted = 0; ///< Jobs that ran to completion.
  uint64_t JobsCancelled = 0; ///< Jobs cancelled before they started.
  size_t QueueDepthHighWater = 0;
  size_t QueueCapacity = 0; ///< 0 = unbounded (never rejects).
  /// Always 0: the service has one job class, counted in
  /// RejectedBackground. Kept until the next benchmark change deletes it
  /// (perfbench reads it).
  uint64_t RejectedForeground = 0;
  uint64_t RejectedBackground = 0; ///< Submits rejected (queue full).
  uint64_t RejectedTenant = 0;     ///< Submits rejected by fairness share.
  std::map<std::string, CompileLatency> PerBackend;
};

class TierUp;

namespace detail {

/// One submitted compilation as the queue holds it: what the worker needs
/// to run it, and the handle it reports to.
struct CompileJob {
  const qir::Module *M = nullptr;
  Backend *BE = nullptr;
  CompileOptions Opts;
  uint64_t SubmitNs = 0;       ///< For queue-wait trace events.
  std::shared_ptr<void> Owner; ///< Holds M and BE until the job ends, if set.
  std::shared_ptr<TierUp> Up;  ///< The job's state; receives its result.
};

} // namespace detail

/// Fixed worker-thread pool over a bounded FIFO job queue.
///
/// All accounting lives in a MetricsRegistry under this instance's
/// metricsPrefix() ("svc.<n>."): job counters, "queue.*" depth/capacity/
/// rejection instruments, and one latency histogram per back-end. stats()
/// is a view over those instruments, so the registry is the single source
/// of truth (tools/qcf_stats sees exactly what stats() reports).
class CompileService {
public:
  /// \p NumWorkers worker threads; \p QueueCapacity bounds the number of
  /// not-yet-started jobs (0 = unbounded) — submit() on a full queue
  /// refuses, never blocks. \p Reg receives the service's
  /// metrics (null = process-wide registry).
  explicit CompileService(unsigned NumWorkers = 2, size_t QueueCapacity = 0,
                          obs::MetricsRegistry *Reg = nullptr);
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Enqueues compilation of \p M with \p BE, reporting to \p Up, a
  /// pending handle not yet submitted. Both must outlive the job unless
  /// they live in \p Owner, which the service holds until then. \p Opts
  /// (including its ObsContext) is carried to the worker-side compile.
  /// Never blocks and never compiles on the calling thread. \returns false
  /// when the job is refused — queue full, fairness share used up, or
  /// service shut down; the caller decides what a refused compile means
  /// (compile inline, stay on the fast tier).
  bool submit(const qir::Module &M, Backend &BE, const CompileOptions &Opts,
              std::shared_ptr<void> Owner, std::shared_ptr<TierUp> Up);

  /// Caps the number of in-flight (queued or running) jobs whose
  /// CompileOptions::FairnessKey equals \p Key; submissions beyond the
  /// cap are refused (and counted in RejectedTenant). Keyless
  /// submissions are never share-limited. 0 = unlimited.
  void setKeyQueueShare(const std::string &Key, uint64_t MaxInFlight);

  /// In-flight (queued or running) jobs carrying fairness key \p Key.
  uint64_t keyInFlight(const std::string &Key) const;

  /// Stops accepting work, cancels every job still queued (their handles
  /// end with no module; waiters wake), finishes jobs already running, and
  /// joins the workers. Idempotent; also run by the destructor.
  void shutdown();

  /// Blocks until every accepted job has reached a terminal state.
  void drain();

  size_t queueDepth() const { return Queue.size(); }

  /// Registry prefix of this instance's instruments, e.g. "svc.1.".
  const std::string &metricsPrefix() const { return Prefix; }

  /// Assembles a CompileServiceStats view from the registry.
  CompileServiceStats stats() const;

  /// Test hook (qcf_stress --osr): workers sleep a pseudo-random
  /// 0..MaxDelayUs microseconds before each compile, so compile-landing
  /// time sweeps across every morsel boundary of concurrently executing
  /// pipelines instead of clustering at startup. 0 disables. The
  /// sequence is deterministic per (Seed, job order).
  void injectCompileLatencyForTest(uint32_t MaxDelayUs,
                                   uint64_t Seed = 0x9e3779b97f4a7c15ull) {
    TestDelayRng.store(Seed, std::memory_order_relaxed);
    TestDelayMaxUs.store(MaxDelayUs, std::memory_order_relaxed);
  }

private:
  friend class TierUp;

  void workerLoop();
  /// Runs one dequeued job, or cancels it if \p Cancel, and installs the
  /// outcome into the handle. A job whose handle TierUp::finish() claimed
  /// was accounted for then, and is only dropped.
  void runJob(detail::CompileJob &Job, bool Cancel);
  /// Counts a queued job cancelled before it started and ends its
  /// accounting: at once when TierUp::finish() claims it, at the pop when
  /// shutdown() cancels it. Its queue slot frees only at the pop.
  void cancelled(const std::string &Key);
  /// Ends the pending/key accounting of a job under fairness key \p Key.
  void unaccount(const std::string &Key);
  /// The latency histogram of back-end \p Name's jobs, resolved on its
  /// first completed job and then once per name.
  obs::Histogram &latency(const std::string &Name);

  BoundedQueue<detail::CompileJob> Queue;
  std::vector<std::thread> Workers;
  std::atomic<bool> Stopping{false};
  std::atomic<uint32_t> TestDelayMaxUs{0};
  std::atomic<uint64_t> TestDelayRng{0};

  mutable std::mutex LifecycleMutex;
  std::condition_variable AllDoneCv; ///< Signalled when Pending hits 0.
  uint64_t Pending = 0;              ///< Accepted, not yet terminal.
  /// In-flight job count per fairness key, and the configured shares.
  std::map<std::string, uint64_t> KeyInFlightCount;
  std::map<std::string, uint64_t> KeyShares;

  obs::MetricsRegistry *Reg;
  std::string Prefix;
  obs::Counter &JobsQueued;
  obs::Counter &JobsCompleted;
  obs::Counter &JobsCancelled;
  obs::Gauge &QueueDepth;
  obs::Gauge &QueueCapacityG;
  obs::Counter &RejectedFull;
  obs::Counter &RejectedTenant;
  mutable std::mutex LatencyMutex;
  /// "latency.<name>" per back-end name; stats() reads them here rather
  /// than by snapshotting the registry.
  std::map<std::string, obs::Histogram *> Latency;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_COMPILESERVICE_H
