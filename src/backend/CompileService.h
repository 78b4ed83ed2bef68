//===- backend/CompileService.h - Async compilation service -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A shared compilation service: a fixed pool of worker threads draining a
/// bounded two-priority job queue. The paper's conclusion is that compile
/// time is a first-order cost for query processing; beyond making each
/// compile cheaper (the back-end study) the systems answer is to take
/// compilation off the query's critical path entirely. The service is the
/// substrate for that: `CachingBackend` routes blocking misses through it,
/// and backend::compileTiered (TierUp.h) submits the optimized compile of
/// a module at Background priority while a query runs on its fast tier.
///
/// Submitting yields a `CompileTicket` — a small future-like handle that
/// can be polled, waited on, or cancelled before the job starts — or an
/// invalid ticket if the service refuses the job. The service never
/// compiles on the submitting thread: a refused compile is the caller's
/// decision (CachingBackend compiles inline, the executor keeps that
/// pipeline on its fast tier). The submitted module (and the back-end)
/// must stay alive until the ticket completes or is successfully
/// cancelled, or live in the owner handed to submit (the cache's
/// background compiles own a copy of the module).
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

/// Foreground jobs (a caller is, or will soon be, blocked on the result)
/// always dequeue before Background jobs (speculative work: tier
/// promotion, cache warming).
enum class CompilePriority : uint8_t { Foreground, Background };

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
  uint64_t RejectedForeground = 0; ///< Foreground submits rejected (full).
  uint64_t RejectedBackground = 0; ///< Background submits rejected (full).
  uint64_t RejectedTenant = 0;     ///< Submits rejected by fairness share.
  uint64_t Shed = 0; ///< Background jobs shed to admit Foreground ones.
  std::map<std::string, CompileLatency> PerBackend;
};

namespace detail {

/// Shared state of one submitted compilation. State transitions:
/// Queued -> Running -> Done (worker), or Queued -> Cancelled (cancel()
/// or service shutdown). Done/Cancelled are terminal.
struct CompileJob {
  enum class State : uint8_t { Queued, Running, Done, Cancelled };

  const qir::Module *M = nullptr;
  Backend *BE = nullptr;
  CompileOptions Opts;
  uint64_t SubmitNs = 0; ///< For queue-wait trace events.
  std::string Key;       ///< Fairness key (CompileOptions::FairnessKey).
  std::shared_ptr<void> Owner; ///< Holds M and BE until terminal, if set.

  std::mutex Mutex;
  std::condition_variable Cv;
  State St = State::Queued;
  std::shared_ptr<CompiledModule> Result;
};

} // namespace detail

/// Future-like handle to a submitted compilation. Copyable (all copies
/// observe the same job); default-constructed tickets are invalid.
class CompileTicket {
public:
  CompileTicket() = default;

  bool valid() const { return Job != nullptr; }

  /// True once the job reached a terminal state (Done or Cancelled).
  bool done() const;

  /// The result if the job completed; null if it is still pending or was
  /// cancelled. Never blocks.
  std::shared_ptr<CompiledModule> poll() const;

  /// Blocks until the job reaches a terminal state. With \p Cancel the
  /// wait checks the token every millisecond; once it fires, a
  /// still-queued job is cancelled (cancel-before-run, so an abandoned
  /// compile holds no service slot), and a job already running is waited
  /// out, because its worker still reads the submitted module. The
  /// ticket is terminal on return. \returns the compiled module, or null
  /// if the job was cancelled.
  std::shared_ptr<CompiledModule>
  wait(const qcf::CancelToken *Cancel = nullptr);

  /// Cancels the job if it has not started running. \returns true on
  /// success; false if it already ran (or is running), in which case the
  /// result remains obtainable.
  bool cancel();

  /// Waits up to \p Ns nanoseconds for a terminal state, cancelling
  /// nothing. \returns true once the job is terminal.
  bool waitFor(uint64_t Ns) const;

private:
  friend class CompileService;
  explicit CompileTicket(std::shared_ptr<detail::CompileJob> Job)
      : Job(std::move(Job)) {}

  std::shared_ptr<detail::CompileJob> Job;
};

/// Fixed worker-thread pool over a bounded two-priority job queue.
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
  /// sheds or rejects, never blocks. \p Reg receives the service's
  /// metrics (null = process-wide registry).
  explicit CompileService(unsigned NumWorkers = 2, size_t QueueCapacity = 0,
                          obs::MetricsRegistry *Reg = nullptr);
  ~CompileService();

  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;

  /// Enqueues compilation of \p M with \p BE. Both must outlive the job
  /// unless they live in \p Owner, which the service holds until then.
  /// \p Opts (including its ObsContext) is carried to the worker-side
  /// compile. Never blocks and never compiles on the calling thread: on a
  /// full queue a Foreground submit first sheds the newest Background job
  /// (its ticket reports cancelled). \returns an invalid ticket when the
  /// job is refused — queue full with nothing to shed, fairness share
  /// used up, or service shut down; the caller decides what a refused
  /// compile means (compile inline, stay on the fast tier).
  CompileTicket submit(const qir::Module &M, Backend &BE,
                       CompilePriority Priority = CompilePriority::Foreground,
                       const CompileOptions &Opts = CompileOptions(),
                       std::shared_ptr<void> Owner = nullptr);

  /// Caps the number of in-flight (queued or running) jobs whose
  /// CompileOptions::FairnessKey equals \p Key; submissions beyond the
  /// cap are refused (and counted in RejectedTenant). Keyless
  /// submissions are never share-limited. 0 = unlimited.
  void setKeyQueueShare(const std::string &Key, uint64_t MaxInFlight);

  /// In-flight (queued or running) jobs carrying fairness key \p Key.
  uint64_t keyInFlight(const std::string &Key) const;

  /// Stops accepting work, cancels every job still queued (their tickets
  /// report cancelled; waiters wake), finishes jobs already running, and
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
  void workerLoop();
  void finishJob(const std::shared_ptr<detail::CompileJob> &Job, bool Cancel);
  /// Rolls back the pending/key accounting of a job that never made it
  /// into the queue.
  void unaccount(const detail::CompileJob &Job);

  BoundedQueue<std::shared_ptr<detail::CompileJob>> Queue;
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
  obs::Counter &RejectedFg;
  obs::Counter &RejectedBg;
  obs::Counter &RejectedTenant;
  obs::Counter &ShedC;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_COMPILESERVICE_H
