//===- serve/Admission.h - Bounded admission control ------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control for the serving layer: a fixed number of execution
/// slots fronted by a bounded two-priority wait queue. The stage chain is
/// parse -> compile -> execute; this gate bounds the *entry* to that
/// chain, the CompileService's bounded queue bounds the compile stage,
/// and both reject with a typed outcome plus a retry-after hint instead
/// of blocking unboundedly — backpressure propagates to the client, which
/// is the only place load can actually be shed without losing work.
///
/// Overload policy: when the wait queue is full, a high-priority arrival
/// sheds the *newest low-priority waiter* (load-shed lowest-priority
/// first, LIFO within that class so the longest-waiting speculation keeps
/// its place); when nothing is sheddable the arrival itself is rejected.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_ADMISSION_H
#define QCF_SERVE_ADMISSION_H

#include "obs/Metrics.h"
#include "support/Cancel.h"
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

namespace qcf::serve {

/// Disposition of a serving-layer request. Every rejection is typed so
/// clients (and the soak harness) can tell quota pressure from overload
/// from lifecycle races.
enum class Admit : uint8_t {
  Ok,
  QueueFull,         ///< Admission wait queue full, nothing sheddable.
  Shed,              ///< Was waiting; evicted for a higher-priority entry.
  SessionQuota,      ///< Tenant's MaxSessions reached.
  CompileBytesQuota, ///< Tenant's MaxCompileBytes reached.
  CompileQueueQuota, ///< Tenant's MaxQueuedCompiles reached.
  UnknownTenant,
  UnknownSession, ///< No such session id (or it was closed/evicted).
  SessionBusy,    ///< Session already has a query in flight.
  ServerStopped,
  Cancelled, ///< The session's token fired while waiting for admission.
};

/// Stable name for logs, the wire protocol, and test assertions.
const char *admitName(Admit A);

/// Counting gate over query execution; see file comment.
///
/// Thread-safe. Metrics land under \p Prefix in \p Reg:
///   admitted, rejected.full, rejected.shed, cancelled (counters);
///   running, waiting (gauges); wait_ns (histogram of admission latency).
class AdmissionGate {
public:
  struct Config {
    unsigned Slots = 4;       ///< Concurrently admitted requests.
    unsigned MaxWaiters = 64; ///< Bounded wait queue (0 = reject when full).
    /// Assumed slot-hold time for retry-after hints before any query has
    /// completed (the EWMA has no samples yet). Cold-start rejections are
    /// exactly the compile-dominated ones, so this defaults to a
    /// cold-compile-sized 10ms rather than the 1ms spin floor — a
    /// too-small hint turns a restart stampede into a retry storm.
    uint64_t ColdHoldNs = 10'000'000;
  };

  struct Decision {
    Admit Outcome = Admit::Ok;
    /// Backpressure hint on rejection: EWMA slot-hold time scaled by the
    /// queue the retry would face.
    uint64_t RetryAfterNs = 0;
  };

  explicit AdmissionGate(const Config &Cfg, obs::MetricsRegistry *Reg = nullptr,
                         const std::string &Prefix = "serve.admission.");

  AdmissionGate(const AdmissionGate &) = delete;
  AdmissionGate &operator=(const AdmissionGate &) = delete;

  /// Acquires a slot, waiting in the bounded queue if none is free.
  /// \p LowPriority requests queue behind normal ones and are shed
  /// first. \p Ct, when set, is polled during the wait: a fired token
  /// abandons the wait with Admit::Cancelled. Never blocks when the
  /// queue is full — rejects with QueueFull.
  Decision enter(bool LowPriority = false, const qcf::CancelToken *Ct = nullptr);

  /// Releases a slot and promotes the next waiter (high priority first,
  /// FIFO within a class). \p HoldNs, when nonzero, feeds the EWMA
  /// behind retry-after hints.
  void leave(uint64_t HoldNs = 0);

  /// Rejects all current and future entries with ServerStopped.
  void close();

  unsigned running() const;
  size_t waiting() const;

private:
  struct Waiter {
    bool Low;
    /// Pending until a promoter/shedder/close writes a terminal outcome.
    bool Decided = false;
    Admit Outcome = Admit::Ok;
  };

  uint64_t retryHintNs() const; ///< Callers hold Mutex.

  const Config Cfg;
  mutable std::mutex Mutex;
  std::condition_variable Cv;
  bool Closed = false;
  unsigned Running = 0;
  /// FIFO per class; shedding pops Low.back() (newest low-priority).
  std::deque<std::shared_ptr<Waiter>> High, Low;
  uint64_t EwmaHoldNs = 0; ///< Guarded by Mutex.

  obs::Counter &Admitted;
  obs::Counter &RejectedFull;
  obs::Counter &RejectedShed;
  obs::Counter &CancelledC;
  obs::Gauge &RunningG;
  obs::Gauge &WaitingG;
  obs::Histogram &WaitNs;
};

} // namespace qcf::serve

#endif // QCF_SERVE_ADMISSION_H
