//===- support/Cancel.h - Cooperative cancellation token --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cooperative cancellation + deadline token, shared by the executor
/// (morsel-boundary checks), waits on another thread's compile
/// (backend::TierUp::wait), and the serving layer (session close / idle
/// eviction / query deadlines). No compile job carries one.
/// One token is owned per session; producers call cancel() or arm a
/// deadline, consumers poll stopped() at natural preemption points. Both
/// signals are monotonic for the lifetime of one query: cancel never
/// un-fires and the deadline only moves by reset() between queries, so a
/// consumer that observed stopped() can rely on every later observer
/// agreeing with it.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_CANCEL_H
#define QCF_SUPPORT_CANCEL_H

#include "support/TimeTrace.h"
#include <atomic>
#include <cstdint>

namespace qcf {

class CancelToken {
public:
  CancelToken() = default;
  CancelToken(const CancelToken &) = delete;
  CancelToken &operator=(const CancelToken &) = delete;

  /// Requests cancellation. Consumers observe it at the next check point
  /// (morsel pickup, pipeline boundary, or within a compile wait's
  /// TierUp::CancelTick); it notifies nobody.
  void cancel() { Cancelled.store(true, std::memory_order_release); }

  /// Arms an absolute deadline (nowNs() clock); 0 disarms.
  void setDeadlineNs(uint64_t AbsNs) {
    DeadlineNs.store(AbsNs, std::memory_order_release);
  }

  uint64_t deadlineNs() const {
    return DeadlineNs.load(std::memory_order_acquire);
  }

  bool cancelled() const { return Cancelled.load(std::memory_order_acquire); }

  /// True once the token fired: explicit cancel, or the deadline passed.
  bool stopped(uint64_t NowNs) const {
    if (Cancelled.load(std::memory_order_acquire))
      return true;
    uint64_t D = DeadlineNs.load(std::memory_order_acquire);
    return D != 0 && NowNs >= D;
  }
  /// As stopped(nowNs()), but reads the clock only when a deadline is
  /// armed: consumers poll this at every morsel.
  bool stopped() const {
    uint64_t D = deadlineNs();
    return cancelled() || (D != 0 && nowNs() >= D);
  }

  /// Re-arms the token for a new query (serving layer: one token per
  /// session, reset between executions). Not safe to call while a query
  /// is still consuming the token.
  void reset() {
    Cancelled.store(false, std::memory_order_release);
    DeadlineNs.store(0, std::memory_order_release);
  }

private:
  std::atomic<bool> Cancelled{false};
  std::atomic<uint64_t> DeadlineNs{0};
};

} // namespace qcf

#endif // QCF_SUPPORT_CANCEL_H
