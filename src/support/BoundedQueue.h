//===- support/BoundedQueue.h - Bounded two-priority work queue -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, closable, two-priority MPMC queue. Producers never block: a
/// push onto a full or closed queue fails and the producer decides what
/// that means (shed, refuse, work inline); consumers block while it is
/// empty. High-priority items are always dequeued before low-priority
/// ones, FIFO within each class. Closing wakes every consumer: pushes
/// fail, pops drain the remaining items and then fail. Built for
/// backend::CompileService, but generic.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_BOUNDEDQUEUE_H
#define QCF_SUPPORT_BOUNDEDQUEUE_H

#include <condition_variable>
#include <deque>
#include <mutex>

namespace qcf {

template <typename T> class BoundedQueue {
public:
  /// \p Capacity bounds the number of queued items (0 = unbounded).
  explicit BoundedQueue(size_t Capacity = 0) : Capacity(Capacity) {}

  BoundedQueue(const BoundedQueue &) = delete;
  BoundedQueue &operator=(const BoundedQueue &) = delete;

  /// Dequeues into \p Out, blocking while the queue is empty. \returns
  /// false once the queue is closed *and* drained.
  bool pop(T &Out) {
    std::unique_lock<std::mutex> Lock(Mutex);
    NotEmpty.wait(Lock, [&] { return Closed || !High.empty() || !Low.empty(); });
    std::deque<T> &Q = High.empty() ? Low : High;
    if (Q.empty())
      return false; // Closed and drained.
    Out = std::move(Q.front());
    Q.pop_front();
    return true;
  }

  /// Outcome of a non-blocking push.
  enum class PushResult : uint8_t { Ok, Full, Closed };

  /// Non-blocking enqueue: never waits for capacity. The caller decides
  /// what a Full queue means (refusal, load-shedding, fallback to inline
  /// work) instead of this queue deciding for it by blocking.
  PushResult tryPush(T V, bool HighPriority = false) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Closed)
      return PushResult::Closed;
    if (full())
      return PushResult::Full;
    (HighPriority ? High : Low).push_back(std::move(V));
    HighWater = std::max(HighWater, High.size() + Low.size());
    NotEmpty.notify_one();
    return PushResult::Ok;
  }

  /// Removes the *newest* low-priority item into \p Out — the
  /// load-shedding victim: shedding the most recently deferred
  /// speculative work preserves FIFO progress for everything older.
  /// \returns false if no low-priority item is queued.
  bool shedLowest(T &Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Low.empty())
      return false;
    Out = std::move(Low.back());
    Low.pop_back();
    return true;
  }

  /// Non-blocking dequeue; \returns false if the queue is empty.
  bool tryPop(T &Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::deque<T> &Q = High.empty() ? Low : High;
    if (Q.empty())
      return false;
    Out = std::move(Q.front());
    Q.pop_front();
    return true;
  }

  /// Closes the queue: later pushes fail, blocked pops drain what is left
  /// and then fail. Idempotent.
  void close() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
    NotEmpty.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return High.size() + Low.size();
  }

  /// The capacity this queue was constructed with (0 = unbounded).
  size_t capacity() const { return Capacity; }

  /// Largest number of items ever queued at once.
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return HighWater;
  }

private:
  bool full() const { return Capacity && High.size() + Low.size() >= Capacity; }

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable NotEmpty;
  std::deque<T> High, Low;
  size_t HighWater = 0;
  bool Closed = false;
};

} // namespace qcf

#endif // QCF_SUPPORT_BOUNDEDQUEUE_H
