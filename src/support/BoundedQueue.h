//===- support/BoundedQueue.h - Bounded FIFO work queue ---------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, closable MPMC FIFO queue. Producers never block: a push onto
/// a full or closed queue fails and the producer decides what that means
/// (refuse, work inline); consumers block while it is empty. Closing wakes
/// every consumer: pushes fail, pops drain the remaining items and then
/// fail. Built for backend::CompileService, but generic.
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
    NotEmpty.wait(Lock, [&] { return Closed || !Items.empty(); });
    return takeFront(Out);
  }

  /// Outcome of a non-blocking push.
  enum class PushResult : uint8_t { Ok, Full, Closed };

  /// Non-blocking enqueue: never waits for capacity. The caller decides
  /// what a Full queue means (refusal, fallback to inline work) instead
  /// of this queue deciding for it by blocking.
  PushResult tryPush(T V) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Closed)
      return PushResult::Closed;
    if (Capacity && Items.size() >= Capacity)
      return PushResult::Full;
    Items.push_back(std::move(V));
    HighWater = std::max(HighWater, Items.size());
    NotEmpty.notify_one();
    return PushResult::Ok;
  }

  /// Non-blocking dequeue; \returns false if the queue is empty.
  bool tryPop(T &Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return takeFront(Out);
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
    return Items.size();
  }

  /// The capacity this queue was constructed with (0 = unbounded).
  size_t capacity() const { return Capacity; }

  /// Largest number of items ever queued at once.
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return HighWater;
  }

private:
  /// Moves the oldest item into \p Out. Caller holds Mutex.
  bool takeFront(T &Out) {
    if (Items.empty())
      return false;
    Out = std::move(Items.front());
    Items.pop_front();
    return true;
  }

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable NotEmpty;
  std::deque<T> Items;
  size_t HighWater = 0;
  bool Closed = false;
};

} // namespace qcf

#endif // QCF_SUPPORT_BOUNDEDQUEUE_H
