//===- support/BlockCache.h - Per-thread recycled heap blocks ---*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution memory (DESIGN.md "Execution memory"). A query's hash-table
/// directories and entry chunks, its executor vectors and sort buffers,
/// its result cells and arena slabs are all freed on the thread that ran
/// it, at the end of the query. Instead of going back to malloc, such a
/// block is parked on that thread, and the next query there takes it
/// again, so a warm served query runs without touching the heap.
///
///  - A request up to MaxBlockBytes is rounded up to a power-of-two class
///    of at least MinBlockBytes. A larger one goes to malloc and free, and
///    first gives the thread's parked blocks back to malloc: a thread that
///    has moved on to large data should not hold small blocks back from
///    it.
///  - A thread parks at most MaxParkedBytes, and ClassDepth blocks per
///    class; a freed block that does not fit goes back to malloc.
///  - Parked blocks are freed when their thread exits. Under
///    AddressSanitizer they are poisoned while parked, and so is the tail
///    of a handed-out block past the bytes asked for.
///
/// A block may be freed on another thread than the one that took it; it
/// is then parked there. Blocks carry no header: whoever frees one passes
/// the size it asked for.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_BLOCKCACHE_H
#define QCF_SUPPORT_BLOCKCACHE_H

#include <cstddef>
#include <new>
#include <string>
#include <utility>
#include <vector>

namespace qcf::blocks {

constexpr size_t MinBlockBytes = 64;
constexpr size_t MaxBlockBytes = 128 * 1024;
constexpr size_t MaxParkedBytes = 512 * 1024;
constexpr unsigned ClassDepth = 16;

/// A block of at least \p Bytes, 16-byte aligned. Throws std::bad_alloc
/// when the heap is exhausted.
void *allocate(size_t Bytes);

/// Like allocate(), with the first \p Bytes zeroed. A block too large to
/// park comes from calloc, so one the kernel maps is not zeroed twice.
void *allocateZeroed(size_t Bytes);

/// Gives back a block of allocate() or allocateZeroed() that was asked for
/// with \p Bytes. Null is ignored.
void deallocate(void *P, size_t Bytes) noexcept;

/// Bytes the calling thread has parked.
size_t parkedBytes();

/// Owns one block; gives it back when it dies.
class Block {
public:
  Block() = default;
  explicit Block(size_t Bytes) : P(allocate(Bytes)), N(Bytes) {}
  ~Block() { deallocate(P, N); }

  Block(Block &&O) noexcept
      : P(std::exchange(O.P, nullptr)), N(std::exchange(O.N, 0)) {}
  Block &operator=(Block &&O) noexcept {
    std::swap(P, O.P);
    std::swap(N, O.N);
    return *this;
  }

  template <typename T = void> T *get() const { return static_cast<T *>(P); }
  size_t size() const { return N; }

private:
  void *P = nullptr;
  size_t N = 0;
};

} // namespace qcf::blocks

namespace qcf {

/// Standard-library allocator over the calling thread's block cache.
template <typename T> class BlockAllocator {
public:
  using value_type = T;
  static_assert(alignof(T) <= 16, "blocks are 16-byte aligned");

  BlockAllocator() = default;
  template <typename U> BlockAllocator(const BlockAllocator<U> &) {}

  T *allocate(size_t N) {
    if (N > size_t(-1) / sizeof(T))
      throw std::bad_array_new_length();
    return static_cast<T *>(blocks::allocate(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept {
    blocks::deallocate(P, N * sizeof(T));
  }

  template <typename U> bool operator==(const BlockAllocator<U> &) const {
    return true;
  }
};

/// A vector whose buffer is a recycled block.
template <typename T> using BlockVector = std::vector<T, BlockAllocator<T>>;

/// A string whose long form is a recycled block.
using BlockString =
    std::basic_string<char, std::char_traits<char>, BlockAllocator<char>>;

} // namespace qcf

#endif // QCF_SUPPORT_BLOCKCACHE_H
