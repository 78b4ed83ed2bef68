//===- support/BlockCache.cpp - Per-thread recycled heap blocks ------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "support/BlockCache.h"
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define QCF_POISON(P, N) ASAN_POISON_MEMORY_REGION(P, N)
#define QCF_UNPOISON(P, N) ASAN_UNPOISON_MEMORY_REGION(P, N)
#else
#define QCF_POISON(P, N) ((void)(P), (void)(N))
#define QCF_UNPOISON(P, N) ((void)(P), (void)(N))
#endif

using namespace qcf;
using namespace qcf::blocks;

namespace {

constexpr unsigned MinLog2 = 6;
constexpr unsigned NumClasses = 12; // 64 B .. 128 KiB
static_assert(MinBlockBytes == size_t(1) << MinLog2);
static_assert(MaxBlockBytes == size_t(1) << (MinLog2 + NumClasses - 1));

unsigned classOf(size_t Bytes) {
  if (Bytes <= MinBlockBytes)
    return 0;
  return 64 - __builtin_clzll(Bytes - 1) - MinLog2;
}

size_t classBytes(unsigned C) { return MinBlockBytes << C; }

/// One thread's parked blocks. Trivially destructible, so it stays usable
/// while the thread's other thread_local objects are destroyed: a block
/// freed after the reaper ran goes straight back to malloc.
struct Parked {
  void *Blocks[NumClasses][ClassDepth];
  uint8_t Count[NumClasses];
  size_t Bytes;
  bool Registered; ///< The reaper is armed.
  bool Exited;     ///< The reaper ran.
};

thread_local Parked Cache;

/// Gives every parked block of the thread back to malloc.
void releaseParked() {
  for (unsigned C = 0; C != NumClasses; ++C)
    while (Cache.Count[C]) {
      void *B = Cache.Blocks[C][--Cache.Count[C]];
      QCF_UNPOISON(B, classBytes(C));
      std::free(B);
    }
  Cache.Bytes = 0;
}

/// Frees the thread's parked blocks at thread exit.
struct Reaper {
  Reaper() = default;
  Reaper(const Reaper &) = delete;
  Reaper &operator=(const Reaper &) = delete;
  ~Reaper() {
    releaseParked();
    Cache.Exited = true;
  }
};

void *checked(void *P) {
  if (!P)
    throw std::bad_alloc();
  return P;
}

/// A block too large to park. The thread has moved on to large data, so
/// its parked blocks go back to malloc first, where this request and the
/// ones after it can reuse their memory.
void *unparkable(size_t Bytes, bool Zeroed) {
  releaseParked();
  return checked(Zeroed ? std::calloc(1, Bytes) : std::malloc(Bytes));
}

/// A parked block of class \p C, or null.
void *take(unsigned C) {
  if (!Cache.Count[C])
    return nullptr;
  Cache.Bytes -= classBytes(C);
  return Cache.Blocks[C][--Cache.Count[C]];
}

/// Exposes the first \p Bytes of block \p B of class \p C.
void *handOut(void *B, unsigned C, size_t Bytes) {
  QCF_UNPOISON(B, Bytes);
  QCF_POISON(static_cast<char *>(B) + Bytes, classBytes(C) - Bytes);
  return B;
}

} // namespace

void *blocks::allocate(size_t Bytes) {
  if (Bytes > MaxBlockBytes)
    return unparkable(Bytes, /*Zeroed=*/false);
  unsigned C = classOf(Bytes);
  void *B = take(C);
  if (!B)
    B = checked(std::malloc(classBytes(C)));
  return handOut(B, C, Bytes);
}

void *blocks::allocateZeroed(size_t Bytes) {
  if (Bytes > MaxBlockBytes)
    return unparkable(Bytes, /*Zeroed=*/true);
  unsigned C = classOf(Bytes);
  if (void *B = take(C)) {
    handOut(B, C, Bytes);
    return std::memset(B, 0, Bytes);
  }
  return handOut(checked(std::calloc(1, classBytes(C))), C, Bytes);
}

void blocks::deallocate(void *P, size_t Bytes) noexcept {
  if (!P)
    return;
  if (Bytes > MaxBlockBytes) {
    std::free(P);
    return;
  }
  unsigned C = classOf(Bytes);
  size_t CB = classBytes(C);
  if (Cache.Exited || Cache.Count[C] == ClassDepth ||
      Cache.Bytes + CB > MaxParkedBytes) {
    QCF_UNPOISON(P, CB);
    std::free(P);
    return;
  }
  if (!Cache.Registered) {
    // Constructed, and its destructor registered, on the first park.
    [[maybe_unused]] static thread_local Reaper R;
    Cache.Registered = true;
  }
  QCF_POISON(P, CB);
  Cache.Blocks[C][Cache.Count[C]++] = P;
  Cache.Bytes += CB;
}

size_t blocks::parkedBytes() { return Cache.Bytes; }
