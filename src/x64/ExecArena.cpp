//===- x64/ExecArena.cpp - The process-wide JIT code heap -----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/ExecArena.h"
#include "support/Compiler.h"
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>
#include <utility>
#include <vector>

using namespace qcf;
using namespace qcf::x64;

namespace {

/// A module's code is a few KiB to a few tens of KiB, so one chunk usually
/// holds all of a process's live code. Only touched pages cost memory.
constexpr size_t ChunkBytes = 1u << 20;
constexpr size_t BlockAlign = 64;
constexpr size_t PageBytes = 4096;

size_t roundUp(size_t N, size_t Align) {
  return (std::max<size_t>(N, 1) + Align - 1) & ~(Align - 1);
}

struct Chunk {
  uint8_t *Rw = nullptr;
  uint8_t *Rx = nullptr;
  size_t Bytes = 0;
  size_t Live = 0;      ///< Bytes in allocated blocks.
  bool Retired = false; ///< Mapped before a fork: never carved again.
  std::map<size_t, size_t> Free; ///< Offset -> length, coalesced.
};

} // namespace

struct ExecArena::Impl {
  std::mutex Mutex;
  std::vector<std::unique_ptr<Chunk>> Chunks; ///< Guarded by Mutex.
  std::atomic<uint64_t> Mapped{0}, Live{0};

  // The prepare handler holds the lock across fork(), so no allocation is
  // half done in the child; then parent and child retire every chunk.
  Impl() { ::pthread_atfork(&lockForFork, &retireAll, &retireAll); }
  static void lockForFork() { impl()->Mutex.lock(); }
  static void retireAll() {
    for (auto &C : impl()->Chunks)
      C->Retired = true;
    impl()->Mutex.unlock();
  }

  /// Maps a dual-view chunk; null when memfd is unavailable.
  Chunk *mapChunk(size_t Bytes) {
    int Fd = ::memfd_create("qcf-code-heap", MFD_CLOEXEC);
    if (Fd < 0)
      return nullptr;
    void *Rw = MAP_FAILED, *Rx = MAP_FAILED;
    if (::ftruncate(Fd, static_cast<off_t>(Bytes)) == 0) {
      Rw = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE, MAP_SHARED, Fd, 0);
      Rx = ::mmap(nullptr, Bytes, PROT_READ | PROT_EXEC, MAP_SHARED, Fd, 0);
    }
    ::close(Fd); // The mappings keep the memory alive.
    if (Rw == MAP_FAILED || Rx == MAP_FAILED) {
      if (Rw != MAP_FAILED)
        ::munmap(Rw, Bytes);
      if (Rx != MAP_FAILED)
        ::munmap(Rx, Bytes);
      return nullptr;
    }
    auto &C = Chunks.emplace_back(std::make_unique<Chunk>());
    C->Rw = static_cast<uint8_t *>(Rw);
    C->Rx = static_cast<uint8_t *>(Rx);
    C->Bytes = Bytes;
    C->Free.emplace(0, Bytes);
    Mapped += Bytes;
    return C.get();
  }

  void unmapChunk(Chunk *C) {
    ::munmap(C->Rw, C->Bytes);
    ::munmap(C->Rx, C->Bytes);
    Mapped -= C->Bytes;
    Chunks.erase(std::find_if(Chunks.begin(), Chunks.end(),
                              [&](auto &O) { return O.get() == C; }));
  }

  /// Carves \p Cap bytes first-fit out of \p C into \p B.
  bool carve(Chunk *C, size_t Cap, Block &B) {
    if (C->Retired)
      return false;
    auto It = std::find_if(C->Free.begin(), C->Free.end(),
                           [&](const auto &F) { return F.second >= Cap; });
    if (It == C->Free.end())
      return false;
    size_t Off = It->first;
    auto Node = C->Free.extract(It);
    if (Node.mapped() > Cap) {
      Node.key() += Cap;
      Node.mapped() -= Cap;
      C->Free.insert(std::move(Node));
    }
    C->Live += Cap;
    Live += Cap;
    B.Rw = C->Rw + Off;
    B.Rx = C->Rx + Off;
    B.Owner = C;
    B.Cap = Cap;
    return true;
  }

  Block allocate(size_t Bytes) {
    Block B;
    B.Size = Bytes;
    std::lock_guard<std::mutex> Lock(Mutex);
    // A chunk that a fork retired while empty has no block left to free it.
    for (size_t I = Chunks.size(); I-- > 0;)
      if (Chunks[I]->Retired && Chunks[I]->Live == 0)
        unmapChunk(Chunks[I].get());
    size_t Cap = roundUp(Bytes, BlockAlign);
    for (auto &C : Chunks)
      if (carve(C.get(), Cap, B))
        return B;
    if (Chunk *C = mapChunk(std::max(ChunkBytes, roundUp(Cap, PageBytes))))
      if (carve(C, Cap, B))
        return B;
    // No memfd: a private mapping of its own, sealed by mprotect. It is
    // prefaulted in one syscall, since the caller writes every page.
    B.Cap = roundUp(Bytes, PageBytes);
    void *M = ::mmap(nullptr, B.Cap, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (M == MAP_FAILED)
      reportFatalError("mmap for JIT code failed");
    Mapped += B.Cap;
    Live += B.Cap;
    B.Rw = static_cast<uint8_t *>(M);
    B.Rx = B.Rw;
    return B;
  }

  void release(Block &B) {
    Live -= B.Cap;
    auto *C = static_cast<Chunk *>(B.Owner);
    if (!C) {
      ::munmap(B.Rw, B.Cap);
      Mapped -= B.Cap;
      return;
    }
    std::lock_guard<std::mutex> Lock(Mutex);
    C->Live -= B.Cap;
    // An emptied chunk stays mapped only as the one spare standard chunk,
    // so a compile-run-drop loop does not map a chunk per module.
    auto Standard = [](const Chunk &O) {
      return !O.Retired && O.Bytes == ChunkBytes;
    };
    if (C->Live == 0 &&
        (!Standard(*C) ||
         std::any_of(Chunks.begin(), Chunks.end(), [&](auto &O) {
           return O.get() != C && Standard(*O);
         })))
      return unmapChunk(C);
    // A retired chunk's bytes may still run in the other process.
    if (C->Retired)
      return;
    size_t Off = static_cast<size_t>(B.Rw - C->Rw), Cap = B.Cap;
    std::memset(B.Rw, 0xcc, Cap); // int3: a stale entry pointer traps.
    auto Next = C->Free.lower_bound(Off);
    if (Next != C->Free.end() && Off + Cap == Next->first) {
      Cap += Next->second;
      Next = C->Free.erase(Next);
    }
    if (Next != C->Free.begin()) {
      auto Prev = std::prev(Next);
      if (Prev->first + Prev->second == Off) {
        Prev->second += Cap;
        return;
      }
    }
    C->Free.emplace_hint(Next, Off, Cap);
  }
};

ExecArena::Impl *ExecArena::impl() {
  // Never destroyed: blocks owned by static objects are freed after main.
  static Impl *I = new Impl;
  return I;
}

ExecArena &ExecArena::global() {
  static ExecArena A;
  return A;
}

ExecArena::Block ExecArena::allocate(size_t Bytes) {
  return impl()->allocate(Bytes);
}

uint64_t ExecArena::bytesAllocated() const { return impl()->Mapped.load(); }

uint64_t ExecArena::liveBytes() const { return impl()->Live.load(); }

ExecArena::Block &ExecArena::Block::operator=(Block &&Other) noexcept {
  if (this != &Other) {
    if (Rx)
      impl()->release(*this);
    Rw = std::exchange(Other.Rw, nullptr);
    Rx = std::exchange(Other.Rx, nullptr);
    Size = std::exchange(Other.Size, 0);
    Owner = std::exchange(Other.Owner, nullptr);
    Cap = std::exchange(Other.Cap, 0);
  }
  return *this;
}

ExecArena::Block::~Block() {
  if (Rx)
    impl()->release(*this);
}

void ExecArena::Block::seal() {
  if (Rx && !Owner && ::mprotect(Rw, Cap, PROT_READ | PROT_EXEC) != 0)
    reportFatalError("mprotect(PROT_EXEC) failed");
}
