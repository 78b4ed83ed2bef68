//===- support/Arena.h - Bump-pointer allocation ----------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena allocator. Query compilation allocates many small,
/// short-lived objects (IR nodes, DAG nodes, MC fragments); arenas make
/// allocation a pointer increment and deallocation a single free, which is
/// one of the data-structure choices the reproduced paper highlights as a
/// compile-time lever (Umbra IR vs. LLVM's per-object heap allocation).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_ARENA_H
#define QCF_SUPPORT_ARENA_H

#include "support/BlockCache.h"
#include "support/Compiler.h"
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

namespace qcf {

/// A bump-pointer allocator backed by geometrically growing slabs.
///
/// Objects allocated from an arena are never individually freed; their
/// destructors are NOT run. Only use it for trivially destructible payloads
/// or objects whose destructor is a no-op.
class Arena {
public:
  explicit Arena(size_t InitialSlabBytes = 16 * 1024)
      : NextSlabBytes(InitialSlabBytes) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  Arena(Arena &&Other) noexcept { *this = std::move(Other); }
  Arena &operator=(Arena &&Other) noexcept {
    if (this != &Other) {
      freeSlabs();
      Slabs = std::move(Other.Slabs);
      Cur = Other.Cur;
      End = Other.End;
      NextSlabBytes = Other.NextSlabBytes;
      Allocated = Other.Allocated;
      NumAllocs = Other.NumAllocs;
      Other.Slabs.clear();
      Other.Cur = Other.End = nullptr;
      Other.Allocated = 0;
      Other.NumAllocs = 0;
    }
    return *this;
  }

  ~Arena() { freeSlabs(); }

  /// Allocates \p Bytes with the given alignment. Never returns null.
  void *allocate(size_t Bytes, size_t Align = 8) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~uintptr_t(Align - 1);
    if (QCF_UNLIKELY(Aligned + Bytes > reinterpret_cast<uintptr_t>(End))) {
      growSlab(Bytes + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~uintptr_t(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Bytes);
    Allocated += Bytes;
    ++NumAllocs;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Constructs a T in the arena. The destructor will not run.
  template <typename T, typename... Args> T *create(Args &&...A) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(A)...);
  }

  /// Allocates an uninitialized array of \p N elements of T.
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Copies a string (plus NUL) into the arena and returns the copy.
  const char *copyString(const char *Str, size_t Len) {
    char *Mem = allocateArray<char>(Len + 1);
    std::memcpy(Mem, Str, Len);
    Mem[Len] = 0;
    return Mem;
  }

  /// Total bytes handed out (excluding alignment padding and slab slack).
  size_t bytesAllocated() const { return Allocated; }

  /// Number of allocate() calls served since construction / reset / clear.
  size_t numAllocations() const { return NumAllocs; }

  /// Releases all memory and resets the arena to its initial state.
  void reset() {
    freeSlabs();
    Slabs.clear();
    Cur = End = nullptr;
    Allocated = 0;
    NumAllocs = 0;
  }

  /// Forgets every allocation but retains the largest slab for reuse, so
  /// a per-function compile loop reaches steady state with zero mallocs
  /// (the arena variant of LLVM BumpPtrAllocator::Reset).
  void clear() {
    if (!Slabs.empty()) {
      // Slabs grow geometrically, so the newest is the largest; keep it.
      Slab Keep = Slabs.back();
      Slabs.pop_back();
      freeSlabs();
      Slabs.assign(1, Keep);
      Cur = Keep.Base;
      End = Keep.Base + Keep.Bytes;
    }
    Allocated = 0;
    NumAllocs = 0;
  }

private:
  struct Slab {
    char *Base;
    size_t Bytes;
  };

  void growSlab(size_t MinBytes) {
    size_t SlabBytes = NextSlabBytes;
    if (SlabBytes < MinBytes)
      SlabBytes = MinBytes;
    NextSlabBytes = NextSlabBytes * 2;
    char *Base = static_cast<char *>(blocks::allocate(SlabBytes));
    Slabs.push_back({Base, SlabBytes});
    Cur = Base;
    End = Base + SlabBytes;
  }

  void freeSlabs() {
    for (const Slab &S : Slabs)
      blocks::deallocate(S.Base, S.Bytes);
  }

  BlockVector<Slab> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlabBytes;
  size_t Allocated = 0;
  size_t NumAllocs = 0;
};

/// Standard-library allocator over an Arena: containers draw their
/// buffers from the arena, deallocate is a no-op. The arena must outlive
/// every container bound to it.
template <typename T> class ArenaAllocator {
public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  ArenaAllocator(Arena &A) : A(&A) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U> &O) : A(O.arena()) {}

  T *allocate(size_t N) {
    return static_cast<T *>(A->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *, size_t) noexcept {}

  Arena *arena() const { return A; }

  template <typename U> bool operator==(const ArenaAllocator<U> &O) const {
    return A == O.arena();
  }
  template <typename U> bool operator!=(const ArenaAllocator<U> &O) const {
    return A != O.arena();
  }

private:
  Arena *A;
};

/// A vector whose buffer lives in an arena. Growth abandons the old
/// buffer in the arena (bump allocators never free); reserve() up front
/// where the size is predictable.
template <typename T> using ArenaVector = std::vector<T, ArenaAllocator<T>>;

} // namespace qcf

#endif // QCF_SUPPORT_ARENA_H
