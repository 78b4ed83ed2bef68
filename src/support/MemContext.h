//===- support/MemContext.h - Per-compile allocation context ----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-compile compilation memory (DESIGN.md "Compilation memory"). The
/// paper names per-object heap allocation as a first-order compile-time
/// cost of LLVM-style back-ends; a MemContext bundles the bump arenas one
/// Backend::compile call allocates its IR/MIR nodes and scratch buffers
/// from, plus the telemetry that surfaces those allocations as
/// mem.<backend>.<phase>.bytes/allocs metrics. Each compile creates its
/// own MemContext (mode from CompileOptions::Alloc) and no caller can
/// hand one in, so a context is never shared between compiles; only
/// MlvmBackend::compileToObject takes one, for tests and benches.
///
/// Every node allocation goes through a MemPool, which runs in one of two
/// modes:
///
///   AllocMode::Heap   one operator new/delete per object — the paper-
///                     faithful cost model (LLVM's per-object allocation,
///                     §V-B1 module destruction). Counters double as a
///                     leak detector: liveObjects() must return to zero
///                     when a compile's ownership discipline is correct.
///   AllocMode::Arena  bump-pointer slabs; destroy() is a no-op and the
///                     whole object graph is released by clear()/reset in
///                     O(slabs). Production mode; measured by E14
///                     (bench_mlvm_ablations --alloc).
///
/// Because arena mode never runs node destructors, any heap-owning member
/// of a pool-allocated node must itself draw from the pool (PoolVector) or
/// be trivially destructible — that is the single ownership rule the
/// compilation layers follow.
///
/// The mode defaults to QCF_ALLOC=heap|arena (heap when unset, keeping
/// the E2/E3 benches paper-faithful).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_MEMCONTEXT_H
#define QCF_SUPPORT_MEMCONTEXT_H

#include "support/Arena.h"
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace qcf {

/// How compilation nodes are allocated; see file comment.
enum class AllocMode : uint8_t {
  Heap,  ///< Per-object new/delete (paper-faithful default).
  Arena, ///< Bump arenas, bulk release (production mode).
};

inline const char *allocModeName(AllocMode M) {
  return M == AllocMode::Heap ? "heap" : "arena";
}

/// Reads QCF_ALLOC (heap|arena). Unset or unrecognized means Heap so the
/// default benchmark numbers stay comparable with the paper.
inline AllocMode allocModeFromEnv() {
  const char *E = std::getenv("QCF_ALLOC");
  if (E && std::strcmp(E, "arena") == 0)
    return AllocMode::Arena;
  return AllocMode::Heap;
}

/// A mode-selected object pool: heap-backed with per-object free, or an
/// Arena with no-op frees. Counts bytes, allocations, and frees in both
/// modes (cumulative across clear(), so phase deltas stay monotonic).
class MemPool {
public:
  explicit MemPool(AllocMode Mode = AllocMode::Heap,
                   size_t InitialSlabBytes = 16 * 1024)
      : Mode(Mode), A(InitialSlabBytes) {}

  MemPool(const MemPool &) = delete;
  MemPool &operator=(const MemPool &) = delete;

  AllocMode mode() const { return Mode; }
  bool isArena() const { return Mode == AllocMode::Arena; }

  void *allocate(size_t Bytes, size_t Align = 8) {
    TotalBytes += Bytes;
    ++TotalAllocs;
    if (Mode == AllocMode::Arena)
      return A.allocate(Bytes, Align);
    assert(Align <= alignof(std::max_align_t) && "over-aligned pool object");
    return ::operator new(Bytes);
  }

  void deallocate(void *P, size_t /*Bytes*/) noexcept {
    // Unsized delete on purpose: destroy() may free through a base-class
    // pointer whose static size understates the object.
    ++TotalFrees;
    if (Mode == AllocMode::Arena)
      return; // Bump allocation: individual frees are no-ops.
    ::operator delete(P);
  }

  /// Constructs a T in the pool.
  template <typename T, typename... Args> T *create(Args &&...Arg) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(Arg)...);
  }

  /// Heap mode: runs the destructor and frees. Arena mode: no-op — the
  /// object (and everything it owns through the pool) dies with clear().
  template <typename T> void destroy(T *Obj) {
    if (Mode == AllocMode::Arena)
      return;
    Obj->~T();
    deallocate(Obj, sizeof(T));
  }

  /// Arena mode: drops every object and recycles the largest slab for the
  /// next function (steady-state compiles allocate nothing from malloc).
  /// Heap mode: nothing to do — objects were freed individually.
  void clear() {
    if (Mode == AllocMode::Arena)
      A.clear();
  }

  /// Cumulative telemetry (never reset by clear()).
  uint64_t bytesAllocated() const { return TotalBytes; }
  uint64_t numAllocs() const { return TotalAllocs; }
  uint64_t numFrees() const { return TotalFrees; }

  /// Outstanding allocations. In Heap mode this is the leak detector:
  /// a balanced compile returns it to its pre-compile value.
  int64_t liveObjects() const {
    return static_cast<int64_t>(TotalAllocs) - static_cast<int64_t>(TotalFrees);
  }

  /// Process-wide heap-mode pool that default-constructed containers and
  /// test fixtures bind to; real compiles pass an explicit MemContext.
  static MemPool &defaultHeap() {
    static MemPool P(AllocMode::Heap);
    return P;
  }

private:
  AllocMode Mode;
  Arena A;
  uint64_t TotalBytes = 0;
  uint64_t TotalAllocs = 0;
  uint64_t TotalFrees = 0;
};

/// Standard-library allocator over a MemPool. Stateful; containers bound
/// to the same pool compare equal (so move assignment steals buffers).
/// Default-constructed instances bind to MemPool::defaultHeap().
template <typename T> class PoolAllocator {
public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  PoolAllocator() : P(&MemPool::defaultHeap()) {}
  PoolAllocator(MemPool &Pool) : P(&Pool) {}
  PoolAllocator(MemPool *Pool) : P(Pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U> &O) : P(O.pool()) {}

  T *allocate(size_t N) {
    return static_cast<T *>(P->allocate(N * sizeof(T), alignof(T)));
  }
  void deallocate(T *Ptr, size_t N) noexcept {
    P->deallocate(Ptr, N * sizeof(T));
  }

  MemPool *pool() const { return P; }

  template <typename U> bool operator==(const PoolAllocator<U> &O) const {
    return P == O.pool();
  }
  template <typename U> bool operator!=(const PoolAllocator<U> &O) const {
    return P != O.pool();
  }

private:
  MemPool *P;
};

/// A vector whose buffer comes from a MemPool. This is the container for
/// members of pool-allocated nodes (operand tails, user lists): in arena
/// mode skipped destructors leak nothing because the buffer is arena
/// memory, in heap mode the destructor frees normally.
template <typename T> using PoolVector = std::vector<T, PoolAllocator<T>>;

/// The per-compile bundle of pools one Backend::compile call draws from;
/// see file comment for the ownership rules. Not thread-safe: one
/// compile at a time.
class MemContext {
public:
  explicit MemContext(AllocMode Mode = allocModeFromEnv())
      : ModeV(Mode), IrPool(Mode), MirPool(Mode), ScratchPool(Mode) {}

  AllocMode mode() const { return ModeV; }

  /// MLVM-IR object graph (Instruction/BasicBlock/Constant/Argument).
  MemPool &ir() { return IrPool; }
  /// MIR / gMIR / DAG-node allocation (MachineInstr and operand tails).
  MemPool &mir() { return MirPool; }
  /// Short-lived scratch: MC streamer fixups, JIT-link tables, craneline
  /// side tables.
  MemPool &scratch() { return ScratchPool; }

  /// Called between functions of a module compile: in arena mode recycles
  /// the function-scoped pools' slabs (the §V-B1 "module destruction"
  /// cost collapses to this).
  void clearFunctionMemory() {
    IrPool.clear();
    MirPool.clear();
  }

private:
  AllocMode ModeV;
  MemPool IrPool;
  MemPool MirPool;
  MemPool ScratchPool;
};

} // namespace qcf

#endif // QCF_SUPPORT_MEMCONTEXT_H
