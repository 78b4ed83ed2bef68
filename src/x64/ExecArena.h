//===- x64/ExecArena.h - Dual-view executable code arena --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-lifetime bump arena for installing cache-loaded machine code
/// without per-module mmap/mprotect traffic. Each chunk is an anonymous
/// memfd mapped twice: a read/write view that code is copied and patched
/// through, and a read/execute view that entry points live in. Both views
/// alias the same physical pages, so bytes written through the RW view are
/// immediately executable through the RX view — the classic dual-mapping
/// JIT technique (used by e.g. V8 and SpiderMonkey) that preserves "no
/// page is ever writable *and* executable" while eliminating the
/// mprotect-per-install of the flip-in-place scheme.
///
/// This matters because installing a warm module from the disk code cache
/// must beat recompiling it by a wide margin, and on virtualized hosts a
/// single mprotect (TLB shootdown) can cost as much as the entire parse +
/// checksum + relocation re-patch. Compile-path modules keep using
/// ExecMemory: a compile is hundreds of microseconds anyway, and its
/// private mapping is reclaimed on module destruction. Both routes are
/// taken in one place, x64::CodeImage (link() and install()).
///
/// The arena is append-only: blocks are never returned. Only warm installs
/// (CodeImage::install, and mlvm's cached ELF link) allocate here, and a
/// block is exactly the module's code bytes, so growth is bounded by the
/// total code ever warm-loaded by the process. DiskCodeCache publishes
/// bytesAllocated() as the code.arena.bytes gauge.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_EXECARENA_H
#define QCF_X64_EXECARENA_H

#include <cstddef>
#include <cstdint>

namespace qcf::x64 {

/// The process-wide dual-view code arena.
class ExecArena {
public:
  /// One allocated block: write code through Rw, run it through Rx.
  /// `Rx + off` and `Rw + off` address the same byte for any off < Size.
  struct Block {
    uint8_t *Rw = nullptr;
    const uint8_t *Rx = nullptr;
    size_t Size = 0;
    explicit operator bool() const { return Rw != nullptr; }
  };

  /// The singleton arena (thread-safe).
  static ExecArena &global();

  /// Bump-allocates \p Bytes (16-byte aligned). Returns a null block when
  /// the dual-view mechanism is unavailable (memfd_create denied by
  /// kernel or seccomp) — callers fall back to a private ExecMemory copy.
  Block allocate(size_t Bytes);

  /// Total bytes handed out, for observability.
  uint64_t bytesAllocated() const;

private:
  ExecArena() = default;
  struct Impl;
  static Impl *impl();
};

} // namespace qcf::x64

#endif // QCF_X64_EXECARENA_H
