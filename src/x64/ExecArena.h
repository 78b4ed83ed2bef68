//===- x64/ExecArena.h - The process-wide JIT code heap ---------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place JIT code memory comes from: cold links and warm installs
/// of the native back-ends (x64::CodeImage), mlvm's ELF link and the
/// interpreter's callback thunks all take a Block here.
///
/// Each chunk is a memfd mapped twice: a read/write view that code is
/// copied and patched through, and a read/execute view that entry points
/// live in. No view is ever writable and executable, yet installing code
/// needs no mprotect — on virtualized hosts one mprotect (TLB shootdown)
/// can cost as much as a whole warm install.
///
/// Blocks are 64-byte aligned and go back to their chunk when destroyed.
/// A freed block is filled with int3 through its RW view before it can be
/// reused, so a stale entry pointer traps instead of running another
/// module's code. Free ranges coalesce and are reused first-fit. An empty
/// chunk is unmapped, except for one spare; a request larger than a chunk
/// gets a chunk of its own.
///
/// Fork safety: fork() retires every chunk in parent and child, since both
/// would otherwise carve the same shared range and write into code the
/// other runs. A retired chunk is never carved again, its freed blocks are
/// neither filled nor reused, and it is unmapped once empty.
///
/// Without memfd (kernel or seccomp refuses it) each block is a private
/// mapping of its own with Rw == Rx, which seal() flips to read/execute.
/// Callers never tell the two apart: write through Rw, seal(), run Rx.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_EXECARENA_H
#define QCF_X64_EXECARENA_H

#include <cstddef>
#include <cstdint>

namespace qcf::x64 {

class ExecArena {
  struct Impl;

public:
  /// Write code through Rw, seal(), run it through Rx; `Rx + off` and
  /// `Rw + off` are the same byte for any off < Size. Callers only read
  /// the fields. Move-only; destruction frees the block.
  class Block {
  public:
    uint8_t *Rw = nullptr;
    const uint8_t *Rx = nullptr;
    size_t Size = 0;

    Block() = default;
    Block(Block &&Other) noexcept { *this = static_cast<Block &&>(Other); }
    Block &operator=(Block &&Other) noexcept;
    ~Block();

    explicit operator bool() const { return Rx != nullptr; }

    /// Ends writing: Rx runs afterwards and Rw must not be written again.
    void seal();

  private:
    friend struct Impl;
    void *Owner = nullptr; ///< The chunk; null for a private mapping.
    size_t Cap = 0;        ///< Bytes taken from the heap.
  };

  /// The singleton heap (thread-safe).
  static ExecArena &global();

  /// A writable block of at least \p Bytes. Aborts only when no code
  /// memory can be mapped at all.
  Block allocate(size_t Bytes);

  /// Bytes the heap holds mapped (the code.arena.bytes gauge).
  uint64_t bytesAllocated() const;
  /// Bytes in blocks not yet freed, alignment padding included.
  uint64_t liveBytes() const;

private:
  ExecArena() = default;
  static Impl *impl();
};

} // namespace qcf::x64

#endif // QCF_X64_EXECARENA_H
