//===- support/Compiler.h - Common compiler macros --------------*- C++ -*-===//
//
// Part of the QCF project, a reproduction of "Compile-Time Analysis of
// Compiler Frameworks for Query Compilation" (CGO 2024).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small portability and diagnostics helpers shared by all QCF libraries.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SUPPORT_COMPILER_H
#define QCF_SUPPORT_COMPILER_H

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace qcf {

/// Marks a point in the code that must never be reached. Aborts with a
/// message in all build modes; query compilation bugs must not silently
/// produce wrong machine code.
[[noreturn]] inline void unreachableImpl(const char *Msg, const char *File,
                                         int Line) {
  std::fprintf(stderr, "UNREACHABLE at %s:%d: %s\n", File, Line, Msg);
  std::abort();
}

/// Reports a fatal, non-recoverable usage or environment error.
[[noreturn]] inline void reportFatalError(const char *Msg) {
  std::fprintf(stderr, "qcf fatal error: %s\n", Msg);
  std::abort();
}

} // namespace qcf

#define QCF_UNREACHABLE(msg) ::qcf::unreachableImpl(msg, __FILE__, __LINE__)

#if defined(__GNUC__)
#define QCF_LIKELY(x) __builtin_expect(!!(x), 1)
#define QCF_UNLIKELY(x) __builtin_expect(!!(x), 0)
#define QCF_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define QCF_LIKELY(x) (x)
#define QCF_UNLIKELY(x) (x)
#define QCF_ALWAYS_INLINE inline
#endif

#endif // QCF_SUPPORT_COMPILER_H
