//===- tv/Tv.h - Translation validation public API --------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation for JIT-emitted machine code (QCF_VERIFY=tv): the
/// fourth and outermost verification layer (IR verify -> MIR verify ->
/// encoding lint -> tv). The emitted byte buffer is the one artifact every
/// back-end shares — including blobs re-patched in from DiskCodeCache — so
/// validating it against the QIR source closes the trust gap for all tiers
/// at once.
///
/// Method: the bytes are lifted through x64::decodeFunction into an
/// operand-accurate CFG, then a machine-level stepper and a QIR reference
/// stepper (evaluating through qir/Semantics.h, as the interpreter does)
/// co-simulate the function over several seeded rounds. Each side runs independently against the
/// same deterministic memory oracle and the same uninterpreted model of
/// runtime calls, producing an ordered trace of observables — runtime calls
/// (callee, argument slots, global-store digest, stack-argument snapshots),
/// traps, faults, and the return value. The traces must agree event for
/// event. Alongside the concrete values both steppers maintain hash-consed
/// symbolic terms (tv/Term.h), so a mismatch is reported as a minimized
/// counterexample: function, round, event index, the symbolic term each
/// side computed, and the concrete witness values.
///
/// The model is sound for the code our back-ends emit (no false negatives
/// on the mutation classes it checks) and — by construction of the shared
/// oracle — produces no false positives on correct code; see DESIGN.md
/// "Translation validation" for the argument and its boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TV_TV_H
#define QCF_TV_TV_H

#include "qir/Function.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qcf::obs {
class MetricsRegistry;
}
namespace qcf::x64 {
class CodeImage;
}

namespace qcf::tv {

/// A named relocation inside an emitted function: \p Width bytes at
/// \p Offset hold a value derived from runtime symbol \p Symbol (rel32
/// call displacement or absolute imm64). Back-ends already record these
/// for the disk cache; tv uses them to resolve call targets symbolically
/// and to cross-check re-patched bytes against the live symbol table.
struct TvReloc {
  uint64_t Offset = 0;
  uint32_t Width = 0;
  std::string Symbol; ///< Empty when the target symbol is unknown.
};

/// One emitted function handed to the validator.
struct TvFunction {
  std::string Name;
  const uint8_t *Code = nullptr;
  size_t Size = 0;
  std::vector<TvReloc> Relocs;
};

struct TvOptions {
  unsigned Rounds = 6;    ///< Co-simulation rounds per function.
  uint64_t Seed = 0x51ed270b21f0b2d5ull;
  size_t MaxTerms = 65536; ///< Symbolic arena cap (QCF_TV_MAX_TERMS).

  /// Rounds/Seed defaults with MaxTerms from QCF_TV_MAX_TERMS.
  static TvOptions fromEnv();
};

struct TvStats {
  uint64_t Functions = 0;  ///< Functions fully validated.
  uint64_t Blocks = 0;     ///< Decoded machine blocks walked.
  uint64_t Terms = 0;      ///< Symbolic terms interned.
  uint64_t Mismatches = 0; ///< Functions that failed validation.
  uint64_t Skipped = 0;    ///< Functions outside the model (see report).
  uint64_t Ns = 0;         ///< Wall time spent validating.
};

/// Validates one emitted function against its QIR source. Returns the empty
/// string on success (or a sound skip) and a multi-line counterexample
/// report on mismatch. \p Stats, when given, is accumulated into.
std::string validateFunction(const qir::Function &F, const TvFunction &MF,
                             const TvOptions &Opts, TvStats *Stats = nullptr);

/// Validates every emitted function that has a QIR counterpart in \p M.
/// Returns the first mismatch report ("" if all pass) and lands
/// verify.tv.* counters plus the tv_ns histogram in \p Metrics when given.
std::string validateModule(const qir::Module &M,
                           const std::vector<TvFunction> &Fns,
                           const TvOptions &Opts,
                           obs::MetricsRegistry *Metrics = nullptr);

/// validateModule with TvOptions::fromEnv(), escalating a mismatch to
/// reportFatalError naming \p Who (the back-end, or "disk cache" for a
/// warm load); the `tv` layer of QCF_VERIFY.
void validateOrDie(const qir::Module &M, const std::vector<TvFunction> &Fns,
                   obs::MetricsRegistry *Metrics, const char *Who);

/// Per-function views of a linked or installed native image, with its
/// imm64 runtime relocations made function-relative. Pointers reference
/// the image's executable memory, so a warm image exposes its re-patched
/// bytes.
std::vector<TvFunction> imageFunctions(const x64::CodeImage &Img);

} // namespace qcf::tv

#endif // QCF_TV_TV_H
