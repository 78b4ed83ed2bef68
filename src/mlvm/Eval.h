//===- mlvm/Eval.h - MLVM-IR reference evaluator ----------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct interpreter for MLVM-IR, used by the expensive-checks build as
/// a differential oracle. MLVM-IR opcodes share QIR's numbering, so every
/// scalar instruction evaluates through qir/Semantics.h — the definition
/// the QIR interpreter uses too (canonical zero-extension, trap
/// conditions, x86 conversion edge cases) — and compiled code and the
/// analyses feeding code generation can be cross-checked on concrete
/// inputs.
///
/// The known-bits oracle: when EvalOptions::KnownZero is set, every
/// evaluated instruction's low lane is checked against the claimed
/// known-zero mask — a bit that is claimed zero but observed set is a
/// known-bits bug (the claim is what DAG combine uses to delete AND
/// masks, so a false claim is a real miscompile, §V-B3a).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_MLVM_EVAL_H
#define QCF_MLVM_EVAL_H

#include "mlvm/Ir.h"
#include <functional>
#include <string>

namespace qcf::mlvm {

struct EvalResult {
  bool Trapped = false;   ///< Hit a DivByZero/Overflow trap condition.
  uint64_t TrapCode = 0;  ///< rt::TrapCode when Trapped.
  uint64_t Lo = 0, Hi = 0;
  /// Non-empty when evaluation could not complete: fuel exhausted,
  /// unreachable executed, or a known-bits claim was violated (message
  /// starts with "known-bits").
  std::string Error;
};

struct EvalOptions {
  /// Instruction-execution budget; loops beyond it abort with an Error
  /// rather than hanging the checker.
  uint64_t Fuel = 1u << 20;
  /// Known-zero-bits claim to cross-check per evaluated instruction
  /// (injectable so tests can verify the oracle fires on a lying
  /// analysis). Typically wraps mlvm::knownZeroBits.
  std::function<uint64_t(const Value *)> KnownZero;
};

/// Evaluates \p F on \p ArgLanes (one uint64_t per parameter lane,
/// two-lane parameters occupy two consecutive lanes, matching the
/// runtime ABI). Runtime calls are dispatched for real.
EvalResult evalFunction(const MFunction &F, const uint64_t *ArgLanes,
                        size_t NumArgLanes, const EvalOptions &Opts = {});

} // namespace qcf::mlvm

#endif // QCF_MLVM_EVAL_H
