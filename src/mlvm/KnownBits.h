//===- mlvm/KnownBits.h - Known-bits analysis over MLVM-IR ------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recursive known-zero-bits analysis used by the SelectionDAG
/// combiner (§V-B3a counts this recursion as a major DAG cost), factored
/// out of the selector so the expensive-checks build can cross-check its
/// claims against concrete evaluation (the known-bits differential
/// oracle in mlvm/Eval.h).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_MLVM_KNOWNBITS_H
#define QCF_MLVM_KNOWNBITS_H

#include "mlvm/Ir.h"

namespace qcf::mlvm {

/// Returns a mask of bits of \p V's low 64-bit lane that are provably
/// zero (like LLVM's computeKnownBits, recursion capped at depth 6).
/// Every recursive query increments \p *QueryCount when non-null, which
/// is how IselStats::KnownBitsQueries is maintained.
uint64_t knownZeroBits(const Value *V, unsigned Depth,
                       uint64_t *QueryCount = nullptr);

} // namespace qcf::mlvm

#endif // QCF_MLVM_KNOWNBITS_H
