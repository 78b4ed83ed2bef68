//===- qir/Verify.h - QIR verifier ------------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural and SSA verification of QIR functions. Back-ends may assume a
/// verified function; miscompiled queries must fail loudly in tests rather
/// than silently return wrong rows.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_VERIFY_H
#define QCF_QIR_VERIFY_H

#include "qir/Function.h"
#include <optional>
#include <string>

namespace qcf::qir {

/// Verifies \p F. \returns an error description, or std::nullopt on success.
std::optional<std::string> verify(const Function &F);

/// Verifies all functions of \p M.
std::optional<std::string> verify(const Module &M);

/// verify(M), escalating a failure to reportFatalError naming \p Who (the
/// back-end); the `ir` layer of QCF_VERIFY.
void verifyOrDie(const Module &M, const char *Who);

} // namespace qcf::qir

#endif // QCF_QIR_VERIFY_H
