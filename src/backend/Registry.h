//===- backend/Registry.h - Back-end registry -------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of every QCF back-end by name. The paper's adaptive mode
/// (§III-C) is not a back-end here: backend::compileTiered (TierUp.h)
/// starts a query on createFastTier's pick and the executor swaps it to
/// the optimized module at a morsel boundary (DESIGN.md "Fast now,
/// optimized later").
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_REGISTRY_H
#define QCF_BACKEND_REGISTRY_H

#include "backend/Backend.h"
#include <vector>

namespace qcf::backend {

/// Creates a back-end by one of the names allBackendNames() returns.
/// \returns nullptr for any other name.
std::unique_ptr<Backend> createBackend(const std::string &Name);

/// All Table III back-end names, in the paper's order.
std::vector<std::string> allBackendNames();

/// The tier a query starts on while back-end \p Optimized compiles in the
/// background: Stencil, the cheapest native tier. \returns null when
/// \p Optimized is no dearer (Stencil itself, or the Interpreter).
std::unique_ptr<Backend> createFastTier(const std::string &Optimized);

} // namespace qcf::backend

#endif // QCF_BACKEND_REGISTRY_H
