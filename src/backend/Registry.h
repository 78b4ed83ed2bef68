//===- backend/Registry.h - Back-end registry -------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of every QCF back-end by name. The paper's adaptive mode
/// (§III-C) is not a back-end here: db::executeQuery's
/// ExecOptions::AdaptiveExec starts each pipeline on a fast tier and swaps
/// it to the optimized one at a morsel boundary (DESIGN.md "Mid-query tier
/// swap").
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

} // namespace qcf::backend

#endif // QCF_BACKEND_REGISTRY_H
