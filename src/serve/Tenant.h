//===- serve/Tenant.h - Multi-tenant quota configuration --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quota configuration for one tenant of the serving layer. Quotas bound
/// the three resources a tenant can exhaust: session slots (long-lived
/// state), compile memory (the paper's first-order cost, charged as a
/// fixed reservation per running query), and compile-queue share
/// (CompileService fairness keys). Enforcement points are documented in
/// DESIGN.md "Serving layer"; all of them reject rather than block, so one
/// tenant's storm degrades into *its own* retries or inline compiles.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_TENANT_H
#define QCF_SERVE_TENANT_H

#include <cstdint>

namespace qcf::serve {

/// Per-tenant resource limits; 0 means unlimited.
struct TenantQuota {
  /// Concurrently open sessions. openSession() beyond this rejects with
  /// Admit::SessionQuota.
  uint64_t MaxSessions = 0;

  /// Reserved compile bytes summed over the tenant's running queries.
  /// Each execute() reserves a fixed per-query charge before admission
  /// and releases it when the query ends; exceeding the cap rejects with
  /// Admit::CompileBytesQuota.
  uint64_t MaxCompileBytes = 0;

  /// In-flight compile-service jobs carrying this tenant's fairness key
  /// (CompileService::setKeyQueueShare). Checked both at admission
  /// (Admit::CompileQueueQuota) and inside the service itself, which
  /// refuses the submit (counted in CompileServiceStats::RejectedTenant).
  uint64_t MaxQueuedCompiles = 0;

  /// Background tenants enter the admission gate at low priority: they
  /// queue behind foreground tenants and are the first shed when the
  /// wait queue overflows.
  bool Background = false;
};

} // namespace qcf::serve

#endif // QCF_SERVE_TENANT_H
