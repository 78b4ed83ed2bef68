//===- serve/Session.h - Serving-layer session object -----------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One client session of the serving layer. Lifecycle state machine
/// (DESIGN.md "Serving layer"):
///
///       openSession            execute                 query ends
///   --> Idle ----------------> Active ---------------> Idle
///        |                       |                       ^
///        | evict (idle timeout)  | closeSession:         | (no close
///        | or closeSession       |   CloseRequested=1    |  requested)
///        v                       |   Ctl.cancel()        |
///      Closed <------------------+-- epilogue completes -+
///
/// All transitions are CAS on the atomic state, so eviction, close, and
/// query start race safely: exactly one side wins Idle. A session that
/// is Active cannot be evicted — close of an Active session is deferred
/// to the executing thread's epilogue, with the session's CancelToken
/// fired so the query unwinds within one morsel / wait tick and its
/// in-flight compile tickets are cancelled rather than leaked.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_SESSION_H
#define QCF_SERVE_SESSION_H

#include "support/Cancel.h"
#include <atomic>
#include <cstdint>
#include <string>

namespace qcf::serve {

struct TenantState;

class Session {
public:
  enum class State : uint8_t { Idle, Active, Closed };

  Session(uint64_t Id, std::string Tenant, TenantState &Account,
          uint64_t NowNs)
      : Id(Id), Tenant(std::move(Tenant)), Account(Account),
        LastActiveNs(NowNs) {}

  Session(const Session &) = delete;
  Session &operator=(const Session &) = delete;

  const uint64_t Id;
  const std::string Tenant;
  TenantState &Account; ///< Found at open; a server keeps every tenant.

  /// CAS-owned lifecycle state; see file comment.
  std::atomic<State> St{State::Idle};

  /// Set by closeSession() on an Active session; the query epilogue
  /// completes the close instead of returning to Idle.
  std::atomic<bool> CloseRequested{false};

  /// nowNs() of the last transition out of Active (or of creation);
  /// the idle-eviction sweep compares against this.
  std::atomic<uint64_t> LastActiveNs;

  std::atomic<uint64_t> Queries{0}; ///< Completed executes (any outcome).

  /// The session's cancellation + deadline token. reset() between
  /// queries by the executing thread (safe: only one query is in flight
  /// per session); fired by close/evict/deadline.
  qcf::CancelToken Ctl;
};

} // namespace qcf::serve

#endif // QCF_SERVE_SESSION_H
