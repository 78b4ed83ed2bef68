//===- backend/TierUp.h - One pending tier promotion ------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one tier-up primitive (§III-C's adaptive execution): a pending
/// compile and the one-shot install of its result. Its one user is the
/// executor's per-pipeline OsrDriver (db/Executor.cpp, AdaptiveExec),
/// which decides *when* to publish the installed optimized code into its
/// TierCell: poll at every morsel pickup, or block at a forced cutover
/// morsel.
///
/// Memory ordering: poll()/wait() pin the landed module in an owned
/// shared_ptr strictly before the release store that makes installed()
/// non-null, so a reader's acquire load observes a fully owned module
/// that lives as long as this object. The install happens at most once.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_TIERUP_H
#define QCF_BACKEND_TIERUP_H

#include "backend/CompileService.h"
#include <atomic>
#include <mutex>

namespace qcf::backend {

/// A pending optimizing compile and the one-shot install of its result.
/// Thread-safe; see the file comment for the ordering it guarantees.
class TierUp {
public:
  TierUp() = default;
  /// Cancels the pending job if it has not started, otherwise waits it
  /// out: the job references a module and back-end its submitter keeps
  /// alive only as long as this object.
  ~TierUp();

  TierUp(const TierUp &) = delete;
  TierUp &operator=(const TierUp &) = delete;

  /// Makes \p Ticket the pending compile; an invalid ticket (a rejected
  /// submit) leaves nothing pending. Only valid while nothing is pending
  /// or installed.
  void start(CompileTicket Ticket);

  /// Installs the pending result if it has landed. Never blocks: while
  /// another thread probes or waits, this returns false at once.
  /// \returns true if this call performed the install.
  bool poll();

  /// Blocks until the pending compile is terminal and installs its
  /// result; \p Cancel makes the wait cancellable (see
  /// CompileTicket::wait). \returns true if this call installed.
  bool wait(const qcf::CancelToken *Cancel = nullptr);

  /// The installed module, or null. Lock-free.
  CompiledModule *installed() const {
    return Installed.load(std::memory_order_acquire);
  }
  /// True while a compile is queued or running, or has landed but not
  /// yet been installed by poll()/wait().
  bool pending() const { return Pending.load(std::memory_order_acquire); }

private:
  /// Takes \p M (installs it when non-null) and ends the pending state.
  /// Caller holds Mutex.
  bool settleLocked(std::shared_ptr<CompiledModule> M);

  std::atomic<CompiledModule *> Installed{nullptr};
  std::atomic<bool> Pending{false};
  std::mutex Mutex; ///< Guards Ticket and Keeper.
  CompileTicket Ticket;
  std::shared_ptr<CompiledModule> Keeper; ///< Owns *Installed.
};

} // namespace qcf::backend

#endif // QCF_BACKEND_TIERUP_H
