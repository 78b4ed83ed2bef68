//===- backend/TierUp.h - Fast now, optimized later -------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tier-up, once (§III-C): compileTiered hands back fast-tier code with a
/// shared TierUp on the optimized compile of the whole module. Its callers
/// are db::executeQuery under AdaptiveExec and CachingBackend's miss path;
/// the executor swaps every pipeline of such a module to the installed
/// one at a morsel boundary, so served queries swap mid-flight too.
///
/// Memory ordering: poll()/wait()/settle() pin the landed module in an
/// owned shared_ptr strictly before the release store that makes
/// installed() non-null, so a reader's acquire load observes a fully owned
/// module that lives as long as this object. The install happens at most
/// once.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_TIERUP_H
#define QCF_BACKEND_TIERUP_H

#include "backend/CompileService.h"
#include <atomic>
#include <condition_variable>
#include <mutex>

namespace qcf::backend {

/// A pending optimizing compile and the one-shot install of its result.
/// Thread-safe; see the file comment for the ordering it guarantees.
class TierUp {
public:
  /// Makes \p T the pending compile; an invalid ticket (a rejected
  /// submit) leaves nothing pending. \p O, when set, is the owner the job
  /// was submitted with.
  explicit TierUp(CompileTicket T, std::shared_ptr<void> O = nullptr)
      : Pending(T.valid()), Ticket(std::move(T)), Owner(std::move(O)) {}
  /// A handle whose compile is not submitted yet. It is pending, and can
  /// be shared, until start() or settle().
  TierUp() : Pending(true) {}
  /// Cancels the pending job if it has not started. A running job is
  /// waited out unless it owns its module and back-end (Owner).
  ~TierUp();

  TierUp(const TierUp &) = delete;
  TierUp &operator=(const TierUp &) = delete;

  /// Installs the pending result if it has landed. Never blocks: while
  /// another thread probes or waits, this returns false at once.
  /// \returns true if this call performed the install.
  bool poll();

  /// Blocks until the pending compile is terminal and installs its
  /// result. A fired \p Cancel ends the wait but not the job: other
  /// holders may rely on it. \returns true if this call installed.
  bool wait(const qcf::CancelToken *Cancel = nullptr);

  /// Cancels the pending compile if it has not started, else waits it out
  /// and installs its result. On return no worker runs the job.
  void finish();

  /// Gives a handle made by TierUp() its submitted compile \p T (valid),
  /// owned by \p O as in the constructor.
  void start(CompileTicket T, std::shared_ptr<void> O);
  /// Ends the pending state of a handle made by TierUp() that will not be
  /// started, installing \p M when it is non-null.
  void settle(std::shared_ptr<CompiledModule> M);

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
  std::mutex Mutex; ///< Guards Ticket, Keeper and Owner.
  std::condition_variable Started; ///< start() or settle() ran.
  CompileTicket Ticket;
  std::shared_ptr<CompiledModule> Keeper; ///< Owns *Installed.
  std::shared_ptr<void> Owner;
};

/// Fast now, optimized later: submits the compile of \p M with \p Opt to
/// \p Svc (with \p Owner, see CompileService::submit), then compiles \p M
/// with \p Fast on the calling thread. The job keeps \p Opts' metrics registry, verification,
/// allocation mode, fairness key and fingerprint, not its cancel token or
/// trace consumers: it may outlive the query. \p Up, when given, is a
/// handle made by TierUp() that callers racing this one already share: the
/// job starts it, and a refused submit leaves it to the caller to settle.
/// \returns the fast module with CompiledModule::Optimized set, or null if
/// the service refused the job (the caller decides what that means).
std::unique_ptr<CompiledModule>
compileTiered(const qir::Module &M, Backend &Fast, Backend &Opt,
              CompileService &Svc, const CompileOptions &Opts,
              std::shared_ptr<void> Owner = nullptr,
              std::shared_ptr<TierUp> Up = nullptr);

} // namespace qcf::backend

#endif // QCF_BACKEND_TIERUP_H
