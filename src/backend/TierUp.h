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
/// A TierUp is the whole state of one submitted compile: the service's
/// queue holds it with the job, the worker moves it Queued -> Running and
/// installs the result itself, and waiters sleep on its one condvar.
///
/// Memory ordering: settle() pins the landed module in an owned shared_ptr
/// strictly before the release store that makes installed() non-null, and
/// that store comes before the one that ends pending(), so a reader's
/// acquire load observes a fully owned module that lives as long as this
/// object. The pending state ends exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_TIERUP_H
#define QCF_BACKEND_TIERUP_H

#include "backend/CompileService.h"
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace qcf::backend {

/// A pending optimizing compile and the one-shot install of its result.
/// Thread-safe; see the file comment for the ordering it guarantees.
class TierUp {
public:
  /// How often a wait with a token rechecks it. A token's deadline wakes
  /// the wait on time; this tick bounds how late it sees an explicit
  /// cancel(), which notifies nobody.
  static constexpr std::chrono::milliseconds CancelTick{2};

  /// A pending handle. It ends when the compile submitted with it lands
  /// or is cancelled, or when settle() ends it; it may be shared before
  /// its submit.
  TierUp() = default;

  TierUp(const TierUp &) = delete;
  TierUp &operator=(const TierUp &) = delete;

  /// Blocks until the pending state ends. A fired \p Cancel ends the wait
  /// but not the job: other holders may rely on it. \returns installed().
  CompiledModule *wait(const qcf::CancelToken *Cancel = nullptr);

  /// Cancels the compile if it has not started, else waits it out. On
  /// return no worker runs the job. A submitter whose module or back-end
  /// is borrowed must call this before freeing them. A cancelled job
  /// leaves the service's accounting (tenant share, drain(),
  /// JobsCancelled) at once; only its queue slot waits for a worker's pop.
  void finish();

  /// Ends the pending state, installing \p M when it is non-null. Called
  /// by the worker with the job's result, and by a miss that never
  /// submits. Once ended, later calls do nothing.
  void settle(std::shared_ptr<CompiledModule> M);

  /// The installed module, or null. Lock-free.
  CompiledModule *installed() const {
    return Installed.load(std::memory_order_acquire);
  }
  /// True until the compile has landed or was cancelled. Lock-free.
  bool pending() const {
    return St.load(std::memory_order_acquire) != State::Ended;
  }

private:
  friend class CompileService;
  enum class State : uint8_t { Queued, Running, Ended };

  /// The worker's claim, Queued -> Running. \returns false if the handle
  /// already ended (cancelled or settled): the job must not run.
  bool run() {
    State Expected = State::Queued;
    return St.compare_exchange_strong(Expected, State::Running,
                                      std::memory_order_acq_rel);
  }

  std::atomic<CompiledModule *> Installed{nullptr};
  std::atomic<State> St{State::Queued};
  std::mutex Mutex; ///< Guards Keeper; the pending state ends under it.
  std::condition_variable Ended; ///< The pending state ended.
  std::shared_ptr<CompiledModule> Keeper; ///< Owns *Installed.
  /// The service that queued this handle's job and the job's fairness
  /// key, for finish() to end its accounting. Set by a submit that queues
  /// the job; null otherwise.
  CompileService *Svc = nullptr;
  std::string Key;
};

/// Fast now, optimized later: submits the compile of \p M with \p Opt to
/// \p Svc (with \p Owner, see CompileService::submit), then compiles \p M
/// with \p Fast on the calling thread. The job keeps \p Opts' metrics registry, verification,
/// allocation mode, fairness key and fingerprint, not its cancel token or
/// trace consumers: it may outlive the query. \p Up, when given, is a
/// handle that callers racing this one already share: the job reports to
/// it, and a refused submit leaves it to the caller to settle.
/// \returns the fast module with CompiledModule::Optimized set, or null if
/// the service refused the job (the caller decides what that means).
std::unique_ptr<CompiledModule>
compileTiered(const qir::Module &M, Backend &Fast, Backend &Opt,
              CompileService &Svc, const CompileOptions &Opts,
              std::shared_ptr<void> Owner = nullptr,
              std::shared_ptr<TierUp> Up = nullptr);

} // namespace qcf::backend

#endif // QCF_BACKEND_TIERUP_H
