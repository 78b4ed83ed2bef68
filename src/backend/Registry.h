//===- backend/Registry.h - Back-end registry and adaptive mode -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Construction of every QCF back-end by name, plus the adaptive back-end
/// (§III-C): compilation starts with low-latency DirectEmit; once a
/// function has executed a few times, a simple code-size heuristic decides
/// whether to recompile with MLVM-optimized, after which subsequent
/// executions use the optimized code. With a CompileService attached, the
/// optimizing recompile runs on a service worker at Background priority
/// and the module's TierUp (backend/TierUp.h) installs it when it
/// completes — callers never stall on MLVM.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_REGISTRY_H
#define QCF_BACKEND_REGISTRY_H

#include "backend/Backend.h"
#include "backend/CompileService.h"
#include "backend/TierUp.h"
#include <mutex>
#include <vector>

namespace qcf::backend {

/// Creates a back-end by its Table III name: "Interpreter", "DirectEmit",
/// "Craneline", "MLVM-cheap", "MLVM-opt", "GCC", "Adaptive". \returns
/// nullptr for unknown names.
std::unique_ptr<Backend> createBackend(const std::string &Name);

/// All Table III back-end names, in the paper's order.
std::vector<std::string> allBackendNames();

/// The adaptive back-end. compile() uses DirectEmit; callers then invoke
/// AdaptiveModule::noteExecution() after executions, which recompiles
/// with MLVM-opt when the size heuristic deems optimization beneficial.
class AdaptiveBackend : public Backend {
public:
  AdaptiveBackend() = default;
  explicit AdaptiveBackend(CompileService *Service) : Service(Service) {}

  using Backend::compile;

  std::string name() const override { return "Adaptive"; }
  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &Opts) override;

  /// Size threshold above which optimized recompilation pays off.
  uint32_t PromoteSizeThreshold = 48;
  /// Executions before promotion is considered.
  uint32_t PromoteAfterRuns = 3;
  /// When non-null, promotions are submitted here (Background priority)
  /// instead of recompiling on the calling thread. Must outlive every
  /// module this back-end compiles.
  CompileService *Service = nullptr;
};

/// The module wrapper the adaptive back-end hands out; entry() returns the
/// current tier's code. It keeps only the promotion policy (run count and
/// code size); the pending recompile and the tier swap are a TierUp, so
/// entry() is a lock-free read of the installed tier with a fallback to
/// the fast tier.
class AdaptiveModule : public CompiledModule {
public:
  /// \p Reg receives promotion metrics (count + submit-to-install
  /// latency); null means the process-wide registry.
  AdaptiveModule(const qir::Module &M, std::unique_ptr<CompiledModule> Fast,
                 uint32_t SizeThreshold, uint32_t RunsThreshold,
                 CompileService *Service = nullptr,
                 obs::MetricsRegistry *Reg = nullptr);

  void *entry(const std::string &Name) override;

  /// Records one execution of \p Name. Without a service this recompiles
  /// with the optimizing tier on the calling thread when the heuristic
  /// fires; with one it submits the recompile and returns immediately,
  /// the swap happening when the ticket completes. \returns true if the
  /// optimized tier was installed by this call.
  bool noteExecution(const std::string &Name);

  bool isPromoted() const { return Opt.installed() != nullptr; }
  /// True while an optimizing recompile is queued or running.
  bool promotionPending() const { return Opt.pending(); }
  /// Blocks until an in-flight promotion (if any) has been installed.
  void waitForPromotion() { promoted(Opt.wait()); }

private:
  /// Records the promotion metrics when \p ByThisCall. \returns it.
  bool promoted(bool ByThisCall);

  const qir::Module &M;
  std::unique_ptr<CompiledModule> Fast;
  uint32_t SizeThreshold, RunsThreshold;
  CompileService *Service;
  obs::MetricsRegistry *Reg;

  std::mutex Mutex; ///< Guards the promotion decision and the state below.
  uint64_t PromoteSubmitNs = 0; ///< nowNs() when the recompile was queued.
  std::unique_ptr<Backend> OptBackend; ///< Alive while a job may run.
  std::vector<std::pair<std::string, uint32_t>> RunCounts;
  /// Declared last: its destructor cancels or waits out the pending job,
  /// which references M and OptBackend.
  TierUp Opt;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_REGISTRY_H
