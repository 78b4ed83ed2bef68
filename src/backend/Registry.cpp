//===- backend/Registry.cpp - Back-end registry ----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "craneline/Craneline.h"
#include "direct/DirectEmit.h"
#include "gccjit/Gccjit.h"
#include "interp/Interp.h"
#include "mlvm/Mlvm.h"
#include "stencil/Stencil.h"

using namespace qcf;
using namespace qcf::backend;

std::unique_ptr<Backend> backend::createBackend(const std::string &Name) {
  if (Name == "Interpreter")
    return std::make_unique<interp::InterpBackend>();
  if (Name == "DirectEmit")
    return std::make_unique<direct::DirectBackend>();
  if (Name == "Stencil")
    return std::make_unique<stencil::StencilBackend>();
  if (Name == "Craneline")
    return std::make_unique<craneline::CranelineBackend>();
  if (Name == "MLVM-cheap")
    return std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::cheap());
  if (Name == "MLVM-opt")
    return std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::opt());
  if (Name == "GCC")
    return std::make_unique<gccjit::GccBackend>();
  if (Name == "Adaptive")
    return std::make_unique<AdaptiveBackend>();
  return nullptr;
}

std::vector<std::string> backend::allBackendNames() {
  return {"Interpreter", "Stencil",  "DirectEmit", "Craneline",
          "MLVM-cheap",  "MLVM-opt", "GCC"};
}

AdaptiveModule::AdaptiveModule(const qir::Module &M,
                               std::unique_ptr<CompiledModule> Fast,
                               uint32_t SizeThreshold, uint32_t RunsThreshold,
                               CompileService *Service,
                               obs::MetricsRegistry *Reg)
    : M(M), Fast(std::move(Fast)), SizeThreshold(SizeThreshold),
      RunsThreshold(RunsThreshold), Service(Service),
      Reg(Reg ? Reg : &obs::MetricsRegistry::global()) {
  for (const auto &F : M.functions())
    RunCounts.emplace_back(F->name(), 0);
}

void *AdaptiveModule::entry(const std::string &Name) {
  // Lock-free fast path: after the swap, reads go straight to the
  // optimized tier.
  CompiledModule *P = Opt.installed();
  if (!P && promoted(Opt.poll()))
    P = Opt.installed();
  if (P)
    if (void *E = P->entry(Name))
      return E;
  return Fast->entry(Name);
}

bool AdaptiveModule::promoted(bool ByThisCall) {
  // Promotion observability: how often tiers swap, and how long a
  // function stays on the fast tier after the heuristic fires.
  // PromoteSubmitNs was written before the TierUp started (or installed),
  // which happens-before this install.
  if (ByThisCall) {
    Reg->counter("adaptive.promotions").inc();
    Reg->histogram("adaptive.promote.ns").observe(nowNs() - PromoteSubmitNs);
  }
  return ByThisCall;
}

bool AdaptiveModule::noteExecution(const std::string &Name) {
  if (isPromoted())
    return false;
  if (promotionPending())
    return promoted(Opt.poll());

  std::unique_lock<std::mutex> Lock(Mutex);
  // Another thread may have crossed the threshold while this one waited
  // for the lock. Submitting again would replace OptBackend, which its
  // queued or running job still references.
  if (isPromoted())
    return false;
  if (promotionPending()) {
    Lock.unlock();
    return promoted(Opt.poll());
  }
  for (auto &[N, Count] : RunCounts) {
    if (N != Name)
      continue;
    if (++Count < RunsThreshold)
      return false;
    // Size/benefit heuristic (§III-C): recompile large functions only.
    const qir::Function *F = M.functionByName(Name);
    if (!F || F->sizeHeuristic() < SizeThreshold)
      return false;
    OptBackend = std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::opt());
    PromoteSubmitNs = nowNs();
    if (!Service)
      return promoted(Opt.install(OptBackend->compile(M)));
    // Non-blocking promotion: the optimizing compile runs on a service
    // worker; callers keep executing the fast tier until it lands.
    CompileTicket T =
        Service->submit(M, *OptBackend, CompilePriority::Background).Ticket;
    if (!T.valid()) {
      // Rejected (bounded queue full): drop the speculative promotion;
      // a later threshold crossing retries.
      OptBackend.reset();
      return false;
    }
    Opt.start(std::move(T));
    Lock.unlock();
    // The degraded (post-shutdown) service completes synchronously; in
    // that case install right away instead of waiting for a poll.
    return promoted(Opt.poll());
  }
  return false;
}

std::unique_ptr<CompiledModule>
AdaptiveBackend::compile(const qir::Module &M, const CompileOptions &Opts) {
  // The fast-tier compile runs under the caller's full ObsContext (its
  // phases appear as compile.DirectEmit.*); the Adaptive wrapper itself
  // adds no phases, so no CompileObs of its own — only promotion metrics,
  // which AdaptiveModule reports as they happen.
  direct::DirectBackend Fast;
  return std::make_unique<AdaptiveModule>(M, Fast.compile(M, Opts),
                                          PromoteSizeThreshold,
                                          PromoteAfterRuns, Service,
                                          Opts.Obs.Metrics);
}
