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

AdaptiveModule::~AdaptiveModule() {
  // A pending optimizing compile references our module; it must not
  // outlive us. Cancel it if it has not started, otherwise wait it out.
  if (HasPending.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!PendingTicket.cancel())
      PendingTicket.wait();
  }
}

void *AdaptiveModule::entry(const std::string &Name) {
  // Lock-free fast path: after the swap, reads go straight to the
  // optimized tier.
  if (CompiledModule *P = Promoted.load(std::memory_order_acquire)) {
    if (void *E = P->entry(Name))
      return E;
    return Fast->entry(Name);
  }
  if (HasPending.load(std::memory_order_acquire)) {
    pollPromotion();
    if (CompiledModule *P = Promoted.load(std::memory_order_acquire))
      if (void *E = P->entry(Name))
        return E;
  }
  return Fast->entry(Name);
}

bool AdaptiveModule::installPromotedLocked(
    std::shared_ptr<CompiledModule> Opt) {
  if (!Opt)
    return false;
  PromotedKeeper = std::move(Opt);
  // Entry-pointer swap: publish after ownership is pinned; entry()'s
  // acquire load pairs with this release store.
  Promoted.store(PromotedKeeper.get(), std::memory_order_release);
  HasPending.store(false, std::memory_order_release);
  PendingTicket = CompileTicket();
  // Promotion observability: how often tiers swap, and how long a
  // function stays on the fast tier after the heuristic fires.
  Reg->counter("adaptive.promotions").inc();
  if (PromoteSubmitNs)
    Reg->histogram("adaptive.promote.ns").observe(nowNs() - PromoteSubmitNs);
  PromoteSubmitNs = 0;
  return true;
}

bool AdaptiveModule::pollPromotion() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!HasPending.load(std::memory_order_acquire))
    return false;
  if (std::shared_ptr<CompiledModule> Opt = PendingTicket.poll())
    return installPromotedLocked(std::move(Opt));
  if (PendingTicket.done()) {
    // Cancelled (service shut down): give up on this promotion.
    HasPending.store(false, std::memory_order_release);
    PendingTicket = CompileTicket();
  }
  return false;
}

void AdaptiveModule::waitForPromotion() {
  if (!HasPending.load(std::memory_order_acquire))
    return;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!HasPending.load(std::memory_order_acquire))
    return;
  installPromotedLocked(PendingTicket.wait());
  HasPending.store(false, std::memory_order_release);
}

CompileTicket AdaptiveModule::requestPromotion(CompileService *Svc) {
  if (isPromoted())
    return CompileTicket();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (isPromoted())
    return CompileTicket();
  if (HasPending.load(std::memory_order_acquire))
    return PendingTicket;
  CompileService *Target = Service ? Service : Svc;
  if (!Target)
    return CompileTicket();
  OptBackend = std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::opt());
  PromoteSubmitNs = nowNs();
  PendingTicket =
      Target->submit(M, *OptBackend, CompilePriority::Background).Ticket;
  if (!PendingTicket.valid()) {
    // Rejected (bounded queue full): promotion stays speculative — drop
    // the attempt; a later noteExecution() threshold crossing retries.
    OptBackend.reset();
    return CompileTicket();
  }
  HasPending.store(true, std::memory_order_release);
  return PendingTicket;
}

CompileTicket AdaptiveModule::promotionTicket() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!HasPending.load(std::memory_order_acquire))
    return CompileTicket();
  return PendingTicket;
}

bool AdaptiveModule::noteExecution(const std::string &Name) {
  if (isPromoted())
    return false;
  if (HasPending.load(std::memory_order_acquire))
    return pollPromotion();

  std::unique_lock<std::mutex> Lock(Mutex);
  // Another thread may have crossed the threshold while this one waited
  // for the lock. Submitting again would replace OptBackend (which its
  // queued or running job still references) and PendingTicket.
  if (isPromoted())
    return false;
  if (HasPending.load(std::memory_order_acquire)) {
    Lock.unlock();
    return pollPromotion();
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
    if (Service) {
      // Non-blocking promotion: the optimizing compile runs on a service
      // worker; callers keep executing the fast tier until the ticket
      // completes and entry() swaps tiers.
      OptBackend = std::make_unique<mlvm::MlvmBackend>(mlvm::MlvmOptions::opt());
      PromoteSubmitNs = nowNs();
      PendingTicket =
          Service->submit(M, *OptBackend, CompilePriority::Background).Ticket;
      if (!PendingTicket.valid()) {
        // Rejected (bounded queue full): drop the speculative promotion;
        // a later threshold crossing retries.
        OptBackend.reset();
        return false;
      }
      HasPending.store(true, std::memory_order_release);
      Lock.unlock();
      // The degraded (post-shutdown) service completes synchronously; in
      // that case install right away instead of waiting for a poll.
      return pollPromotion();
    }
    mlvm::MlvmBackend Opt(mlvm::MlvmOptions::opt());
    PromoteSubmitNs = nowNs();
    return installPromotedLocked(Opt.compile(M));
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
