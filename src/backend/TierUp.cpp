//===- backend/TierUp.cpp - Fast now, optimized later ----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/TierUp.h"
#include <algorithm>

using namespace qcf;
using namespace qcf::backend;

CompiledModule *TierUp::wait(const qcf::CancelToken *Cancel) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto Done = [&] { return !pending(); };
  if (!Cancel)
    Ended.wait(Lock, Done);
  while (!Done() && !Cancel->stopped()) {
    using Clock = std::chrono::steady_clock;
    Clock::time_point Until = Clock::now() + CancelTick;
    if (uint64_t D = Cancel->deadlineNs()) // On the nowNs() clock.
      Until = std::min(Until, Clock::time_point(std::chrono::nanoseconds(D)));
    Ended.wait_until(Lock, Until);
  }
  return installed();
}

void TierUp::finish() {
  // Claiming the queued job keeps every worker off it.
  if (run()) {
    settle(nullptr);
    if (Svc)
      Svc->cancelled(Key);
  } else {
    wait();
  }
}

void TierUp::settle(std::shared_ptr<CompiledModule> M) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (!pending())
      return;
    if (M) {
      Keeper = std::move(M);
      Installed.store(Keeper.get(), std::memory_order_release);
    }
    St.store(State::Ended, std::memory_order_release);
  }
  Ended.notify_all();
}

std::unique_ptr<CompiledModule> backend::compileTiered(
    const qir::Module &M, Backend &Fast, Backend &Opt, CompileService &Svc,
    const CompileOptions &Opts, std::shared_ptr<void> Owner,
    std::shared_ptr<TierUp> Up) {
  CompileOptions JobOpts;
  JobOpts.Obs.Metrics = Opts.Obs.Metrics;
  JobOpts.Verify = Opts.Verify;
  JobOpts.Alloc = Opts.Alloc;
  JobOpts.FairnessKey = Opts.FairnessKey;
  JobOpts.Fingerprint = Opts.Fingerprint;
  if (!Up)
    Up = std::make_shared<TierUp>();
  // Submitted first, so a worker compiles while this thread does.
  if (!Svc.submit(M, Opt, JobOpts, std::move(Owner), Up))
    return nullptr;
  std::unique_ptr<CompiledModule> Code = Fast.compile(M, Opts);
  if (Code)
    Code->Optimized = std::move(Up);
  else
    Up->finish(); // No caller gets the handle to finish it.
  return Code;
}
