//===- backend/TierUp.cpp - Fast now, optimized later ----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/TierUp.h"

using namespace qcf;
using namespace qcf::backend;

TierUp::~TierUp() {
  if (!Ticket.cancel() && !Owner)
    Ticket.wait();
}

bool TierUp::poll() {
  if (!pending())
    return false;
  std::unique_lock<std::mutex> Lock(Mutex, std::try_to_lock);
  if (!Lock.owns_lock() || !pending() || !Ticket.done())
    return false;
  // done() must come first: once the job is terminal, poll() is its result,
  // or null if it was cancelled (shed by the service, or shut down). A
  // compile landing between a null poll() and a later done() would be lost.
  return settleLocked(Ticket.poll());
}

bool TierUp::wait(const qcf::CancelToken *Cancel) {
  if (!pending())
    return false;
  std::unique_lock<std::mutex> Lock(Mutex);
  // Made by TierUp() and not started yet: wait for start() or settle().
  while (pending() && !Ticket.valid()) {
    if (Cancel && Cancel->stopped())
      return false;
    Started.wait_for(Lock, std::chrono::milliseconds(1));
  }
  if (!pending())
    return false;
  while (!Ticket.waitFor(1'000'000))
    if (Cancel && Cancel->stopped())
      return false;
  return settleLocked(Ticket.poll());
}

void TierUp::finish() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (pending())
    settleLocked(Ticket.cancel() ? nullptr : Ticket.wait());
}

void TierUp::start(CompileTicket T, std::shared_ptr<void> O) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Ticket = std::move(T);
    Owner = std::move(O);
  }
  Started.notify_all();
}

void TierUp::settle(std::shared_ptr<CompiledModule> M) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    settleLocked(std::move(M));
  }
  Started.notify_all();
}

bool TierUp::settleLocked(std::shared_ptr<CompiledModule> M) {
  bool Installs = M != nullptr;
  if (Installs) {
    Keeper = std::move(M);
    Installed.store(Keeper.get(), std::memory_order_release);
  }
  Ticket = CompileTicket();
  Pending.store(false, std::memory_order_release);
  return Installs;
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
  // Submitted first, so a worker compiles while this thread does.
  CompileTicket T =
      Svc.submit(M, Opt, CompilePriority::Background, JobOpts, Owner);
  if (!T.valid())
    return nullptr;
  if (!Up)
    Up = std::make_shared<TierUp>();
  Up->start(std::move(T), std::move(Owner));
  std::unique_ptr<CompiledModule> Code = Fast.compile(M, Opts);
  if (Code)
    Code->Optimized = std::move(Up);
  return Code;
}
