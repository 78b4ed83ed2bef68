//===- backend/TierUp.cpp - One pending tier promotion ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/TierUp.h"
#include <cassert>

using namespace qcf;
using namespace qcf::backend;

TierUp::~TierUp() {
  if (!Ticket.cancel())
    Ticket.wait();
}

void TierUp::start(CompileTicket T) {
  std::lock_guard<std::mutex> Lock(Mutex);
  assert(!pending() && !installed() && "tier-up already started");
  Ticket = std::move(T);
  Pending.store(Ticket.valid(), std::memory_order_release);
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
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!pending())
    return false;
  return settleLocked(Ticket.wait(Cancel));
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
