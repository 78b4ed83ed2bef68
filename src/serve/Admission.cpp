//===- serve/Admission.cpp - Bounded admission control --------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "serve/Admission.h"
#include "support/TimeTrace.h"
#include <algorithm>
#include <chrono>

namespace qcf::serve {

const char *admitName(Admit A) {
  switch (A) {
  case Admit::Ok:
    return "ok";
  case Admit::QueueFull:
    return "queue-full";
  case Admit::Shed:
    return "shed";
  case Admit::SessionQuota:
    return "session-quota";
  case Admit::CompileBytesQuota:
    return "compile-bytes-quota";
  case Admit::CompileQueueQuota:
    return "compile-queue-quota";
  case Admit::UnknownTenant:
    return "unknown-tenant";
  case Admit::UnknownSession:
    return "unknown-session";
  case Admit::SessionBusy:
    return "session-busy";
  case Admit::ServerStopped:
    return "server-stopped";
  case Admit::Cancelled:
    return "cancelled";
  }
  return "?";
}

namespace {
obs::MetricsRegistry &resolveRegistry(obs::MetricsRegistry *Reg) {
  return Reg ? *Reg : obs::MetricsRegistry::global();
}
} // namespace

AdmissionGate::AdmissionGate(const Config &Cfg, obs::MetricsRegistry *Reg,
                             const std::string &Prefix)
    : Cfg(Cfg), Admitted(resolveRegistry(Reg).counter(Prefix + "admitted")),
      RejectedFull(resolveRegistry(Reg).counter(Prefix + "rejected.full")),
      RejectedShed(resolveRegistry(Reg).counter(Prefix + "rejected.shed")),
      CancelledC(resolveRegistry(Reg).counter(Prefix + "cancelled")),
      RunningG(resolveRegistry(Reg).gauge(Prefix + "running")),
      WaitingG(resolveRegistry(Reg).gauge(Prefix + "waiting")),
      WaitNs(resolveRegistry(Reg).histogram(Prefix + "wait_ns")) {}

uint64_t AdmissionGate::retryHintNs() const {
  // One EWMA slot-hold per queued-ahead request, divided over the slots
  // that drain them; floor of 1ms so clients never spin. Before the
  // first leave(HoldNs) the EWMA has no samples, so fall back to the
  // configured cold-start hold estimate instead of the spin floor.
  uint64_t Queued = High.size() + Low.size() + 1;
  uint64_t Hold = EwmaHoldNs ? EwmaHoldNs
                             : std::max<uint64_t>(Cfg.ColdHoldNs, 1'000'000);
  return std::max<uint64_t>(Queued * Hold / std::max(1u, Cfg.Slots),
                            1'000'000);
}

AdmissionGate::Decision AdmissionGate::enter(bool LowPriority,
                                             const qcf::CancelToken *Ct) {
  uint64_t StartNs = nowNs();
  std::unique_lock<std::mutex> Lock(Mutex);
  if (Closed)
    return {Admit::ServerStopped, 0};

  // Fast path: a free slot and no one queued ahead.
  if (Running < Cfg.Slots && High.empty() && (LowPriority ? Low.empty() : true)) {
    ++Running;
    RunningG.set(Running);
    Admitted.inc();
    WaitNs.observe(nowNs() - StartNs);
    return {Admit::Ok, 0};
  }

  if (High.size() + Low.size() >= Cfg.MaxWaiters) {
    // Wait queue full. A normal-priority arrival may shed the newest
    // low-priority waiter to make room; otherwise the arrival itself is
    // rejected — never block the caller on an unbounded queue.
    if (!LowPriority && !Low.empty()) {
      std::shared_ptr<Waiter> Victim = Low.back();
      Low.pop_back();
      Victim->Decided = true;
      Victim->Outcome = Admit::Shed;
      RejectedShed.inc();
      Cv.notify_all();
    } else {
      RejectedFull.inc();
      return {Admit::QueueFull, retryHintNs()};
    }
  }

  auto W = std::make_shared<Waiter>();
  W->Low = LowPriority;
  (LowPriority ? Low : High).push_back(W);
  WaitingG.set(int64_t(High.size() + Low.size()));

  // Wait in ~2ms ticks so a fired CancelToken is observed promptly even
  // though promoters only signal on leave()/close().
  while (!W->Decided) {
    if (Ct && Ct->stopped()) {
      auto &Q = W->Low ? Low : High;
      Q.erase(std::find(Q.begin(), Q.end(), W));
      WaitingG.set(int64_t(High.size() + Low.size()));
      CancelledC.inc();
      return {Admit::Cancelled, 0};
    }
    Cv.wait_for(Lock, std::chrono::milliseconds(2));
  }
  WaitingG.set(int64_t(High.size() + Low.size()));
  if (W->Outcome == Admit::Ok) {
    // Promoter already took the slot on our behalf (Running includes us).
    Admitted.inc();
    WaitNs.observe(nowNs() - StartNs);
    return {Admit::Ok, 0};
  }
  return {W->Outcome, W->Outcome == Admit::Shed ? retryHintNs() : 0};
}

void AdmissionGate::leave(uint64_t HoldNs) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Running)
    --Running;
  if (HoldNs)
    EwmaHoldNs = EwmaHoldNs ? (EwmaHoldNs * 7 + HoldNs) / 8 : HoldNs;
  // Promote high priority first, FIFO within a class; the promoted
  // waiter's slot is claimed here so a racing enter() cannot steal it.
  if (!Closed && Running < Cfg.Slots) {
    std::deque<std::shared_ptr<Waiter>> &Q = !High.empty() ? High : Low;
    if (!Q.empty()) {
      std::shared_ptr<Waiter> W = Q.front();
      Q.pop_front();
      W->Decided = true;
      W->Outcome = Admit::Ok;
      ++Running;
      Cv.notify_all();
    }
  }
  RunningG.set(Running);
}

void AdmissionGate::close() {
  std::lock_guard<std::mutex> Lock(Mutex);
  Closed = true;
  for (auto *Q : {&High, &Low}) {
    for (const std::shared_ptr<Waiter> &W : *Q) {
      W->Decided = true;
      W->Outcome = Admit::ServerStopped;
    }
    Q->clear();
  }
  WaitingG.set(0);
  Cv.notify_all();
}

unsigned AdmissionGate::running() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Running;
}

size_t AdmissionGate::waiting() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return High.size() + Low.size();
}

} // namespace qcf::serve
