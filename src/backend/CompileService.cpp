//===- backend/CompileService.cpp - Async compilation service --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/CompileService.h"
#include "support/TimeTrace.h"
#include <atomic>
#include <chrono>

namespace qcf::backend {

using detail::CompileJob;

namespace {
/// Instance counter behind metricsPrefix() — "svc.<n>." names stay unique
/// for the life of the process, so several services can share a registry.
std::atomic<uint64_t> NextServiceId{1};
} // namespace

bool CompileTicket::done() const {
  if (!Job)
    return false;
  std::lock_guard<std::mutex> Lock(Job->Mutex);
  return Job->St == CompileJob::State::Done ||
         Job->St == CompileJob::State::Cancelled;
}

std::shared_ptr<CompiledModule> CompileTicket::poll() const {
  if (!Job)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Job->Mutex);
  return Job->St == CompileJob::State::Done ? Job->Result : nullptr;
}

std::shared_ptr<CompiledModule>
CompileTicket::wait(const qcf::CancelToken *Cancel) {
  if (!Job)
    return nullptr;
  if (Cancel)
    while (!waitFor(1'000'000))
      if (Cancel->stopped()) {
        cancel();
        break;
      }
  std::unique_lock<std::mutex> Lock(Job->Mutex);
  Job->Cv.wait(Lock, [&] {
    return Job->St == CompileJob::State::Done ||
           Job->St == CompileJob::State::Cancelled;
  });
  return Job->Result;
}

bool CompileTicket::waitFor(uint64_t Ns) const {
  std::unique_lock<std::mutex> Lock(Job->Mutex);
  return Job->Cv.wait_for(Lock, std::chrono::nanoseconds(Ns), [&] {
    return Job->St == CompileJob::State::Done ||
           Job->St == CompileJob::State::Cancelled;
  });
}

bool CompileTicket::cancel() {
  if (!Job)
    return false;
  std::lock_guard<std::mutex> Lock(Job->Mutex);
  if (Job->St != CompileJob::State::Queued)
    return Job->St == CompileJob::State::Cancelled;
  Job->St = CompileJob::State::Cancelled;
  Job->Cv.notify_all();
  return true;
}

CompileService::CompileService(unsigned NumWorkers, size_t QueueCapacity,
                               obs::MetricsRegistry *Reg)
    : Queue(QueueCapacity),
      Reg(Reg ? Reg : &obs::MetricsRegistry::global()),
      Prefix("svc." +
             std::to_string(
                 NextServiceId.fetch_add(1, std::memory_order_relaxed)) +
             "."),
      JobsQueued(this->Reg->counter(Prefix + "jobs_queued")),
      JobsCompleted(this->Reg->counter(Prefix + "jobs_completed")),
      JobsCancelled(this->Reg->counter(Prefix + "jobs_cancelled")),
      QueueDepth(this->Reg->gauge(Prefix + "queue.depth")),
      QueueCapacityG(this->Reg->gauge(Prefix + "queue.capacity")),
      RejectedFg(this->Reg->counter(Prefix + "queue.rejected.foreground")),
      RejectedBg(this->Reg->counter(Prefix + "queue.rejected.background")),
      RejectedTenant(this->Reg->counter(Prefix + "queue.rejected.tenant")),
      ShedC(this->Reg->counter(Prefix + "queue.shed")) {
  QueueCapacityG.set(static_cast<int64_t>(QueueCapacity));
  if (NumWorkers == 0)
    NumWorkers = 1;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService() { shutdown(); }

void CompileService::setKeyQueueShare(const std::string &Key,
                                      uint64_t MaxInFlight) {
  std::lock_guard<std::mutex> Lock(LifecycleMutex);
  if (MaxInFlight)
    KeyShares[Key] = MaxInFlight;
  else
    KeyShares.erase(Key);
}

uint64_t CompileService::keyInFlight(const std::string &Key) const {
  std::lock_guard<std::mutex> Lock(LifecycleMutex);
  auto It = KeyInFlightCount.find(Key);
  return It == KeyInFlightCount.end() ? 0 : It->second;
}

CompileTicket CompileService::submit(const qir::Module &M, Backend &BE,
                                     CompilePriority Priority,
                                     const CompileOptions &Opts,
                                     std::shared_ptr<void> Owner) {
  auto Job = std::make_shared<CompileJob>();
  Job->M = &M;
  Job->BE = &BE;
  Job->Opts = Opts;
  Job->SubmitNs = nowNs();
  Job->Key = Opts.FairnessKey;
  Job->Owner = std::move(Owner);

  // Fairness-share check and in-flight accounting, atomically: two
  // concurrent submits for the same key must not both slip under the
  // share.
  {
    std::lock_guard<std::mutex> Lock(LifecycleMutex);
    if (!Job->Key.empty()) {
      auto ShareIt = KeyShares.find(Job->Key);
      uint64_t &InFlight = KeyInFlightCount[Job->Key];
      if (ShareIt != KeyShares.end() && InFlight >= ShareIt->second) {
        RejectedTenant.inc();
        return {};
      }
      ++InFlight;
    }
    ++Pending;
  }
  JobsQueued.inc();

  const bool High = Priority == CompilePriority::Foreground;
  for (;;) {
    auto R = Queue.tryPush(Job, High);
    if (R == decltype(Queue)::PushResult::Ok)
      break;
    // Full. A Foreground submit sheds the newest Background job (its
    // ticket reports cancelled) and retries.
    const bool Full = R == decltype(Queue)::PushResult::Full;
    std::shared_ptr<CompileJob> Victim;
    if (Full && High && Queue.shedLowest(Victim)) {
      ShedC.inc();
      finishJob(Victim, /*Cancel=*/true);
      continue;
    }
    // Refused: full with nothing sheddable, or closed by shutdown().
    JobsQueued.sub(1);
    unaccount(*Job);
    if (Full)
      (High ? RejectedFg : RejectedBg).inc();
    return {};
  }
  QueueDepth.set(static_cast<int64_t>(Queue.size()));
  return CompileTicket(std::move(Job));
}

void CompileService::unaccount(const CompileJob &Job) {
  std::lock_guard<std::mutex> Lock(LifecycleMutex);
  if (!Job.Key.empty()) {
    auto It = KeyInFlightCount.find(Job.Key);
    if (It != KeyInFlightCount.end() && It->second && --It->second == 0)
      KeyInFlightCount.erase(It);
  }
  if (--Pending == 0)
    AllDoneCv.notify_all();
}

void CompileService::workerLoop() {
  std::shared_ptr<CompileJob> Job;
  while (Queue.pop(Job)) {
    bool Cancel = Stopping.load(std::memory_order_acquire);
    finishJob(Job, Cancel);
    Job.reset();
  }
}

/// Runs (or cancels) one dequeued job and publishes its terminal state.
void CompileService::finishJob(const std::shared_ptr<CompileJob> &Job,
                               bool Cancel) {
  {
    std::lock_guard<std::mutex> Lock(Job->Mutex);
    if (Job->St == CompileJob::State::Cancelled) {
      // cancel() won the race; just account for it below.
      Cancel = true;
    } else if (!Cancel && Job->Opts.Cancel && Job->Opts.Cancel->stopped()) {
      // Cancel-before-run: the submitting query's token fired (session
      // evicted, deadline passed) while the job sat in the queue. Skip
      // the compile instead of burning a worker slot on a result nobody
      // will consume.
      Cancel = true;
      Job->St = CompileJob::State::Cancelled;
      Job->Cv.notify_all();
    } else if (Cancel) {
      Job->St = CompileJob::State::Cancelled;
      Job->Cv.notify_all();
    } else {
      Job->St = CompileJob::State::Running;
    }
  }

  if (!Cancel) {
    QueueDepth.set(static_cast<int64_t>(Queue.size()));
    // Compile-latency jitter (test hook): delay before the compile so a
    // soak sweeps the landing time across morsel boundaries.
    if (uint32_t MaxUs = TestDelayMaxUs.load(std::memory_order_relaxed)) {
      uint64_t S = TestDelayRng.fetch_add(0x9e3779b97f4a7c15ull,
                                          std::memory_order_relaxed);
      S ^= S >> 33;
      S *= 0xff51afd7ed558ccdull;
      S ^= S >> 33;
      std::this_thread::sleep_for(
          std::chrono::microseconds(S % (uint64_t(MaxUs) + 1)));
    }
    uint64_t StartNs = nowNs();
    if (obs::TraceSink *Sink = Job->Opts.Obs.Sink)
      if (Job->SubmitNs && StartNs > Job->SubmitNs)
        Sink->completeEvent("svc.queue_wait", "svc", Job->SubmitNs,
                            StartNs - Job->SubmitNs);
    std::shared_ptr<CompiledModule> Result =
        Job->BE->compile(*Job->M, Job->Opts);
    uint64_t DurNs = nowNs() - StartNs;
    // Account the completion *before* publishing Done: the instant a
    // waiter wakes it may destroy the back-end (callers only keep it
    // alive until the ticket completes), so BE->name() must not be
    // touched afterwards — and stats() read after a wait() must already
    // include this job.
    Reg->histogram(Prefix + "latency." + Job->BE->name()).observe(DurNs);
    JobsCompleted.inc();
    std::lock_guard<std::mutex> Lock(Job->Mutex);
    Job->Result = std::move(Result);
    Job->St = CompileJob::State::Done;
    Job->Cv.notify_all();
  }

  if (Cancel)
    JobsCancelled.inc();
  unaccount(*Job);
  Job->Owner.reset(); // Tickets may keep the job alive for long after.
}

void CompileService::shutdown() {
  bool First = !Stopping.exchange(true, std::memory_order_acq_rel);
  Queue.close();
  if (First) {
    for (std::thread &T : Workers)
      T.join();
    // Workers drained the queue cancelling everything they popped after
    // Stopping was set; anything left (e.g. close() raced a push) is
    // cancelled here so no ticket waits forever.
    std::shared_ptr<CompileJob> Job;
    while (Queue.tryPop(Job))
      finishJob(Job, /*Cancel=*/true);
  }
}

void CompileService::drain() {
  std::unique_lock<std::mutex> Lock(LifecycleMutex);
  AllDoneCv.wait(Lock, [&] { return Pending == 0; });
}

CompileServiceStats CompileService::stats() const {
  CompileServiceStats S;
  S.JobsQueued = JobsQueued.value();
  S.JobsCompleted = JobsCompleted.value();
  S.JobsCancelled = JobsCancelled.value();
  S.QueueDepthHighWater = Queue.highWater();
  S.QueueCapacity = Queue.capacity();
  S.RejectedForeground = RejectedFg.value();
  S.RejectedBackground = RejectedBg.value();
  S.RejectedTenant = RejectedTenant.value();
  S.Shed = ShedC.value();
  // Per-backend latency is a view over this instance's histograms.
  obs::MetricsSnapshot Snap = Reg->snapshot();
  const std::string LatPrefix = Prefix + "latency.";
  for (const auto &[Name, H] : Snap.Histograms) {
    if (Name.compare(0, LatPrefix.size(), LatPrefix) != 0)
      continue;
    CompileLatency L;
    L.Count = H.Count;
    L.MinSec = H.Count ? H.MinNs * 1e-9 : 0;
    L.MaxSec = H.MaxNs * 1e-9;
    L.TotalSec = H.SumNs * 1e-9;
    S.PerBackend[Name.substr(LatPrefix.size())] = L;
  }
  return S;
}

} // namespace qcf::backend
