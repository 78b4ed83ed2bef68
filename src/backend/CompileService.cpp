//===- backend/CompileService.cpp - Async compilation service --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/CompileService.h"
#include "backend/TierUp.h"
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
      RejectedFull(this->Reg->counter(Prefix + "queue.rejected.full")),
      RejectedTenant(this->Reg->counter(Prefix + "queue.rejected.tenant")) {
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

bool CompileService::submit(const qir::Module &M, Backend &BE,
                            const CompileOptions &Opts,
                            std::shared_ptr<void> Owner,
                            std::shared_ptr<TierUp> Up) {
  const std::string &Key = Opts.FairnessKey;
  // Fairness-share check and in-flight accounting, atomically: two
  // concurrent submits for the same key must not both slip under the
  // share.
  {
    std::lock_guard<std::mutex> Lock(LifecycleMutex);
    if (!Key.empty()) {
      auto ShareIt = KeyShares.find(Key);
      uint64_t &InFlight = KeyInFlightCount[Key];
      if (ShareIt != KeyShares.end() && InFlight >= ShareIt->second) {
        RejectedTenant.inc();
        return false;
      }
      ++InFlight;
    }
    ++Pending;
  }
  JobsQueued.inc();

  // Set before the push: once queued, TierUp::finish() may claim the job.
  TierUp &Handle = *Up;
  Handle.Svc = this;
  Handle.Key = Key;
  auto R = Queue.tryPush(
      {&M, &BE, Opts, nowNs(), std::move(Owner), std::move(Up)});
  if (R != decltype(Queue)::PushResult::Ok) {
    // Refused: full, or closed by shutdown(). The handle goes back to its
    // caller as it came.
    Handle.Svc = nullptr;
    Handle.Key.clear();
    JobsQueued.sub(1);
    unaccount(Key);
    if (R == decltype(Queue)::PushResult::Full)
      RejectedFull.inc();
    return false;
  }
  QueueDepth.set(static_cast<int64_t>(Queue.size()));
  return true;
}

void CompileService::cancelled(const std::string &Key) {
  JobsCancelled.inc();
  unaccount(Key);
}

void CompileService::unaccount(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(LifecycleMutex);
  if (!Key.empty()) {
    auto It = KeyInFlightCount.find(Key);
    if (It != KeyInFlightCount.end() && It->second && --It->second == 0)
      KeyInFlightCount.erase(It);
  }
  if (--Pending == 0)
    AllDoneCv.notify_all();
}

void CompileService::workerLoop() {
  CompileJob Job;
  while (Queue.pop(Job)) {
    runJob(Job, Stopping.load(std::memory_order_acquire));
    Job = CompileJob(); // Frees the owner before the next pop blocks.
  }
}

void CompileService::runJob(CompileJob &Job, bool Cancel) {
  TierUp &Up = *Job.Up;
  if (!Up.run())
    return; // Claimed and accounted for by TierUp::finish().
  if (Cancel) {
    // Cancelled by shutdown().
    Up.settle(nullptr);
    cancelled(Job.Opts.FairnessKey);
    return;
  }

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
  if (obs::TraceSink *Sink = Job.Opts.Obs.Sink)
    if (Job.SubmitNs && StartNs > Job.SubmitNs)
      Sink->completeEvent("svc.queue_wait", "svc", Job.SubmitNs,
                          StartNs - Job.SubmitNs);
  std::shared_ptr<CompiledModule> Result = Job.BE->compile(*Job.M, Job.Opts);
  // Account the completion *before* the install: the instant a waiter
  // wakes it may destroy the back-end (callers only keep it alive until
  // the handle ends), so BE->name() must not be touched afterwards — and
  // stats() read after a wait() must already include this job.
  latency(Job.BE->name()).observe(nowNs() - StartNs);
  JobsCompleted.inc();
  Up.settle(std::move(Result));
  unaccount(Job.Opts.FairnessKey);
}

obs::Histogram &CompileService::latency(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(LatencyMutex);
  obs::Histogram *&H = Latency[Name];
  if (!H)
    H = &Reg->histogram(Prefix + "latency." + Name);
  return *H;
}

void CompileService::shutdown() {
  bool First = !Stopping.exchange(true, std::memory_order_acq_rel);
  Queue.close();
  if (First) {
    for (std::thread &T : Workers)
      T.join();
    // Workers drained the queue cancelling everything they popped after
    // Stopping was set; anything left (e.g. close() raced a push) is
    // cancelled here so no handle waits forever.
    CompileJob Job;
    while (Queue.tryPop(Job))
      runJob(Job, /*Cancel=*/true);
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
  S.RejectedBackground = RejectedFull.value();
  S.RejectedTenant = RejectedTenant.value();
  // Per-backend latency is a view over this instance's histograms.
  std::lock_guard<std::mutex> Lock(LatencyMutex);
  for (const auto &[Name, Hist] : Latency) {
    obs::HistogramSnapshot H = Hist->snapshot();
    CompileLatency L;
    L.Count = H.Count;
    L.MinSec = H.Count ? H.MinNs * 1e-9 : 0;
    L.MaxSec = H.MaxNs * 1e-9;
    L.TotalSec = H.SumNs * 1e-9;
    S.PerBackend[Name] = L;
  }
  return S;
}

} // namespace qcf::backend
