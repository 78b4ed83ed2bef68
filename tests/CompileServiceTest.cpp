//===- tests/CompileServiceTest.cpp - Async compile service tests ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for backend::CompileService and the caching layer's
/// in-flight deduplication: the TierUp handle's lifecycle (wait, finish,
/// settle, two waiters with their own tokens, query-end cancel), stats
/// accounting, exactly-one-compile-per-key under thread storms, LRU
/// capacity under contention, clean shutdown with jobs queued, and the
/// cache's fast tier answering misses while the inner compile runs on a
/// worker.
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "backend/TierUp.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "qir/Builder.h"
#include "tests/CountingBackend.h"
#include "tests/GateBackend.h"
#include <atomic>
#include <chrono>
#include <filesystem>
#include <gtest/gtest.h>
#include <thread>

using namespace qcf;
using namespace qcf::qir;
using namespace qcf::backend;
using qcf::test::CountingBackend;
using qcf::test::GateBackend;
using qcf::test::PinnedWorker;
using qcf::test::submitJob;

namespace {

/// Builds `fn(a) = a * K + 7`.
void buildAffine(qir::Module &M, int64_t K, const char *Name = "f") {
  qir::Function *F = M.createFunction(Name, {Type::I64}, Type::I64);
  Builder B(F);
  ValueId P = B.mul(F->paramValue(0), B.constInt(Type::I64, K));
  B.ret(B.add(P, B.constInt(Type::I64, 7)));
}

} // namespace

TEST(CompileService, SubmitWaitReturnsWorkingCode) {
  CompileService Svc(2);
  qir::Module M;
  buildAffine(M, 5);
  auto BE = createBackend("DirectEmit");

  std::shared_ptr<TierUp> Up = submitJob(Svc, M, *BE);
  ASSERT_NE(Up, nullptr);
  CompiledModule *C = Up->wait();
  ASSERT_NE(C, nullptr);
  EXPECT_FALSE(Up->pending());
  auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
  EXPECT_EQ(F(10), 57);
  // wait() after completion is idempotent.
  EXPECT_EQ(Up->wait(), C);
  EXPECT_EQ(Up->installed(), C);
}

TEST(CompileService, StatsAccounting) {
  CompileService Svc(2);
  auto Direct = createBackend("DirectEmit");
  auto Crane = createBackend("Craneline");

  std::vector<qir::Module> Mods(6);
  std::vector<std::shared_ptr<TierUp>> Ups;
  for (int I = 0; I != 6; ++I) {
    buildAffine(Mods[I], I + 1);
    Ups.push_back(submitJob(Svc, Mods[I], I % 2 ? *Crane : *Direct));
  }
  for (std::shared_ptr<TierUp> &Up : Ups)
    EXPECT_NE(Up->wait(), nullptr);

  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsQueued, 6u);
  EXPECT_EQ(S.JobsCompleted, 6u);
  EXPECT_EQ(S.JobsCancelled, 0u);
  EXPECT_GE(S.QueueDepthHighWater, 1u);
  ASSERT_EQ(S.PerBackend.count("DirectEmit"), 1u);
  ASSERT_EQ(S.PerBackend.count("Craneline"), 1u);
  const CompileLatency &L = S.PerBackend.at("DirectEmit");
  EXPECT_EQ(L.Count, 3u);
  EXPECT_LE(L.MinSec, L.meanSec());
  EXPECT_LE(L.meanSec(), L.MaxSec);
  EXPECT_GT(L.MaxSec, 0.0);
}

/// backend::TierUp, the state of a submitted compile: finish() cancels a
/// job that has not started, and the worker installs a landed compile
/// once, which every later wait() returns.
TEST(TierUp, CancelsQueuedJobAndInstallsOnce) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  qir::Module M2;
  buildAffine(M2, 2);
  PinnedWorker Pin(Svc);
  {
    std::shared_ptr<TierUp> Abandoned = submitJob(Svc, M2, *BE);
    ASSERT_NE(Abandoned, nullptr);
    EXPECT_TRUE(Abandoned->pending());
    EXPECT_EQ(Abandoned->installed(), nullptr) << "queued behind the pin";
    Abandoned->finish(); // Queued: cancel-before-run, no wait.
    EXPECT_FALSE(Abandoned->pending());
    EXPECT_EQ(Abandoned->installed(), nullptr);
  }

  std::shared_ptr<TierUp> Up = submitJob(Svc, M2, *BE);
  ASSERT_NE(Up, nullptr);
  EXPECT_NE(Pin.release(), nullptr);
  CompiledModule *Installed = Up->wait();
  ASSERT_NE(Installed, nullptr);
  EXPECT_FALSE(Up->pending());
  EXPECT_EQ(Installed->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
  EXPECT_EQ(Up->wait(), Installed);
  Up->finish(); // Ended: nothing to cancel or wait out.
  EXPECT_EQ(Up->installed(), Installed);
  Svc.drain();
  EXPECT_EQ(Svc.stats().JobsCancelled, 1u);
}

/// A job that is already running cannot be cancelled: finish() blocks
/// until the compile returns, so the worker never touches a module or
/// back-end its submitter has since freed.
TEST(TierUp, FinishWhileRunningWaitsJobOut) {
  GateBackend Gate(createBackend("DirectEmit"));
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  std::shared_ptr<TierUp> Up = submitJob(Svc, M, Gate);
  ASSERT_NE(Up, nullptr);
  Gate.waitStarted();
  std::atomic<bool> Finished{false};
  std::thread Finisher([&] {
    Up->finish();
    Finished = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Finished) << "returned while the job was still running";
  Gate.release();
  Finisher.join();
  EXPECT_TRUE(Finished);
  EXPECT_NE(Up->installed(), nullptr);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.JobsCancelled, 0u);
}

/// A shut-down service refuses the compile: submit() reports it and keeps
/// no hold on the handle, which stays pending until its caller settles
/// it, and compileTiered hands back no module and so nothing to wait on.
TEST(TierUp, ShutDownServiceLeavesNothingPending) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  Svc.shutdown();
  qir::Module M;
  buildAffine(M, 2);
  auto Up = std::make_shared<TierUp>();
  EXPECT_FALSE(Svc.submit(M, *BE, {}, nullptr, Up));
  EXPECT_EQ(Up.use_count(), 1) << "a refused job holds its handle";
  EXPECT_TRUE(Up->pending());
  Up->settle(nullptr);
  EXPECT_FALSE(Up->pending());
  EXPECT_EQ(Up->wait(), nullptr);
  EXPECT_EQ(compileTiered(M, *BE, *BE, Svc, {}), nullptr);
  Svc.drain(); // Nothing was accounted as pending.
  EXPECT_EQ(Svc.stats().JobsQueued, 0u);
}

/// A handle made before its submit is pending and can be shared at once:
/// a wait() sleeps on it until the job submitted later installs, and
/// settle() ends another one with the module it is given.
TEST(TierUp, UnstartedHandleWaitsForStartOrSettle) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  auto Up = std::make_shared<TierUp>();
  EXPECT_TRUE(Up->pending());
  CompiledModule *Installed = nullptr;
  std::thread Waiter([&] { Installed = Up->wait(); });
  ASSERT_TRUE(Svc.submit(M, *BE, {}, nullptr, Up));
  Waiter.join();
  ASSERT_NE(Installed, nullptr);
  EXPECT_EQ(Installed, Up->installed());
  EXPECT_EQ(Installed->entryAs<int64_t (*)(int64_t)>("f")(5), 17);

  TierUp Other;
  CompiledModule *Settled = nullptr;
  std::thread OtherWaiter([&] { Settled = Other.wait(); });
  Other.settle(BE->compile(M));
  OtherWaiter.join();
  EXPECT_FALSE(Other.pending());
  ASSERT_NE(Settled, nullptr);
  EXPECT_EQ(Settled, Other.installed());
  EXPECT_EQ(Settled->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
}

/// Waiters block while readers load installed() as the worker installs:
/// only the worker installs, so the install happens once by construction,
/// and every waiter returns that module. A reader sees either nothing or
/// the finished module, never a half-published one.
TEST(TierUp, ConcurrentPollInstallsOnceReadersSeeFinishedModule) {
  GateBackend Gate(createBackend("DirectEmit"));
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  std::shared_ptr<TierUp> Up = submitJob(Svc, M, Gate);
  ASSERT_NE(Up, nullptr);
  Gate.waitStarted();

  constexpr int Waiters = 4, Readers = 4;
  std::atomic<int> Bad{0}, Running{0};
  CompiledModule *Waited[Waiters] = {};
  CompiledModule *Seen[Readers] = {};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Waiters; ++T)
    Threads.emplace_back([&, T] {
      ++Running;
      Waited[T] = Up->wait();
    });
  for (int T = 0; T != Readers; ++T)
    Threads.emplace_back([&, T] {
      ++Running;
      // Pending ends only after the install, so the last pass sees it.
      for (bool More = true; More;) {
        More = Up->pending();
        CompiledModule *P = Up->installed();
        if (!P)
          continue;
        if ((Seen[T] && P != Seen[T]) ||
            P->entryAs<int64_t (*)(int64_t)>("f")(5) != 17)
          ++Bad;
        Seen[T] = P;
      }
    });
  while (Running != Waiters + Readers)
    std::this_thread::yield();
  Gate.release();
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad, 0);
  ASSERT_NE(Up->installed(), nullptr);
  for (CompiledModule *P : Waited)
    EXPECT_EQ(P, Up->installed());
  for (CompiledModule *P : Seen)
    EXPECT_EQ(P, Up->installed());
}

/// Two sessions wait on one shared handle whose job is running. B's token
/// is cancelled mid-wait: B returns within a few wait ticks while A, with
/// no token, keeps waiting, and A gets the module once the compile lands.
/// A waiter that held the handle's lock while it slept would keep B from
/// ever reading its token.
TEST(TierUp, CancelledWaiterReturnsWhileAnotherWaits) {
  GateBackend Gate(createBackend("DirectEmit"));
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  std::shared_ptr<TierUp> Up = submitJob(Svc, M, Gate);
  ASSERT_NE(Up, nullptr);
  Gate.waitStarted();

  std::atomic<bool> ADone{false}, BDone{false};
  std::atomic<uint64_t> BReturnNs{0};
  CompiledModule *AGot = nullptr, *BGot = nullptr;
  qcf::CancelToken Tok;
  std::thread A([&] {
    AGot = Up->wait();
    ADone = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10)); // A waits.
  std::thread B([&] {
    BGot = Up->wait(&Tok);
    BReturnNs = nowNs();
    BDone = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10)); // B waits.
  EXPECT_FALSE(BDone) << "B returned before its token fired";
  uint64_t CancelNs = nowNs();
  Tok.cancel();
  // Bounded, so a B stuck behind A fails instead of hanging the test.
  while (!BDone && nowNs() - CancelNs < 2'000'000'000ull)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  bool BReturned = BDone;
  bool AStillWaiting = !ADone;
  Gate.release();
  A.join();
  B.join();

  ASSERT_TRUE(BReturned) << "B's token went unseen while A waited";
  EXPECT_LT(BReturnNs - CancelNs, 10'000'000ull)
      << "B returned " << (BReturnNs - CancelNs) / 1000 << " us after cancel";
  EXPECT_EQ(BGot, nullptr);
  EXPECT_TRUE(AStillWaiting) << "A returned before the compile landed";
  ASSERT_NE(AGot, nullptr);
  EXPECT_EQ(AGot, Up->installed());
  EXPECT_EQ(AGot->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
}

TEST(CompileService, CancelBeforeStart) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);

  qir::Module M2;
  buildAffine(M2, 2);
  PinnedWorker Pin(Svc); // The single worker is now inside compile().
  std::shared_ptr<TierUp> Queued = submitJob(Svc, M2, Counter);
  ASSERT_NE(Queued, nullptr);

  Queued->finish(); // The job had not started: cancel wins, no wait.
  EXPECT_FALSE(Queued->pending());
  EXPECT_EQ(Queued->wait(), nullptr);

  EXPECT_NE(Pin.release(), nullptr);
  Pin.Up->finish();
  EXPECT_NE(Pin.Up->installed(), nullptr)
      << "completed job cannot be cancelled";
  Svc.drain();
  EXPECT_EQ(Counter.Compiles.load(), 0u) << "cancelled job must never compile";
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCancelled, 1u);
  EXPECT_EQ(S.JobsCompleted, 1u);
}

TEST(CompileService, ShutdownCancelsQueuedJobs) {
  CountingBackend Counter(createBackend("DirectEmit"));
  auto Svc = std::make_unique<CompileService>(1);

  std::vector<qir::Module> Mods(4);
  PinnedWorker Pin(*Svc);
  std::vector<std::shared_ptr<TierUp>> Queued;
  for (int I = 0; I != 4; ++I) {
    buildAffine(Mods[I], I + 2);
    Queued.push_back(submitJob(*Svc, Mods[I], Counter));
  }
  EXPECT_EQ(Svc->queueDepth(), 4u);

  // Shut down with the worker busy and four jobs queued. Release the gate
  // from another thread so shutdown() can join.
  std::thread Releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Pin.Gate.release();
  });
  Svc->shutdown();
  Releaser.join();

  // The running job completed; every queued job was cancelled and its
  // waiters see null rather than hanging.
  EXPECT_NE(Pin.release(), nullptr);
  for (std::shared_ptr<TierUp> &Up : Queued) {
    EXPECT_FALSE(Up->pending());
    EXPECT_EQ(Up->wait(), nullptr);
  }
  EXPECT_EQ(Counter.Compiles.load(), 0u);
  CompileServiceStats S = Svc->stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.JobsCancelled, 4u);
  EXPECT_EQ(S.QueueDepthHighWater, 4u);
  Svc.reset(); // Second shutdown via destructor must be a no-op.
}

/// A shut-down service refuses new work instead of compiling it on the
/// submitting thread: submit() reports the refusal, the back-end never
/// runs and nothing is queued or counted as a rejection.
TEST(CompileService, SubmitAfterShutdownIsRefused) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);
  Svc.shutdown();
  qir::Module M;
  buildAffine(M, 9);
  EXPECT_EQ(submitJob(Svc, M, Counter), nullptr);
  Svc.drain(); // Nothing was accounted as pending.
  EXPECT_EQ(Counter.Compiles.load(), 0u);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsQueued, 0u);
  EXPECT_EQ(S.RejectedForeground + S.RejectedBackground + S.RejectedTenant,
            0u);
}

TEST(CompileService, BoundedQueueRejectsWhenFull) {
  CompileService Svc(1, /*QueueCapacity=*/2);

  std::vector<qir::Module> Mods(3);
  for (int I = 0; I != 3; ++I)
    buildAffine(Mods[I], I + 2);

  PinnedWorker Pin(Svc);
  auto BE = createBackend("DirectEmit");
  std::shared_ptr<TierUp> A = submitJob(Svc, Mods[0], *BE);
  std::shared_ptr<TierUp> B = submitJob(Svc, Mods[1], *BE);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);

  // Queue is full: the next submits are refused, never block, and each
  // is counted.
  EXPECT_EQ(submitJob(Svc, Mods[2], *BE), nullptr);
  EXPECT_EQ(Svc.stats().RejectedBackground, 1u);
  EXPECT_EQ(submitJob(Svc, Mods[2], *BE), nullptr);
  EXPECT_EQ(Svc.stats().RejectedBackground, 2u);

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_NE(A->wait(), nullptr);
  EXPECT_NE(B->wait(), nullptr);
  Svc.drain();

  // Space freed: the retried submit is accepted and completes.
  std::shared_ptr<TierUp> Retry = submitJob(Svc, Mods[2], *BE);
  ASSERT_NE(Retry, nullptr);
  EXPECT_NE(Retry->wait(), nullptr);

  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.QueueCapacity, 2u);
  EXPECT_EQ(S.RejectedBackground, 2u);
  EXPECT_EQ(S.RejectedForeground, 0u);
  EXPECT_EQ(S.JobsQueued, 4u) << "rejected submissions are not queued";
}

TEST(CompileService, TenantShareCapsInFlightJobs) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);
  Svc.setKeyQueueShare("tenant-a", 2);

  std::vector<qir::Module> Mods(3);
  for (int I = 0; I != 3; ++I)
    buildAffine(Mods[I], I + 2);

  CompileOptions OptsA;
  OptsA.FairnessKey = "tenant-a";
  CompileOptions OptsB;
  OptsB.FairnessKey = "tenant-b";

  PinnedWorker Pin(Svc);

  EXPECT_NE(submitJob(Svc, Mods[0], Counter, OptsA), nullptr);
  EXPECT_NE(submitJob(Svc, Mods[1], Counter, OptsA), nullptr);
  EXPECT_EQ(Svc.keyInFlight("tenant-a"), 2u);

  // Third in-flight job for tenant-a exceeds its share: refused, and
  // counted as a tenant rejection rather than a full queue.
  EXPECT_EQ(submitJob(Svc, Mods[2], Counter, OptsA), nullptr);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.RejectedTenant, 1u);
  EXPECT_EQ(S.RejectedBackground, 0u);

  // Other tenants and keyless submissions are unaffected.
  EXPECT_NE(submitJob(Svc, Mods[2], Counter, OptsB), nullptr);
  EXPECT_NE(submitJob(Svc, Mods[2], Counter), nullptr);

  EXPECT_NE(Pin.release(), nullptr);
  Svc.drain();
  EXPECT_EQ(Svc.keyInFlight("tenant-a"), 0u)
      << "in-flight accounting must drain to zero";

  // With its jobs drained, tenant-a can submit again.
  std::shared_ptr<TierUp> A4 = submitJob(Svc, Mods[2], Counter, OptsA);
  ASSERT_NE(A4, nullptr);
  EXPECT_NE(A4->wait(), nullptr);
  EXPECT_EQ(Svc.stats().RejectedTenant, 1u);
}

TEST(CompileService, QueueMetricsVisibleInRegistry) {
  obs::MetricsRegistry Reg;
  CompileService Svc(1, /*QueueCapacity=*/1, &Reg);
  const std::string P = Svc.metricsPrefix();

  qir::Module M1, M2;
  buildAffine(M1, 2);
  buildAffine(M2, 3);
  auto BE = createBackend("DirectEmit");

  PinnedWorker Pin(Svc);
  std::shared_ptr<TierUp> Queued = submitJob(Svc, M1, *BE);
  ASSERT_NE(Queued, nullptr);
  EXPECT_EQ(submitJob(Svc, M2, *BE), nullptr);

  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.gauge(P + "queue.capacity"), 1);
  EXPECT_EQ(Snap.gauge(P + "queue.depth"), 1);
  EXPECT_EQ(Snap.counter(P + "queue.rejected.full"), 1u);
  EXPECT_EQ(Snap.counter(P + "queue.rejected.tenant"), 0u);

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_NE(Queued->wait(), nullptr);
  Svc.drain();
  EXPECT_EQ(Reg.snapshot().gauge(P + "queue.depth"), 0);
}

TEST(CacheDedup, EightThreadsOneCompile) {
  // The acceptance bar: 8 threads x 100 lookups of one key -> exactly one
  // inner-backend compile. The delay widens the in-flight window so the
  // dedup path (not just post-insert hits) is exercised.
  auto Counting = std::make_unique<CountingBackend>(
      createBackend("DirectEmit"), std::chrono::milliseconds(30));
  CountingBackend *Counter = Counting.get();
  CachingBackend BE(std::move(Counting));

  qir::Module M;
  buildAffine(M, 11);
  constexpr int NumThreads = 8, Lookups = 100;
  std::vector<std::thread> Threads;
  std::atomic<int> Bad{0};
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != Lookups; ++I) {
        auto C = BE.compile(M);
        auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
        if (F(I) != int64_t(I) * 11 + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Counter->Compiles.load(), 1u)
      << "in-flight dedup must collapse concurrent misses to one compile";
  CacheStats S = BE.stats();
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(NumThreads) * Lookups);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_GE(S.InFlightWaits, 1u) << "the 30ms compile must catch waiters";
  EXPECT_EQ(BE.size(), 1u);
}

TEST(CacheDedup, ManyKeysManyThreadsCompileOncePerKey) {
  auto Counting = std::make_unique<CountingBackend>(
      createBackend("DirectEmit"), std::chrono::milliseconds(2));
  CountingBackend *Counter = Counting.get();
  CachingBackend BE(std::move(Counting));

  constexpr int NumModules = 12, NumThreads = 6, Rounds = 25;
  std::vector<qir::Module> Mods(NumModules);
  for (int I = 0; I != NumModules; ++I)
    buildAffine(Mods[I], I + 1);

  std::vector<std::thread> Threads;
  std::atomic<int> Bad{0};
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int R = 0; R != Rounds; ++R) {
        int I = (T * 7 + R * 5) % NumModules; // Deterministic scatter.
        auto C = BE.compile(Mods[I]);
        auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
        if (F(R) != int64_t(R) * (I + 1) + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Counter->Compiles.load(), uint64_t(NumModules));
  CacheStats S = BE.stats();
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(NumThreads) * Rounds);
  EXPECT_EQ(S.Misses, uint64_t(NumModules));
  EXPECT_EQ(BE.size(), size_t(NumModules));
}

TEST(CacheDedup, LruCapacityRespectedUnderContention) {
  constexpr size_t Capacity = 3;
  CachingBackend BE(createBackend("DirectEmit"), Capacity);

  constexpr int NumModules = 9, NumThreads = 4, Rounds = 40;
  std::vector<qir::Module> Mods(NumModules);
  for (int I = 0; I != NumModules; ++I)
    buildAffine(Mods[I], I + 1);

  std::vector<std::thread> Threads;
  std::atomic<int> Bad{0};
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int R = 0; R != Rounds; ++R) {
        int I = (T + R) % NumModules;
        auto C = BE.compile(Mods[I]);
        auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
        if (F(R) != int64_t(R) * (I + 1) + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad.load(), 0);
  EXPECT_LE(BE.size(), Capacity);
  CacheStats S = BE.stats();
  EXPECT_GT(S.Evictions, 0u);
  EXPECT_EQ(S.Hits + S.Misses, uint64_t(NumThreads) * Rounds);
  // Every miss either ends cached or was evicted; sizes must reconcile.
  EXPECT_EQ(S.Misses - S.Evictions, BE.size());
}

/// A lookup whose token has fired while another thread compiles the key
/// abandons its wait on the miss's handle at once; the compile runs on for
/// the miss, and the key is compiled once and cached.
TEST(CacheDedup, CancelledWaiterAbandonsInFlightWait) {
  auto Counting = std::make_unique<CountingBackend>(createBackend("DirectEmit"));
  CountingBackend *Counter = Counting.get();
  auto Gated = std::make_unique<GateBackend>(std::move(Counting));
  GateBackend *Gate = Gated.get();
  CachingBackend BE(std::move(Gated));

  qir::Module M;
  buildAffine(M, 6);
  std::unique_ptr<CompiledModule> Owned;
  std::thread Miss([&] { Owned = BE.compile(M); });
  Gate->waitStarted();

  qcf::CancelToken Ctl;
  Ctl.cancel();
  CompileOptions Opts;
  Opts.Cancel = &Ctl;
  std::unique_ptr<CompiledModule> Abandoned;
  std::atomic<bool> Returned{false};
  std::thread Waiter([&] {
    Abandoned = BE.compile(M, Opts);
    Returned.store(true);
  });
  for (int I = 0; I != 5000 && !Returned.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool ReturnedWhileGated = Returned.load();
  Gate->release();
  Waiter.join();
  Miss.join();

  EXPECT_TRUE(ReturnedWhileGated) << "the waiter ignored its token";
  EXPECT_EQ(Abandoned, nullptr);
  ASSERT_NE(Owned, nullptr);
  EXPECT_EQ(Owned->entryAs<int64_t (*)(int64_t)>("f")(2), 19);
  auto Hit = BE.compile(M);
  EXPECT_EQ(Hit->entryAs<int64_t (*)(int64_t)>("f")(3), 25);
  EXPECT_EQ(Counter->Compiles.load(), 1u);
  EXPECT_EQ(BE.size(), 1u);
  EXPECT_EQ(BE.inFlight(), 0u);
  CacheStats S = BE.stats();
  EXPECT_EQ(S.Hits + S.Misses, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.InFlightWaits, 1u);
}

//===----------------------------------------------------------------------===//
// Fast tier: a miss runs Stencil code while Craneline compiles on a worker
//===----------------------------------------------------------------------===//

namespace {

/// One query lowered over a small catalog, with the rows and digest the
/// interpreter produces for it.
struct FastTierQuery {
  db::Catalog Cat;
  db::CompiledPlan Plan;
  uint64_t Rows = 0, Digest = 0;

  FastTierQuery() {
    db::generateTpchLike(Cat, 0.01);
    Plan = db::compileQuery(db::tpchQueries().at(0), Cat);
    std::tie(Rows, Digest) = run(*createBackend("Interpreter"));
  }

  std::pair<uint64_t, uint64_t> run(Backend &BE) const {
    rt::OutputBuffer Out;
    EXPECT_FALSE(db::executeQuery(Plan, BE, Cat, &Out).Trapped);
    return {Out.numRows(), Out.unorderedDigest()};
  }
};

const FastTierQuery &fastTierQuery() {
  static FastTierQuery Q;
  return Q;
}

/// Forwards to its inner back-end, except that the first cacheConfig()
/// call blocks until release(). That call is the disk probe of a cache's
/// first miss, so the miss is held after its in-flight entry exists and
/// before it submits its background compile.
class ProbeGate : public Backend {
public:
  explicit ProbeGate(std::unique_ptr<Backend> Inner) : Inner(std::move(Inner)) {}

  std::string name() const override { return Inner->name(); }
  std::string cacheConfig() const override {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (!Entered) {
      Entered = true;
      Cv.notify_all();
      Cv.wait(Lock, [&] { return Released; });
    }
    return Inner->cacheConfig();
  }

  using Backend::compile;
  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &O) override {
    return Inner->compile(M, O);
  }
  std::unique_ptr<CompiledModule> deserialize(const uint8_t *Data,
                                              size_t Len) override {
    return Inner->deserialize(Data, Len);
  }

  void waitEntered() {
    std::unique_lock<std::mutex> Lock(Mutex);
    Cv.wait(Lock, [&] { return Entered; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Released = true;
    }
    Cv.notify_all();
  }

private:
  std::unique_ptr<Backend> Inner;
  mutable std::mutex Mutex;
  mutable std::condition_variable Cv;
  mutable bool Entered = false;
  bool Released = false;
};

/// Spins (yielding, no sleep) until \p Pred holds, for at most 10 s.
template <typename P> bool spinUntil(P Pred) {
  auto End = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Pred() && std::chrono::steady_clock::now() < End)
    std::this_thread::yield();
  return Pred();
}

/// CachingBackend(Gate(Counting(Craneline))) with the fast tier
/// serve::Server picks for Craneline (Stencil, counted by FastCounter), a
/// one-worker service whose queue holds \p QueueCapacity jobs (0 =
/// unbounded) and a fresh disk tier. The gate holds every inner compile
/// until release(). With \p HoldProbe, a ProbeGate outside the gate holds
/// the first miss in its disk probe.
struct FastTierCache {
  std::filesystem::path Dir;
  obs::MetricsRegistry Reg;
  std::unique_ptr<DiskCodeCache> Disk;
  CompileService Svc;
  CountingBackend *Counter = nullptr;
  CountingBackend *FastCounter = nullptr;
  GateBackend *Gate = nullptr;
  ProbeGate *Probe = nullptr;
  std::unique_ptr<CachingBackend> Cache;

  explicit FastTierCache(bool HoldProbe = false, size_t QueueCapacity = 0)
      : Svc(1, QueueCapacity, &Reg) {
    std::string T =
        (std::filesystem::temp_directory_path() / "qcf_fasttier_XXXXXX")
            .string();
    EXPECT_NE(::mkdtemp(T.data()), nullptr);
    Dir = T;
    Disk = std::make_unique<DiskCodeCache>(Dir.string(), 0, &Reg);
    auto Counting = std::make_unique<CountingBackend>(createBackend("Craneline"));
    Counter = Counting.get();
    std::unique_ptr<Backend> Inner =
        std::make_unique<GateBackend>(std::move(Counting));
    Gate = static_cast<GateBackend *>(Inner.get());
    if (HoldProbe) {
      Inner = std::make_unique<ProbeGate>(std::move(Inner));
      Probe = static_cast<ProbeGate *>(Inner.get());
    }
    auto Fast = std::make_unique<CountingBackend>(createFastTier("Craneline"));
    FastCounter = Fast.get();
    Cache = std::make_unique<CachingBackend>(std::move(Inner), 0, &Svc, &Reg,
                                             Disk.get(), std::move(Fast));
  }
  ~FastTierCache() {
    if (Probe)
      Probe->release();
    Gate->release();
    Cache.reset();
    Svc.shutdown();
    std::filesystem::remove_all(Dir);
  }
};

/// Runs \p Fn on another thread with the gate shut and waits up to 10 s
/// for it to return. \returns whether it did; if not, opens the gate so
/// the blocked call can finish and be joined.
template <typename F> bool returnsWhileGated(FastTierCache &C, F Fn) {
  std::atomic<bool> Done{false};
  std::thread T([&] {
    Fn();
    Done.store(true);
  });
  for (int I = 0; I != 10000 && !Done.load(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  bool Returned = Done.load();
  if (!Returned)
    C.Gate->release();
  T.join();
  return Returned;
}

} // namespace

/// An AdaptiveExec query's own optimized compile borrows its plan and
/// back-end, so the query finishes its handle before it returns. Queued
/// behind a pinned worker, the job is cancelled there and never compiles.
/// It leaves the service's accounting at once: its tenant's share is free
/// and it counts as cancelled while the worker is still pinned; only its
/// queue slot waits for the pop, which does not count it again.
TEST(TierUp, QueryEndCancelsQueuedJob) {
  const FastTierQuery &Q = fastTierQuery();
  CountingBackend Opt(createBackend("Craneline"));
  CompileService Svc(1);
  PinnedWorker Pin(Svc);
  ASSERT_NE(Pin.Up, nullptr);
  db::ExecOptions O;
  O.AdaptiveExec = true;
  O.Service = &Svc;
  O.CompileFairnessKey = "t";
  rt::OutputBuffer Out;
  db::ExecResult R = db::executeQuery(Q.Plan, Opt, Q.Cat, &Out, O);
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(Out.unorderedDigest(), Q.Digest);
  EXPECT_EQ(R.Stats.OsrSwaps, 0u);
  EXPECT_EQ(Svc.queueDepth(), 1u) << "the query's job is still queued";
  EXPECT_EQ(Svc.keyInFlight("t"), 0u) << "the cancelled job holds a share";
  EXPECT_EQ(Svc.stats().JobsCancelled, 1u) << "counted only at the pop";

  EXPECT_NE(Pin.release(), nullptr);
  Svc.drain();
  Svc.shutdown(); // Joins the worker once it has popped the cancelled job.
  EXPECT_EQ(Svc.queueDepth(), 0u);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCancelled, 1u) << "the pop counted the job again";
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(Opt.Compiles.load(), 0u);
}

namespace {

/// A fast tier that compiles only once \p Opt's compile has started, so a
/// query on it cannot end, and cancel that compile, before a worker runs it.
class AfterOptStarts : public Backend {
public:
  explicit AfterOptStarts(GateBackend &Opt)
      : Opt(Opt), Inner(createFastTier("Craneline")) {}
  std::string name() const override { return Inner->name(); }
  using Backend::compile;
  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &O) override {
    Opt.waitStarted();
    return Inner->compile(M, O);
  }

private:
  GateBackend &Opt;
  std::unique_ptr<Backend> Inner;
};

} // namespace

/// The same query with its optimized compile already running: the
/// query's end waits the job out, so executeQuery does not return while a
/// worker still reads its plan and back-end.
TEST(TierUp, QueryEndWaitsRunningJobOut) {
  const FastTierQuery &Q = fastTierQuery();
  GateBackend Opt(createBackend("Craneline"));
  AfterOptStarts Fast(Opt);
  CompileService Svc(1);
  db::ExecOptions O;
  O.AdaptiveExec = true;
  O.Service = &Svc;
  O.FastBackend = &Fast;
  rt::OutputBuffer Out;
  db::ExecResult R;
  std::atomic<bool> Returned{false};
  std::thread Query([&] {
    R = db::executeQuery(Q.Plan, Opt, Q.Cat, &Out, O);
    Returned = true;
  });
  Opt.waitStarted();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Returned) << "returned while its compile was still running";
  Opt.release();
  Query.join();
  ASSERT_FALSE(R.Trapped);
  EXPECT_EQ(Out.unorderedDigest(), Q.Digest);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.JobsCancelled, 0u);
}

TEST(CacheFastTier, MissReturnsFastCodeBeforeTheGateOpens) {
  const FastTierQuery &Q = fastTierQuery();
  ASSERT_GT(Q.Rows, 0u);
  FastTierCache C;
  std::pair<uint64_t, uint64_t> Got;
  ASSERT_TRUE(returnsWhileGated(C, [&] { Got = Q.run(*C.Cache); }))
      << "a miss waited for the Craneline compile";
  EXPECT_EQ(Got, std::make_pair(Q.Rows, Q.Digest));
  C.Gate->waitStarted();
  EXPECT_EQ(C.Counter->Compiles.load(), 0u);
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.FastTier, 1u);
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Cache->size(), 0u);
  EXPECT_EQ(C.Cache->inFlight(), 1u);
}

TEST(CacheFastTier, InFlightKeyGetsFastCodeWithoutWaiting) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C;
  ASSERT_TRUE(returnsWhileGated(C, [&] { Q.run(*C.Cache); }))
      << "a miss waited for the Craneline compile";
  C.Gate->waitStarted();
  // Two more sessions look the key up while its compile is gated; each
  // returns with the miss's fast code instead of blocking in the dedup
  // wait or compiling its own.
  std::pair<uint64_t, uint64_t> Got[2];
  ASSERT_TRUE(returnsWhileGated(C, [&] {
    std::thread T[2];
    for (int I = 0; I != 2; ++I)
      T[I] = std::thread([&, I] { Got[I] = Q.run(*C.Cache); });
    for (std::thread &Th : T)
      Th.join();
  })) << "a lookup of the in-flight key blocked";
  for (const auto &G : Got)
    EXPECT_EQ(G, std::make_pair(Q.Rows, Q.Digest));
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.InFlightWaits, 0u);
  EXPECT_EQ(S.FastTier, 3u);
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u) << "one fast compile per key";
  EXPECT_EQ(C.Svc.stats().JobsQueued, 1u) << "one background compile per key";
}

TEST(CacheFastTier, LandedCompileIsAnL1HitAndStoredOnce) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C;
  std::pair<uint64_t, uint64_t> Got[2];
  ASSERT_TRUE(returnsWhileGated(C, [&] {
    for (auto &G : Got)
      G = Q.run(*C.Cache);
  })) << "a lookup waited for the Craneline compile";
  for (const auto &G : Got)
    EXPECT_EQ(G, std::make_pair(Q.Rows, Q.Digest));
  C.Gate->release();
  C.Svc.drain();
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Cache->size(), 1u);
  EXPECT_EQ(C.Disk->stats().Stores, 1u);

  // The next lookup is an L1 hit on the Craneline module.
  EXPECT_EQ(Q.run(*C.Cache), std::make_pair(Q.Rows, Q.Digest));
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.FastTier, 2u);
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  DiskCacheStats D = C.Disk->stats();
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Stores, 1u);
  EXPECT_EQ(C.Svc.stats().PerBackend.count("Craneline+cache"), 1u);
}

/// A cold miss in a fresh directory leaves the disk probe to its job: the
/// query thread answers with fast-tier code without touching the
/// directory, and the job, once it runs, counts the miss, compiles and
/// stores the blob.
TEST(CacheFastTier, ColdMissLeavesTheDiskProbeToTheJob) {
  FastTierCache C;
  PinnedWorker Pin(C.Svc);
  ASSERT_NE(Pin.Up, nullptr);
  qir::Module M;
  buildAffine(M, 3);
  auto Code = C.Cache->compile(M);
  ASSERT_NE(Code, nullptr);
  ASSERT_NE(Code->Optimized, nullptr);
  EXPECT_EQ(Code->entryAs<int64_t (*)(int64_t)>("f")(2), 13);
  EXPECT_EQ(C.Disk->stats().Misses, 0u) << "the query thread probed disk";

  C.Gate->release();
  EXPECT_NE(Pin.release(), nullptr);
  CompiledModule *Landed = Code->Optimized->wait();
  ASSERT_NE(Landed, nullptr);
  EXPECT_EQ(Landed->entryAs<int64_t (*)(int64_t)>("f")(2), 13);
  C.Svc.drain();
  DiskCacheStats D = C.Disk->stats();
  EXPECT_EQ(D.Misses, 1u);
  EXPECT_EQ(D.Stores, 1u);
  EXPECT_EQ(D.Hits, 0u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
}

/// A blob another cache on the directory stored after this one opened is
/// not in this one's index, so the miss answers with fast-tier code; its
/// job then finds the blob and loads it instead of compiling, and the
/// miss's handle installs the loaded module, which is also what memory
/// holds.
TEST(CacheFastTier, JobLoadsABlobStoredSinceTheIndexWasFilled) {
  std::string T =
      (std::filesystem::temp_directory_path() / "qcf_index_XXXXXX").string();
  ASSERT_NE(::mkdtemp(T.data()), nullptr);
  obs::MetricsRegistry Reg, OtherReg;
  DiskCodeCache Disk(T, 0, &Reg);
  DiskCodeCache Other(T, 0, &OtherReg);
  qir::Module M;
  buildAffine(M, 5);
  CachingBackend(createBackend("Craneline"), 0, nullptr, &OtherReg, &Other)
      .compile(M);
  ASSERT_EQ(Other.stats().Stores, 1u);

  CompileService Svc{1, 0, &Reg};
  auto Counting = std::make_unique<CountingBackend>(createBackend("Craneline"));
  CountingBackend &Inner = *Counting;
  EXPECT_FALSE(Disk.mayHold(fingerprintModule(M), Inner));
  CachingBackend Cache(std::move(Counting), 0, &Svc, &Reg, &Disk,
                       createFastTier("Craneline"));
  auto Code = Cache.compile(M);
  ASSERT_NE(Code, nullptr);
  ASSERT_NE(Code->Optimized, nullptr) << "the miss ran no fast tier";
  CompiledModule *Loaded = Code->Optimized->wait();
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->entryAs<int64_t (*)(int64_t)>("f")(2), 17);
  Svc.drain();
  DiskCacheStats D = Disk.stats();
  EXPECT_EQ(D.Hits, 1u);
  EXPECT_EQ(D.Misses, 0u);
  EXPECT_EQ(D.Stores, 0u) << "a load stored its blob again";
  EXPECT_EQ(Inner.Compiles.load(), 0u);
  EXPECT_EQ(Inner.Deserializes.load(), 1u);
  EXPECT_TRUE(Disk.mayHold(fingerprintModule(M), Inner));
  std::unique_ptr<CompiledModule> Hit = Cache.compile(M);
  EXPECT_EQ(Hit->entry("f"), Loaded->entry("f"));
  EXPECT_EQ(Cache.stats().Hits, 1u);
  Svc.shutdown();
  std::filesystem::remove_all(T);
}

/// A served plan owns its miss's background compile: the query's last
/// reference to the plan goes while the job is queued behind a pinned
/// worker, and the job then compiles the plan's own module, not a copy,
/// which it kept alive.
TEST(CacheFastTier, JobHoldsTheServedPlan) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C;
  C.Gate->release();
  PinnedWorker Pin(C.Svc);
  ASSERT_NE(Pin.Up, nullptr);
  auto Plan = std::make_shared<db::CompiledPlan>(
      db::compileQuery(db::tpchQueries().at(0), Q.Cat));
  const qir::Module *PlanModule = Plan->Module.get();
  {
    db::ExecOptions O;
    O.PlanOwner = Plan;
    rt::OutputBuffer Out;
    db::ExecResult R = db::executeQuery(*Plan, *C.Cache, Q.Cat, &Out, O);
    ASSERT_FALSE(R.Trapped);
    EXPECT_EQ(Out.unorderedDigest(), Q.Digest);
  }
  Plan.reset(); // The queued job holds the last reference.
  EXPECT_EQ(C.Counter->Compiles.load(), 0u);

  EXPECT_NE(Pin.release(), nullptr);
  C.Svc.drain();
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  EXPECT_EQ(C.Counter->LastModule.load(), PlanModule)
      << "the job compiled a copy";
  // The landed module is an L1 hit that runs the query.
  EXPECT_EQ(Q.run(*C.Cache), std::make_pair(Q.Rows, Q.Digest));
  EXPECT_EQ(C.Cache->stats().Hits, 1u);
}

TEST(CacheFastTier, RefusedSubmitCompilesInline) {
  FastTierCache C;
  C.Gate->release();
  // Use up the tenant's share with a job pinned on the only worker.
  C.Svc.setKeyQueueShare("t", 1);
  CompileOptions Opts;
  Opts.FairnessKey = "t";
  PinnedWorker Pin(C.Svc, Opts);
  ASSERT_NE(Pin.Up, nullptr);

  qir::Module M;
  buildAffine(M, 5);
  auto Code = C.Cache->compile(M, Opts);
  uint64_t CompilesWhilePinned = C.Counter->Compiles.load();
  Pin.release();

  ASSERT_NE(Code, nullptr);
  EXPECT_EQ(Code->entryAs<int64_t (*)(int64_t)>("f")(3), 22);
  EXPECT_EQ(CompilesWhilePinned, 1u) << "compiled on this thread";
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.FastTier, 0u);
  EXPECT_EQ(C.Cache->size(), 1u);
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Disk->stats().Stores, 1u);
  EXPECT_GE(C.Svc.stats().RejectedTenant, 1u);
}

/// A cache whose service is shut down mid-life keeps working: the service
/// refuses the miss's background compile, the cache compiles it inline,
/// and results stay correct and cached.
TEST(CacheDedup, ShutdownServiceFallsBackInline) {
  FastTierCache C;
  C.Gate->release();
  qir::Module M1, M2;
  buildAffine(M1, 2);
  buildAffine(M2, 4);
  auto C1 = C.Cache->compile(M1);
  EXPECT_EQ(C1->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
  ASSERT_NE(C1->Optimized, nullptr);
  EXPECT_NE(C1->Optimized->wait(), nullptr);
  C.Svc.drain();
  EXPECT_EQ(C.Svc.stats().JobsCompleted, 1u);

  C.Svc.shutdown();
  auto C2 = C.Cache->compile(M2); // Refused by the service: inline compile.
  EXPECT_EQ(C2->entryAs<int64_t (*)(int64_t)>("f")(5), 27);
  EXPECT_EQ(C2->Optimized, nullptr);
  auto C3 = C.Cache->compile(M2); // Hit; no service involved.
  EXPECT_EQ(C3->entryAs<int64_t (*)(int64_t)>("f")(0), 7);
  EXPECT_EQ(C.Cache->stats().Hits, 1u);
  EXPECT_EQ(C.Counter->Compiles.load(), 2u)
      << "M2 must reach the inner back-end exactly once";
  EXPECT_EQ(C.Svc.stats().JobsCompleted, 1u);
}

TEST(CacheFastTier, ShutdownWithQueuedJobLeavesNoPendingEntry) {
  FastTierCache C;
  PinnedWorker Pin(C.Svc);
  ASSERT_NE(Pin.Up, nullptr);

  // A miss queues its background compile behind the pinned worker.
  qir::Module M;
  buildAffine(M, 9);
  auto Fast = C.Cache->compile(M);
  ASSERT_NE(Fast->Optimized, nullptr);
  EXPECT_EQ(Fast->entryAs<int64_t (*)(int64_t)>("f")(2), 25);
  EXPECT_EQ(C.Cache->inFlight(), 1u);

  // Shut the service down with that job still queued; it is cancelled.
  std::thread Stopper([&] { C.Svc.shutdown(); });
  qir::Module ProbeM;
  buildAffine(ProbeM, 2);
  auto ProbeBE = createBackend("Interpreter");
  while (submitJob(C.Svc, ProbeM, *ProbeBE))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Pin.release();
  Stopper.join();
  EXPECT_EQ(C.Counter->Compiles.load(), 0u);

  // The next lookup of the key retires the stale entry and, with the
  // service gone, compiles inline instead of reusing the stale fast code.
  C.Gate->release();
  auto Code = C.Cache->compile(M);
  EXPECT_EQ(Code->entryAs<int64_t (*)(int64_t)>("f")(2), 25);
  EXPECT_EQ(Code->Optimized, nullptr);
  EXPECT_NE(Code->entry("f"), Fast->entry("f"));
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Cache->stats().FastTier, 1u);
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Cache->size(), 1u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  EXPECT_EQ(C.Cache->stats().Misses, 2u);
  EXPECT_EQ(C.Disk->stats().Stores, 1u);
}

/// A served query swaps mid-flight: a cold miss and a lookup of the key
/// in flight both start on Stencil, block at morsel K until the gate
/// opens, and swap from the one install of the gated Craneline module.
TEST(CacheFastTier, ServedQuerySwapsMidFlight) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C;
  constexpr int64_t K = 2;
  db::ExecResult R[2];
  uint64_t Digest[2] = {};
  std::thread T[2];
  for (int I = 0; I != 2; ++I) {
    T[I] = std::thread([&, I] {
      db::ExecOptions O;
      O.MorselSize = 8; // h1 scans ~64 rows of this catalog.
      O.OsrForceSwapMorsel = K;
      rt::OutputBuffer Out;
      R[I] = db::executeQuery(Q.Plan, *C.Cache, Q.Cat, &Out, O);
      Digest[I] = Out.unorderedDigest();
    });
    // The next query starts once this one holds fast-tier code.
    for (int W = 0; W != 10000 && C.Cache->stats().FastTier <= unsigned(I);
         ++W)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  C.Gate->release();
  for (std::thread &Th : T)
    Th.join();
  for (int I = 0; I != 2; ++I) {
    ASSERT_FALSE(R[I].Trapped);
    EXPECT_EQ(Digest[I], Q.Digest);
    EXPECT_GE(R[I].Stats.OsrSwaps, 1u);
    EXPECT_EQ(R[I].Stats.Pipelines.at(0).SwapMorsel, K);
    EXPECT_EQ(R[I].Stats.Pipelines.at(0).MorselsFast, uint64_t(K));
  }
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  EXPECT_EQ(C.Cache->stats().FastTier, 2u);
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Svc.stats().JobsQueued, 1u);
}

/// A plan's binding follows its code: the fast-tier answer's entries (the
/// forced swap looks up the optimized one by name), then the optimized
/// module the next run finds in L1, then that module reloaded from disk
/// once L1 evicted it.
TEST(CacheFastTier, PlanBindingFollowsSwapAndReload) {
  const FastTierQuery &Q = fastTierQuery();
  db::CompiledPlan Plan = db::compileQuery(db::tpchQueries().at(0), Q.Cat);
  db::CompiledPlan Other = db::compileQuery(db::tpchQueries().at(1), Q.Cat);
  std::string Dir =
      (std::filesystem::temp_directory_path() / "qcf_binding_XXXXXX").string();
  ASSERT_NE(::mkdtemp(Dir.data()), nullptr);
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Disk(Dir, 0, &Reg);
    CompileService Svc(1, 0, &Reg);
    CachingBackend Cache(createBackend("Craneline"), /*Capacity=*/1, &Svc,
                         &Reg, &Disk, createFastTier("Craneline"));
    auto Run = [&](const db::CompiledPlan &P, int64_t ForceSwapMorsel) {
      db::ExecOptions O;
      O.MorselSize = 8;
      O.OsrForceSwapMorsel = ForceSwapMorsel;
      rt::OutputBuffer Out;
      db::ExecResult R = db::executeQuery(P, Cache, Q.Cat, &Out, O);
      EXPECT_FALSE(R.Trapped);
      Svc.drain();
      return std::make_pair(R.Stats.OsrSwaps, Out.unorderedDigest());
    };
    auto Bound = [&] { return Plan.Binding.load()->CodeId; };

    auto [Swaps, Digest] = Run(Plan, 2);
    EXPECT_GE(Swaps, 1u);
    EXPECT_EQ(Digest, Q.Digest);
    uint64_t Fast = Bound();
    EXPECT_EQ(Run(Plan, -1), std::make_pair(uint64_t(0), Q.Digest));
    uint64_t Opt = Bound();
    EXPECT_NE(Opt, Fast);
    Run(Other, -1); // Its module takes Plan's place in L1.
    EXPECT_EQ(Run(Plan, -1), std::make_pair(uint64_t(0), Q.Digest));
    EXPECT_EQ(Disk.stats().Hits, 1u);
    EXPECT_NE(Bound(), Opt);
    EXPECT_NE(Bound(), Fast);
  }
  std::filesystem::remove_all(Dir);
}

/// Three lookups of one cold key while its Craneline compile is gated:
/// the miss compiles the fast tier once, the two lookups after it share
/// that code and its handle, and all three swap to the one gated module.
TEST(CacheFastTier, InFlightLookupsShareOneFastCompile) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C;
  constexpr int64_t K = 2;
  constexpr int N = 3;
  db::ExecResult R[N];
  uint64_t Digest[N] = {};
  std::thread T[N];
  for (int I = 0; I != N; ++I) {
    T[I] = std::thread([&, I] {
      db::ExecOptions O;
      O.MorselSize = 8;
      O.OsrForceSwapMorsel = K;
      rt::OutputBuffer Out;
      R[I] = db::executeQuery(Q.Plan, *C.Cache, Q.Cat, &Out, O);
      Digest[I] = Out.unorderedDigest();
    });
    // The next lookup starts once this one holds fast-tier code, which
    // the miss shares before counting it.
    EXPECT_TRUE(spinUntil(
        [&] { return C.Cache->stats().FastTier == unsigned(I + 1); }));
  }
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Counter->Compiles.load(), 0u);
  C.Gate->release();
  for (std::thread &Th : T)
    Th.join();
  for (int I = 0; I != N; ++I) {
    ASSERT_FALSE(R[I].Trapped);
    EXPECT_EQ(Digest[I], Q.Digest) << "query " << I;
    EXPECT_GE(R[I].Stats.OsrSwaps, 1u) << "query " << I;
    EXPECT_EQ(R[I].Stats.Pipelines.at(0).SwapMorsel, K);
  }
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.FastTier, 3u);
  obs::MetricsSnapshot Snap = C.Reg.snapshot();
  const obs::HistogramSnapshot *Ns =
      Snap.histogram(C.Cache->metricsPrefix() + "fast_tier_compile_ns");
  ASSERT_NE(Ns, nullptr);
  EXPECT_EQ(Ns->Count, 1u) << "only the real compile is timed";
  EXPECT_EQ(C.Svc.stats().JobsQueued, 1u);
}

/// A lookup that finds the key in flight while the miss is still probing
/// disk (before its background compile has a handle) gets that handle
/// once the miss submits, and swaps like the miss does.
TEST(CacheFastTier, LookupDuringTheMissProbeSharesItsHandle) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C(/*HoldProbe=*/true);
  constexpr int64_t K = 2;
  db::ExecResult R[2];
  uint64_t Digest[2] = {};
  auto Run = [&](int I) {
    db::ExecOptions O;
    O.MorselSize = 8;
    O.OsrForceSwapMorsel = K;
    rt::OutputBuffer Out;
    R[I] = db::executeQuery(Q.Plan, *C.Cache, Q.Cat, &Out, O);
    Digest[I] = Out.unorderedDigest();
  };
  std::thread Miss(Run, 0);
  C.Probe->waitEntered();
  std::thread Lookup(Run, 1);
  // The lookup has found the in-flight entry, which has no handle yet.
  bool Found = spinUntil([&] { return C.Cache->stats().Hits == 1; });
  C.Probe->release();
  bool BothFast = spinUntil([&] { return C.Cache->stats().FastTier == 2; });
  C.Gate->release();
  Miss.join();
  Lookup.join();
  ASSERT_TRUE(Found);
  ASSERT_TRUE(BothFast);
  for (int I = 0; I != 2; ++I) {
    ASSERT_FALSE(R[I].Trapped);
    EXPECT_EQ(Digest[I], Q.Digest);
    EXPECT_GE(R[I].Stats.OsrSwaps, 1u) << (I ? "lookup" : "miss");
    EXPECT_EQ(R[I].Stats.Pipelines.at(0).SwapMorsel, K);
  }
  EXPECT_EQ(C.FastCounter->Compiles.load(), 2u)
      << "a lookup before the miss's fast code exists compiles its own";
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  EXPECT_EQ(C.Svc.stats().JobsQueued, 1u);
}

/// The same window when the miss ends as a disk hit: the handle the
/// lookup shares installs the rehydrated module, and no compile is queued.
TEST(CacheFastTier, LookupDuringTheMissProbeGetsTheDiskModule) {
  std::string T =
      (std::filesystem::temp_directory_path() / "qcf_probe_XXXXXX").string();
  ASSERT_NE(::mkdtemp(T.data()), nullptr);
  obs::MetricsRegistry Reg;
  DiskCodeCache Disk(T, 0, &Reg);
  CompileService Svc{1, 0, &Reg};
  qir::Module M;
  buildAffine(M, 5);
  CachingBackend(createBackend("Craneline"), 0, nullptr, &Reg, &Disk)
      .compile(M);
  ASSERT_EQ(Disk.stats().Stores, 1u);

  auto Held = std::make_unique<ProbeGate>(createBackend("Craneline"));
  ProbeGate &Probe = *Held;
  CachingBackend Cache(std::move(Held), 0, &Svc, &Reg, &Disk,
                       createFastTier("Craneline"));
  std::unique_ptr<CompiledModule> Code[2];
  std::thread Miss([&] { Code[0] = Cache.compile(M); });
  Probe.waitEntered();
  // The lookup returns while the miss is still held in its probe.
  Code[1] = Cache.compile(M);
  Probe.release();
  Miss.join();
  for (const auto &C : Code) {
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->entryAs<int64_t (*)(int64_t)>("f")(2), 17);
  }
  EXPECT_EQ(Code[0]->Optimized, nullptr) << "the miss runs the disk module";
  ASSERT_NE(Code[1]->Optimized, nullptr) << "the lookup got no handle";
  EXPECT_FALSE(Code[1]->Optimized->pending());
  CompiledModule *Loaded = Code[1]->Optimized->installed();
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->entryAs<int64_t (*)(int64_t)>("f")(2), 17);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.FastTier, 1u);
  EXPECT_EQ(Disk.stats().Hits, 1u);
  EXPECT_EQ(Svc.stats().JobsQueued, 0u);
  Svc.shutdown();
  std::filesystem::remove_all(T);
}

/// The same window when the submit is refused: the miss compiles inline,
/// publishes that module to memory and settles the shared handle with it,
/// so the lookups that shared the handle swap to the module a later lookup
/// hits in memory.
TEST(CacheFastTier,
     LookupDuringTheMissProbeOfARefusedSubmitSwapsToTheInlineCompile) {
  const FastTierQuery &Q = fastTierQuery();
  FastTierCache C(/*HoldProbe=*/true);
  C.Gate->release();
  // Use up the tenant's share with a job pinned on the only worker.
  C.Svc.setKeyQueueShare("t", 1);
  CompileOptions Opts;
  Opts.FairnessKey = "t";
  PinnedWorker Pin(C.Svc, Opts);
  ASSERT_NE(Pin.Up, nullptr);

  constexpr int64_t K = 2;
  db::ExecResult R[2];
  std::pair<uint64_t, uint64_t> Got[2];
  auto Run = [&](int I) {
    db::ExecOptions O;
    O.CompileFairnessKey = "t";
    O.MorselSize = 8;
    O.OsrForceSwapMorsel = K;
    rt::OutputBuffer Out;
    R[I] = db::executeQuery(Q.Plan, *C.Cache, Q.Cat, &Out, O);
    Got[I] = {Out.numRows(), Out.unorderedDigest()};
  };
  std::thread Miss(Run, 0);
  C.Probe->waitEntered();
  std::thread Lookup(Run, 1);
  bool Found = spinUntil([&] { return C.Cache->stats().Hits == 1; });
  // A second lookup in the window returns the handle the query holds.
  std::unique_ptr<CompiledModule> Shared =
      C.Cache->compile(*Q.Plan.Module, Opts);
  C.Probe->release();
  Miss.join();
  Lookup.join();
  Pin.release();
  ASSERT_TRUE(Found);

  for (int I = 0; I != 2; ++I) {
    ASSERT_FALSE(R[I].Trapped);
    EXPECT_EQ(Got[I], std::make_pair(Q.Rows, Q.Digest))
        << (I ? "lookup" : "miss");
  }
  EXPECT_EQ(R[0].Stats.OsrSwaps, 0u) << "the miss runs its inline compile";
  EXPECT_GE(R[1].Stats.OsrSwaps, 1u) << "the lookup stayed on Stencil";
  EXPECT_EQ(R[1].Stats.Pipelines.at(0).SwapMorsel, K);

  ASSERT_NE(Shared->Optimized, nullptr);
  EXPECT_FALSE(Shared->Optimized->pending());
  CompiledModule *Installed = Shared->Optimized->installed();
  ASSERT_NE(Installed, nullptr);
  std::unique_ptr<CompiledModule> Hit = C.Cache->compile(*Q.Plan.Module, Opts);
  for (const auto &F : Q.Plan.Module->functions())
    EXPECT_EQ(Installed->entry(F->name()), Hit->entry(F->name()))
        << "the install is the module published to memory";
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.FastTier, 2u);
  EXPECT_EQ(C.FastCounter->Compiles.load(), 2u);
  EXPECT_EQ(C.Cache->size(), 1u);
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u) << "the miss compiled inline";
  EXPECT_EQ(C.Svc.stats().JobsQueued, 1u) << "only the pinned job";
}
