//===- tests/CompileServiceTest.cpp - Async compile service tests ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency tests for backend::CompileService and the caching layer's
/// in-flight deduplication: ticket lifecycle (poll/wait/cancel), priority
/// and stats accounting, exactly-one-compile-per-key under thread storms,
/// LRU capacity under contention, clean shutdown with jobs queued, and the
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

  CompileTicket T = Svc.submit(M, *BE);
  ASSERT_TRUE(T.valid());
  std::shared_ptr<CompiledModule> C = T.wait();
  ASSERT_NE(C, nullptr);
  EXPECT_TRUE(T.done());
  auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
  EXPECT_EQ(F(10), 57);
  // wait() after completion is idempotent.
  EXPECT_EQ(T.wait(), C);
  EXPECT_EQ(T.poll(), C);
}

TEST(CompileService, StatsAccounting) {
  CompileService Svc(2);
  auto Direct = createBackend("DirectEmit");
  auto Crane = createBackend("Craneline");

  std::vector<qir::Module> Mods(6);
  std::vector<CompileTicket> Tickets;
  for (int I = 0; I != 6; ++I) {
    buildAffine(Mods[I], I + 1);
    Tickets.push_back(Svc.submit(Mods[I], I % 2 ? *Crane : *Direct));
  }
  for (CompileTicket &T : Tickets)
    EXPECT_NE(T.wait(), nullptr);

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

/// backend::TierUp, the handle on a pending optimized compile: destruction
/// cancels a job that has not started, and a landed compile installs
/// exactly once.
TEST(TierUp, CancelsQueuedJobAndInstallsOnce) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  qir::Module M2;
  buildAffine(M2, 2);
  PinnedWorker Pin(Svc);
  {
    TierUp Abandoned(Svc.submit(M2, *BE));
    EXPECT_TRUE(Abandoned.pending());
    EXPECT_FALSE(Abandoned.poll()) << "queued behind the pin";
  } // Destroyed while queued: cancel-before-run, no wait.

  TierUp Up(Svc.submit(M2, *BE));
  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_TRUE(Up.wait());
  EXPECT_FALSE(Up.pending());
  ASSERT_NE(Up.installed(), nullptr);
  EXPECT_EQ(Up.installed()->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
  EXPECT_FALSE(Up.poll());
  EXPECT_FALSE(Up.wait());
  Svc.drain();
  EXPECT_EQ(Svc.stats().JobsCancelled, 1u);
}

/// A job that is already running cannot be cancelled: destroying its
/// TierUp blocks until the compile returns, so the worker never touches a
/// module or back-end its submitter has since freed.
TEST(TierUp, DestroyWhileRunningWaitsJobOut) {
  GateBackend Gate(createBackend("DirectEmit"));
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  auto Up = std::make_unique<TierUp>(Svc.submit(M, Gate));
  Gate.waitStarted();
  std::atomic<bool> Destroyed{false};
  std::thread Destroyer([&] {
    Up.reset();
    Destroyed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(Destroyed) << "returned while the job was still running";
  Gate.release();
  Destroyer.join();
  EXPECT_TRUE(Destroyed);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.JobsCancelled, 0u);
}

/// A shut-down service refuses the compile: the invalid ticket leaves
/// nothing pending, and neither poll() nor wait() ever installs.
TEST(TierUp, ShutDownServiceLeavesNothingPending) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  Svc.shutdown();
  qir::Module M;
  buildAffine(M, 2);
  TierUp Up(Svc.submit(M, *BE));
  EXPECT_FALSE(Up.pending());
  EXPECT_FALSE(Up.poll());
  EXPECT_FALSE(Up.wait());
  EXPECT_EQ(Up.installed(), nullptr);
}

/// A handle made before its submit is pending but never installs by
/// poll(): a wait() blocks until start() hands it the job, and settle()
/// ends another one with the module it is given.
TEST(TierUp, UnstartedHandleWaitsForStartOrSettle) {
  auto BE = createBackend("DirectEmit");
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  TierUp Up;
  EXPECT_TRUE(Up.pending());
  EXPECT_FALSE(Up.poll());
  bool Installed = false;
  std::thread Waiter([&] { Installed = Up.wait(); });
  Up.start(Svc.submit(M, *BE), nullptr);
  Waiter.join();
  EXPECT_TRUE(Installed);
  EXPECT_EQ(Up.installed()->entryAs<int64_t (*)(int64_t)>("f")(5), 17);

  TierUp Other;
  std::thread OtherWaiter([&] { EXPECT_FALSE(Other.wait()); });
  Other.settle(BE->compile(M));
  OtherWaiter.join();
  EXPECT_FALSE(Other.pending());
  EXPECT_EQ(Other.installed()->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
}

/// Pollers race the install while readers load installed(): exactly one
/// poll() installs, and a reader sees either nothing or the finished
/// module, never a half-published one.
TEST(TierUp, ConcurrentPollInstallsOnceReadersSeeFinishedModule) {
  GateBackend Gate(createBackend("DirectEmit"));
  CompileService Svc(1);
  qir::Module M;
  buildAffine(M, 2);
  TierUp Up(Svc.submit(M, Gate));
  Gate.waitStarted();

  constexpr int Pollers = 4, Readers = 4;
  std::atomic<int> Installs{0}, Bad{0}, Running{0};
  CompiledModule *Seen[Readers] = {};
  std::vector<std::thread> Threads;
  for (int T = 0; T != Pollers; ++T)
    Threads.emplace_back([&] {
      ++Running;
      while (Up.pending())
        if (Up.poll())
          ++Installs;
    });
  for (int T = 0; T != Readers; ++T)
    Threads.emplace_back([&, T] {
      ++Running;
      // Pending ends only after the install, so the last pass sees it.
      for (bool More = true; More;) {
        More = Up.pending();
        CompiledModule *P = Up.installed();
        if (!P)
          continue;
        if ((Seen[T] && P != Seen[T]) ||
            P->entryAs<int64_t (*)(int64_t)>("f")(5) != 17)
          ++Bad;
        Seen[T] = P;
      }
    });
  while (Running != Pollers + Readers)
    std::this_thread::yield();
  Gate.release();
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Installs, 1);
  EXPECT_EQ(Bad, 0);
  ASSERT_NE(Up.installed(), nullptr);
  for (CompiledModule *P : Seen)
    EXPECT_EQ(P, Up.installed());
}

TEST(CompileService, CancelBeforeStart) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);

  qir::Module M2;
  buildAffine(M2, 2);
  PinnedWorker Pin(Svc); // The single worker is now inside compile().
  CompileTicket Queued = Svc.submit(M2, Counter);

  EXPECT_TRUE(Queued.cancel()) << "job had not started; cancel must win";
  EXPECT_EQ(Queued.wait(), nullptr);
  EXPECT_TRUE(Queued.done());

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_FALSE(Pin.Ticket.cancel()) << "completed job cannot be cancelled";
  Svc.drain();
  EXPECT_EQ(Counter.Compiles.load(), 0u) << "cancelled job must never compile";
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCancelled, 1u);
  EXPECT_EQ(S.JobsCompleted, 1u);
}

TEST(CompileService, PriorityOrdersQueue) {
  CompileService Svc(1);

  qir::Module MLow, MHigh;
  buildAffine(MLow, 2);
  buildAffine(MHigh, 3);

  // Worker busy; queue a Background job, then a Foreground one. A second
  // gate on the low-priority job would deadlock the 1-worker pool, so
  // order is observed through completion timestamps instead: with one
  // worker, the Foreground job must finish before the Background one.
  std::atomic<int> Order{0};
  struct StampBackend : Backend {
    StampBackend(std::atomic<int> &Order, int &Stamp)
        : Inner(createBackend("DirectEmit")), Order(Order), Stamp(Stamp) {}
    std::string name() const override { return "stamp"; }
    using Backend::compile;
    std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                            const CompileOptions &Opts) override {
      Stamp = ++Order;
      return Inner->compile(M, Opts);
    }
    std::unique_ptr<Backend> Inner;
    std::atomic<int> &Order;
    int &Stamp;
  };
  int LowStamp = 0, HighStamp = 0;
  StampBackend LowBE(Order, LowStamp), HighBE(Order, HighStamp);

  PinnedWorker Pin(Svc);
  CompileTicket Low = Svc.submit(MLow, LowBE, CompilePriority::Background);
  CompileTicket High = Svc.submit(MHigh, HighBE, CompilePriority::Foreground);
  EXPECT_NE(Pin.release(), nullptr);

  EXPECT_NE(Low.wait(), nullptr);
  EXPECT_NE(High.wait(), nullptr);
  EXPECT_LT(HighStamp, LowStamp)
      << "Foreground must dequeue before Background";
}

TEST(CompileService, ShutdownCancelsQueuedJobs) {
  CountingBackend Counter(createBackend("DirectEmit"));
  auto Svc = std::make_unique<CompileService>(1);

  std::vector<qir::Module> Mods(4);
  PinnedWorker Pin(*Svc);
  std::vector<CompileTicket> Queued;
  for (int I = 0; I != 4; ++I) {
    buildAffine(Mods[I], I + 2);
    Queued.push_back(Svc->submit(Mods[I], Counter));
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
  for (CompileTicket &T : Queued) {
    EXPECT_TRUE(T.done());
    EXPECT_EQ(T.wait(), nullptr);
  }
  EXPECT_EQ(Counter.Compiles.load(), 0u);
  CompileServiceStats S = Svc->stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  EXPECT_EQ(S.JobsCancelled, 4u);
  EXPECT_EQ(S.QueueDepthHighWater, 4u);
  Svc.reset(); // Second shutdown via destructor must be a no-op.
}

/// A shut-down service refuses new work instead of compiling it on the
/// submitting thread: the ticket is invalid, the back-end never runs and
/// nothing is queued or counted as a rejection.
TEST(CompileService, SubmitAfterShutdownIsRefused) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);
  Svc.shutdown();
  qir::Module M;
  buildAffine(M, 9);
  for (CompilePriority P :
       {CompilePriority::Foreground, CompilePriority::Background}) {
    CompileTicket T = Svc.submit(M, Counter, P);
    EXPECT_FALSE(T.valid());
    EXPECT_EQ(T.wait(), nullptr);
  }
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
  CompileTicket A = Svc.submit(Mods[0], *BE);
  CompileTicket B = Svc.submit(Mods[1], *BE);

  // Queue is full and nothing is sheddable (both queued jobs are
  // Foreground): the next submit is refused, never blocks.
  EXPECT_FALSE(Svc.submit(Mods[2], *BE).valid());
  EXPECT_EQ(Svc.stats().RejectedForeground, 1u);

  // Background rejections are accounted separately.
  EXPECT_FALSE(Svc.submit(Mods[2], *BE, CompilePriority::Background).valid());
  EXPECT_EQ(Svc.stats().RejectedBackground, 1u);

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_NE(A.wait(), nullptr);
  EXPECT_NE(B.wait(), nullptr);
  Svc.drain();

  // Space freed: the retried submit is accepted and completes.
  CompileTicket Retry = Svc.submit(Mods[2], *BE);
  ASSERT_TRUE(Retry.valid());
  EXPECT_NE(Retry.wait(), nullptr);

  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.QueueCapacity, 2u);
  EXPECT_EQ(S.RejectedForeground, 1u);
  EXPECT_EQ(S.RejectedBackground, 1u);
  EXPECT_EQ(S.JobsQueued, 4u) << "rejected submissions are not queued";
}

TEST(CompileService, ForegroundShedsNewestBackground) {
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1, /*QueueCapacity=*/2);

  qir::Module MOld, MNew, MHigh;
  buildAffine(MOld, 2);
  buildAffine(MNew, 3);
  buildAffine(MHigh, 4);

  PinnedWorker Pin(Svc);
  CompileTicket Old = Svc.submit(MOld, Counter, CompilePriority::Background);
  CompileTicket New = Svc.submit(MNew, Counter, CompilePriority::Background);

  // Full queue, but a Foreground submit may evict speculative work: the
  // *newest* Background job is shed (LIFO keeps the oldest speculation,
  // which has waited longest and is closest to running).
  CompileTicket High = Svc.submit(MHigh, Counter);
  EXPECT_TRUE(High.valid());
  EXPECT_TRUE(New.done()) << "shed victim's ticket must be terminal";
  EXPECT_EQ(New.wait(), nullptr) << "shed victim reports cancelled";
  EXPECT_FALSE(Old.done()) << "older Background job must survive";

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_NE(High.wait(), nullptr);
  EXPECT_NE(Old.wait(), nullptr);
  Svc.drain();

  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.Shed, 1u);
  EXPECT_EQ(S.RejectedForeground, 0u);
  EXPECT_EQ(S.JobsCancelled, 1u) << "shed counts as a cancellation";
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

  EXPECT_TRUE(
      Svc.submit(Mods[0], Counter, CompilePriority::Foreground, OptsA).valid());
  EXPECT_TRUE(
      Svc.submit(Mods[1], Counter, CompilePriority::Foreground, OptsA).valid());
  EXPECT_EQ(Svc.keyInFlight("tenant-a"), 2u);

  // Third in-flight job for tenant-a exceeds its share: refused, and
  // counted as a tenant rejection rather than a full queue.
  EXPECT_FALSE(
      Svc.submit(Mods[2], Counter, CompilePriority::Foreground, OptsA).valid());
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.RejectedTenant, 1u);
  EXPECT_EQ(S.RejectedForeground, 0u);

  // Other tenants and keyless submissions are unaffected.
  EXPECT_TRUE(
      Svc.submit(Mods[2], Counter, CompilePriority::Foreground, OptsB).valid());
  EXPECT_TRUE(Svc.submit(Mods[2], Counter).valid());

  EXPECT_NE(Pin.release(), nullptr);
  Svc.drain();
  EXPECT_EQ(Svc.keyInFlight("tenant-a"), 0u)
      << "in-flight accounting must drain to zero";

  // With its jobs drained, tenant-a can submit again.
  CompileTicket A4 =
      Svc.submit(Mods[2], Counter, CompilePriority::Foreground, OptsA);
  ASSERT_TRUE(A4.valid());
  EXPECT_NE(A4.wait(), nullptr);
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
  CompileTicket Queued = Svc.submit(M1, *BE);
  EXPECT_FALSE(Svc.submit(M2, *BE).valid());

  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.gauge(P + "queue.capacity"), 1);
  EXPECT_EQ(Snap.gauge(P + "queue.depth"), 1);
  EXPECT_EQ(Snap.counter(P + "queue.rejected.foreground"), 1u);
  EXPECT_EQ(Snap.counter(P + "queue.rejected.background"), 0u);
  EXPECT_EQ(Snap.counter(P + "queue.rejected.tenant"), 0u);
  EXPECT_EQ(Snap.counter(P + "queue.shed"), 0u);

  EXPECT_NE(Pin.release(), nullptr);
  EXPECT_NE(Queued.wait(), nullptr);
  Svc.drain();
  EXPECT_EQ(Reg.snapshot().gauge(P + "queue.depth"), 0);
}

TEST(CompileService, CancelTokenAbandonsQueuedJob) {
  // Satellite 2 regression: a queued job whose CompileOptions::Cancel
  // token fires (deadline or session close) must be abandoned by the
  // worker *before* compiling — cancel-before-run — so an evicted
  // session never burns a compile slot.
  CountingBackend Counter(createBackend("DirectEmit"));
  CompileService Svc(1);

  qir::Module M1;
  buildAffine(M1, 2);

  qcf::CancelToken Ctl;
  CompileOptions Opts;
  Opts.Cancel = &Ctl;

  PinnedWorker Pin(Svc);
  CompileTicket Doomed =
      Svc.submit(M1, Counter, CompilePriority::Foreground, Opts);
  Ctl.cancel(); // Fires while the job is still queued.
  EXPECT_NE(Pin.release(), nullptr);

  EXPECT_EQ(Doomed.wait(), nullptr) << "cancelled token -> null result";
  Svc.drain();
  EXPECT_EQ(Counter.Compiles.load(), 0u)
      << "worker must skip a job whose token fired";
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCancelled, 1u);
  EXPECT_EQ(S.JobsCompleted, 1u);
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

TEST(CacheDedup, ServiceBackedMissesUseWorkers) {
  CompileService Svc(2);
  auto Counting =
      std::make_unique<CountingBackend>(createBackend("DirectEmit"),
                                        std::chrono::milliseconds(10));
  CountingBackend *Counter = Counting.get();
  CachingBackend BE(std::move(Counting), /*Capacity=*/0, &Svc);

  qir::Module M;
  buildAffine(M, 3);
  std::vector<std::thread> Threads;
  std::atomic<int> Bad{0};
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 10; ++I) {
        auto C = BE.compile(M);
        if (C->entryAs<int64_t (*)(int64_t)>("f")(I) != int64_t(I) * 3 + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(Counter->Compiles.load(), 1u);
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCompleted, 1u) << "dedup happens before the service";
  ASSERT_EQ(S.PerBackend.count("DirectEmit"), 1u);
  EXPECT_GE(S.PerBackend.at("DirectEmit").MinSec, 0.01 * 0.5);
}

TEST(CacheDedup, ShutdownServiceFallsBackInline) {
  // A cache whose service is shut down mid-life keeps working: the
  // service refuses the miss, the cache compiles it inline, and results
  // stay correct and cached.
  CompileService Svc(1);
  auto Counting =
      std::make_unique<CountingBackend>(createBackend("DirectEmit"));
  CountingBackend *Counter = Counting.get();
  CachingBackend BE(std::move(Counting), 0, &Svc);

  qir::Module M1, M2;
  buildAffine(M1, 2);
  buildAffine(M2, 4);
  auto C1 = BE.compile(M1);
  EXPECT_EQ(C1->entryAs<int64_t (*)(int64_t)>("f")(5), 17);
  EXPECT_EQ(Svc.stats().JobsCompleted, 1u);

  Svc.shutdown();
  auto C2 = BE.compile(M2); // Refused by the service: inline compile.
  EXPECT_EQ(C2->entryAs<int64_t (*)(int64_t)>("f")(5), 27);
  auto C3 = BE.compile(M2); // Hit; no service involved.
  EXPECT_EQ(C3->entryAs<int64_t (*)(int64_t)>("f")(0), 7);
  EXPECT_EQ(BE.stats().Hits, 1u);
  EXPECT_EQ(Counter->Compiles.load(), 2u)
      << "M2 must reach the inner back-end exactly once";
  EXPECT_EQ(Svc.stats().JobsCompleted, 1u);
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

TEST(CacheFastTier, RefusedSubmitCompilesInline) {
  FastTierCache C;
  C.Gate->release();
  // Use up the tenant's share with a job pinned on the only worker.
  C.Svc.setKeyQueueShare("t", 1);
  CompileOptions Opts;
  Opts.FairnessKey = "t";
  PinnedWorker Pin(C.Svc, Opts);
  ASSERT_TRUE(Pin.Ticket.valid());

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

TEST(CacheFastTier, ShutdownWithQueuedJobLeavesNoPendingEntry) {
  FastTierCache C;
  PinnedWorker Pin(C.Svc);
  ASSERT_TRUE(Pin.Ticket.valid());

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
  while (C.Svc.submit(ProbeM, *ProbeBE).valid())
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

/// A job shed from the queue before it ran leaves its entry behind: the
/// lookups before the shed share the miss's fast code, and the lookup
/// after it is a miss again that compiles fresh fast code under a new
/// handle instead of reusing the stale code.
TEST(CacheFastTier, LookupAfterAShedJobIsAMissAgain) {
  FastTierCache C(/*HoldProbe=*/false, /*QueueCapacity=*/1);
  PinnedWorker Pin(C.Svc);
  ASSERT_TRUE(Pin.Ticket.valid());

  // The miss's background compile fills the queue behind the pin.
  qir::Module M;
  buildAffine(M, 5);
  std::unique_ptr<CompiledModule> Code[3];
  Code[0] = C.Cache->compile(M);
  Code[1] = C.Cache->compile(M);
  ASSERT_NE(Code[0]->Optimized, nullptr);
  EXPECT_EQ(Code[1]->Optimized, Code[0]->Optimized);
  EXPECT_EQ(Code[1]->entry("f"), Code[0]->entry("f")) << "shared fast code";
  EXPECT_EQ(C.FastCounter->Compiles.load(), 1u);

  // A Foreground submit sheds it.
  qir::Module High;
  buildAffine(High, 4);
  auto HighBE = createBackend("DirectEmit");
  CompileTicket HighT = C.Svc.submit(High, *HighBE);
  ASSERT_TRUE(HighT.valid());
  EXPECT_EQ(C.Svc.stats().Shed, 1u);
  Pin.release();
  EXPECT_NE(HighT.wait(), nullptr);
  EXPECT_EQ(C.Cache->inFlight(), 1u) << "the shed job left its entry";

  Code[2] = C.Cache->compile(M);
  ASSERT_NE(Code[2]->Optimized, nullptr);
  EXPECT_NE(Code[2]->Optimized, Code[0]->Optimized);
  EXPECT_NE(Code[2]->entry("f"), Code[0]->entry("f"));
  EXPECT_EQ(C.FastCounter->Compiles.load(), 2u);
  for (const auto &Mod : Code)
    EXPECT_EQ(Mod->entryAs<int64_t (*)(int64_t)>("f")(2), 17);
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.FastTier, 3u);

  // The new job lands; the stale handle never installs.
  C.Gate->release();
  EXPECT_TRUE(Code[2]->Optimized->wait());
  C.Svc.drain();
  EXPECT_EQ(Code[0]->Optimized->installed(), nullptr);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u);
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Cache->size(), 1u);
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

/// The same window when the submit is refused: the shared handle ends with
/// nothing installed, so the lookup stays on its fast code.
TEST(CacheFastTier, LookupDuringTheMissProbeOfARefusedSubmitStaysFast) {
  FastTierCache C(/*HoldProbe=*/true);
  C.Gate->release();
  // Use up the tenant's share with a job pinned on the only worker.
  C.Svc.setKeyQueueShare("t", 1);
  CompileOptions Opts;
  Opts.FairnessKey = "t";
  PinnedWorker Pin(C.Svc, Opts);
  ASSERT_TRUE(Pin.Ticket.valid());

  qir::Module M;
  buildAffine(M, 5);
  std::unique_ptr<CompiledModule> Code[2];
  std::thread Miss([&] { Code[0] = C.Cache->compile(M, Opts); });
  C.Probe->waitEntered();
  Code[1] = C.Cache->compile(M, Opts);
  C.Probe->release();
  Miss.join();
  Pin.release();

  for (const auto &Mod : Code) {
    ASSERT_NE(Mod, nullptr);
    EXPECT_EQ(Mod->entryAs<int64_t (*)(int64_t)>("f")(2), 17);
  }
  ASSERT_NE(Code[1]->Optimized, nullptr);
  EXPECT_FALSE(Code[1]->Optimized->pending());
  EXPECT_EQ(Code[1]->Optimized->installed(), nullptr);
  CacheStats S = C.Cache->stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.FastTier, 1u);
  EXPECT_EQ(C.Cache->size(), 1u);
  EXPECT_EQ(C.Cache->inFlight(), 0u);
  EXPECT_EQ(C.Counter->Compiles.load(), 1u) << "the miss compiled inline";
}
