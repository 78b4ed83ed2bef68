//===- tests/ServeTest.cpp - Serving-layer tests ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the serving layer (src/serve/): AdmissionGate slot/queue/
/// shed/cancel semantics, the Session lifecycle through Server (open,
/// execute, close, idle eviction, quotas, shutdown), the cancel-before-
/// run contract (a cancelled query abandons its queued compile ticket
/// instead of waiting for a worker), and the restart storm — several
/// forked processes sharing one $QCF_CODE_CACHE directory, with the
/// warm wave required to install everything from disk and the blob
/// population required to stay checksum-valid throughout. Also the
/// qcf_serve request-line parser (serve/Protocol.h) and the plan cache
/// (keying, catalog re-check, sharing across sessions, LRU ceiling).
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "interp/Interp.h"
#include "qir/Builder.h"
#include "qir/Verify.h"
#include "runtime/Trap.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "support/TimeTrace.h"
#include "tests/CountingBackend.h"
#include "tests/GateBackend.h"
#include "tests/RandomQir.h"
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace qcf;
using namespace qcf::serve;
using qcf::test::CountingBackend;
using qcf::test::GateBackend;

namespace {

/// Small shared catalog + query for Server tests (column addresses are
/// baked into generated code, so one catalog serves every test).
struct Corpus {
  db::Catalog Cat;
  std::vector<db::Query> Queries;
  Corpus() {
    db::generateTpchLike(Cat, 0.01);
    Queries = db::tpchQueries();
  }
};

Corpus &corpus() {
  static Corpus C;
  return C;
}

ServerConfig testConfig(obs::MetricsRegistry *Reg) {
  ServerConfig Cfg;
  Cfg.BackendName = "DirectEmit";
  Cfg.CompileWorkers = 2;
  Cfg.StartSweeper = false;
  Cfg.Reg = Reg;
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// AdmissionGate
//===----------------------------------------------------------------------===//

TEST(AdmissionGate, AdmitsUpToSlotsThenQueues) {
  obs::MetricsRegistry Reg;
  AdmissionGate::Config Cfg;
  Cfg.Slots = 2;
  Cfg.MaxWaiters = 4;
  AdmissionGate G(Cfg, &Reg);

  EXPECT_EQ(G.enter().Outcome, Admit::Ok);
  EXPECT_EQ(G.enter().Outcome, Admit::Ok);
  EXPECT_EQ(G.running(), 2u);

  // Third entry waits; a leave() promotes it.
  std::atomic<bool> Entered{false};
  std::thread T([&] {
    EXPECT_EQ(G.enter().Outcome, Admit::Ok);
    Entered.store(true);
  });
  while (G.waiting() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_FALSE(Entered.load());
  G.leave(1'000'000);
  T.join();
  EXPECT_TRUE(Entered.load());
  EXPECT_EQ(G.running(), 2u);
  G.leave();
  G.leave();
  EXPECT_EQ(G.running(), 0u);
  EXPECT_EQ(Reg.snapshot().counter("serve.admission.admitted"), 3u);
}

TEST(AdmissionGate, RejectsTypedWhenQueueFull) {
  AdmissionGate::Config Cfg;
  Cfg.Slots = 1;
  Cfg.MaxWaiters = 0; // No queue: overflow rejects immediately.
  AdmissionGate G(Cfg);

  ASSERT_EQ(G.enter().Outcome, Admit::Ok);
  G.leave(5'000'000); // Seed the EWMA so the hint is nonzero.
  ASSERT_EQ(G.enter().Outcome, Admit::Ok);
  AdmissionGate::Decision D = G.enter();
  EXPECT_EQ(D.Outcome, Admit::QueueFull);
  EXPECT_GT(D.RetryAfterNs, 0u);
  G.leave();
}

TEST(AdmissionGate, ColdRetryHintUsesConfiguredHoldEstimate) {
  // Regression: before any query completed the EWMA had no samples and
  // the hint degraded to the 1ms spin floor — exactly during a restart
  // stampede, when holds are compile-dominated. A cold gate must quote
  // the configured estimate, not the floor.
  AdmissionGate::Config Cfg;
  Cfg.Slots = 1;
  Cfg.MaxWaiters = 0;
  Cfg.ColdHoldNs = 40'000'000;
  AdmissionGate G(Cfg);

  ASSERT_EQ(G.enter().Outcome, Admit::Ok); // Occupy the slot; EWMA empty.
  AdmissionGate::Decision Cold = G.enter();
  EXPECT_EQ(Cold.Outcome, Admit::QueueFull);
  // One queued-ahead request over one slot: the full cold estimate.
  EXPECT_EQ(Cold.RetryAfterNs, 40'000'000u);

  // Once a real hold lands, the EWMA replaces the cold estimate.
  G.leave(2'000'000);
  ASSERT_EQ(G.enter().Outcome, Admit::Ok);
  AdmissionGate::Decision Warm = G.enter();
  EXPECT_EQ(Warm.Outcome, Admit::QueueFull);
  EXPECT_EQ(Warm.RetryAfterNs, 2'000'000u);
  G.leave();
}

TEST(AdmissionGate, ColdHintNeverDropsBelowSpinFloor) {
  AdmissionGate::Config Cfg;
  Cfg.Slots = 8; // Queued(1) * hold / 8 would quote microseconds...
  Cfg.MaxWaiters = 0;
  Cfg.ColdHoldNs = 0; // ...and a zero estimate must not mean "now".
  AdmissionGate G(Cfg);
  for (unsigned I = 0; I != 8; ++I)
    ASSERT_EQ(G.enter().Outcome, Admit::Ok);
  AdmissionGate::Decision D = G.enter();
  EXPECT_EQ(D.Outcome, Admit::QueueFull);
  EXPECT_GE(D.RetryAfterNs, 1'000'000u);
  for (unsigned I = 0; I != 8; ++I)
    G.leave();
}

TEST(AdmissionGate, HighPriorityShedsNewestLowWaiter) {
  AdmissionGate::Config Cfg;
  Cfg.Slots = 1;
  Cfg.MaxWaiters = 1;
  AdmissionGate G(Cfg);
  ASSERT_EQ(G.enter().Outcome, Admit::Ok); // Occupy the slot.

  std::atomic<int> LowOutcome{-1}, HighOutcome{-1};
  std::thread Low([&] {
    LowOutcome.store(int(G.enter(/*LowPriority=*/true).Outcome));
  });
  while (G.waiting() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Queue is full (MaxWaiters=1); the normal-priority arrival sheds the
  // low-priority waiter and takes its place.
  std::thread High([&] { HighOutcome.store(int(G.enter().Outcome)); });
  Low.join();
  EXPECT_EQ(LowOutcome.load(), int(Admit::Shed));
  while (G.waiting() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  G.leave();
  High.join();
  EXPECT_EQ(HighOutcome.load(), int(Admit::Ok));
  G.leave();
}

TEST(AdmissionGate, CancelTokenAbandonsWait) {
  AdmissionGate::Config Cfg;
  Cfg.Slots = 1;
  AdmissionGate G(Cfg);
  ASSERT_EQ(G.enter().Outcome, Admit::Ok);

  qcf::CancelToken Ct;
  std::atomic<int> Outcome{-1};
  std::thread T([&] { Outcome.store(int(G.enter(false, &Ct).Outcome)); });
  while (G.waiting() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  Ct.cancel();
  T.join();
  EXPECT_EQ(Outcome.load(), int(Admit::Cancelled));
  EXPECT_EQ(G.waiting(), 0u);
  G.leave();
}

TEST(AdmissionGate, CloseRejectsWaitersAndFutureEntries) {
  AdmissionGate::Config Cfg;
  Cfg.Slots = 1;
  AdmissionGate G(Cfg);
  ASSERT_EQ(G.enter().Outcome, Admit::Ok);

  std::atomic<int> Outcome{-1};
  std::thread T([&] { Outcome.store(int(G.enter().Outcome)); });
  while (G.waiting() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  G.close();
  T.join();
  EXPECT_EQ(Outcome.load(), int(Admit::ServerStopped));
  EXPECT_EQ(G.enter().Outcome, Admit::ServerStopped);
}

//===----------------------------------------------------------------------===//
// Protocol: qcf_serve request lines
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, ParsesEveryVerb) {
  EXPECT_EQ(parseRequest("").K, Request::Empty);
  EXPECT_EQ(parseRequest("PING\r").K, Request::Ping);
  EXPECT_EQ(parseRequest("STATS").K, Request::Stats);
  EXPECT_EQ(parseRequest("SHUTDOWN").K, Request::Shutdown);
  Request O = parseRequest("OPEN acme");
  EXPECT_EQ(O.K, Request::Open);
  EXPECT_EQ(O.Name, "acme");
  Request C = parseRequest("CLOSE 7");
  EXPECT_EQ(C.K, Request::Close);
  EXPECT_EQ(C.Session, 7u);
  Request E = parseRequest("EXEC 3  q1 250");
  EXPECT_EQ(E.K, Request::Exec);
  EXPECT_EQ(E.Session, 3u);
  EXPECT_EQ(E.Name, "q1");
  EXPECT_EQ(E.DeadlineNs, 250'000'000u);
  EXPECT_EQ(parseRequest("EXEC 3 q1").DeadlineNs, 0u);
  uint64_t MaxMs = UINT64_MAX / 1'000'000;
  EXPECT_EQ(parseRequest("EXEC 3 q1 " + std::to_string(MaxMs)).DeadlineNs,
            MaxMs * 1'000'000);
}

// The three defects of the daemon's old inline parser: an unbounded line,
// a deadline whose nanoseconds wrapped, and a session id read as 0.
TEST(ServeProtocol, MalformedRequestsGetTypedErrors) {
  auto ErrOf = [](const std::string &Line) {
    Request R = parseRequest(Line);
    return R.K == Request::Invalid ? std::string(R.Err) : std::string("ok");
  };
  EXPECT_EQ(ErrOf(std::string(MaxRequestLine, 'A')), "bad-request");
  EXPECT_EQ(ErrOf(std::string(MaxRequestLine + 1, 'A')), "line-too-long");
  EXPECT_EQ(ErrOf("EXEC 1 q1 " + std::to_string(UINT64_MAX / 1'000'000 + 1)),
            "bad-deadline");
  EXPECT_EQ(ErrOf("EXEC 1 q1 99999999999999999999999"), "bad-deadline");
  EXPECT_EQ(ErrOf("EXEC 1 q1 -5"), "bad-deadline");
  EXPECT_EQ(ErrOf("EXEC abc q1"), "bad-session");
  EXPECT_EQ(ErrOf("CLOSE 12x"), "bad-session");
  EXPECT_EQ(ErrOf("EXEC 1"), "bad-request");
  EXPECT_EQ(ErrOf("OPEN"), "bad-request");
  EXPECT_EQ(ErrOf("FLY away"), "bad-request");
}

// Every QCF_SERVE_* value that does not parse or is out of range is an
// error naming its variable, never a silent 0, a wrapped product or a
// null back-end.
TEST(ServeEnv, MalformedValuesNameTheVariable) {
  auto ErrOf = [](const char *Name, const char *Value) {
    ::setenv(Name, Value, 1);
    std::string Err;
    bool Ok = std::string(Name) == "QCF_SERVE_TENANTS"
                  ? tenantsFromEnv(Err).has_value()
                  : ServerConfig::fromEnv(Err).has_value();
    ::unsetenv(Name);
    return Ok ? std::string("ok") : Err;
  };
  const std::pair<const char *, const char *> Bad[] = {
      {"QCF_SERVE_BACKEND", "Bogus"},
      {"QCF_SERVE_BACKEND", "Adaptive"},
      {"QCF_SERVE_SLOTS", "abc"},
      {"QCF_SERVE_SLOTS", "0"},
      {"QCF_SERVE_SLOTS", "4294967296"},
      {"QCF_SERVE_SWEEP_MS", "0"},
      {"QCF_SERVE_QUEUE_CAP", "-1"},
      {"QCF_SERVE_DEADLINE_MS", "18446744073710"},
      {"QCF_SERVE_IDLE_TIMEOUT_MS", "99999999999999999999999"},
      {"QCF_SERVE_TENANTS", "acme:x:64:8"},
      {"QCF_SERVE_TENANTS", "acme:1:17592186044416:8"},
      {"QCF_SERVE_TENANTS", "acme:1:2:3:fg"},
      {"QCF_SERVE_TENANTS", ":1:2:3"},
      {"QCF_SERVE_TENANTS", "acme:1,,batch:2"},
  };
  for (auto [Name, Value] : Bad)
    EXPECT_NE(ErrOf(Name, Value).find(Name), std::string::npos)
        << Name << "=" << Value;
  EXPECT_EQ(ErrOf("QCF_SERVE_DEADLINE_MS", "18446744073709"), "ok");
  EXPECT_EQ(ErrOf("QCF_SERVE_BACKEND", "MLVM-opt"), "ok");

  ::setenv("QCF_SERVE_TENANTS", "acme:100:64:8,batch:20:16:2:bg", 1);
  std::string Err;
  auto Tenants = tenantsFromEnv(Err);
  ::unsetenv("QCF_SERVE_TENANTS");
  ASSERT_TRUE(Tenants) << Err;
  ASSERT_EQ(Tenants->size(), 2u);
  EXPECT_EQ((*Tenants)[0].second.MaxCompileBytes, 64ull << 20);
  EXPECT_FALSE((*Tenants)[0].second.Background);
  EXPECT_EQ((*Tenants)[1].first, "batch");
  EXPECT_EQ((*Tenants)[1].second.MaxQueuedCompiles, 2u);
  EXPECT_TRUE((*Tenants)[1].second.Background);
}

//===----------------------------------------------------------------------===//
// Server: sessions, quotas, lifecycle
//===----------------------------------------------------------------------===//

TEST(Serve, SessionLifecycleAndMetrics) {
  obs::MetricsRegistry Reg;
  ServerConfig Cfg = testConfig(&Reg);
  // Craneline (not DirectEmit): the serving default, which compiles
  // into its own IR/MIR arenas.
  Cfg.BackendName = "Craneline";
  Server Srv(Cfg, corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});

  OpenOutcome O = Srv.openSession("acme");
  ASSERT_EQ(O.Outcome, Admit::Ok);
  ASSERT_NE(O.SessionId, 0u);
  EXPECT_EQ(Srv.numSessions(), 1u);

  rt::OutputBuffer Out;
  QueryOutcome R = Srv.execute(O.SessionId, corpus().Queries[0], &Out);
  ASSERT_EQ(R.Outcome, Admit::Ok);
  ASSERT_TRUE(R.Ok);
  EXPECT_GT(R.Rows, 0u);
  EXPECT_GT(R.TotalNs, 0u);
  // The query's compile-byte reservation was released when it ended.
  EXPECT_EQ(Reg.snapshot().gauge("serve.tenant.acme.compile_bytes"), 0);
  // A cold miss ran on the fast tier; Craneline compiles in the background.
  EXPECT_EQ(Srv.cacheBackend().stats().FastTier, 1u);

  // Same query again: identical digest, warm this time.
  QueryOutcome R2 = Srv.execute(O.SessionId, corpus().Queries[0]);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R2.Rows, R.Rows);
  EXPECT_EQ(R2.Digest, R.Digest);

  EXPECT_EQ(Srv.closeSession(O.SessionId), Admit::Ok);
  EXPECT_EQ(Srv.closeSession(O.SessionId), Admit::UnknownSession);
  EXPECT_EQ(Srv.execute(O.SessionId, corpus().Queries[0]).Outcome,
            Admit::UnknownSession);
  EXPECT_EQ(Srv.numSessions(), 0u);

  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.counter("serve.sessions.opened"), 1u);
  EXPECT_EQ(Snap.counter("serve.sessions.closed"), 1u);
  EXPECT_EQ(Snap.gauge("serve.sessions.open"), 0);
  EXPECT_EQ(Snap.counter("serve.queries.ok"), 2u);
  EXPECT_EQ(Snap.counter("serve.admission.admitted"), 2u);
  EXPECT_GT(Snap.counterSumWithPrefix("serve."), 0u);
  EXPECT_NE(Srv.statsText().find("serve.sessions.opened"), std::string::npos);
}

TEST(Serve, UnknownTenantAndStoppedServerAreTyped) {
  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});
  EXPECT_EQ(Srv.openSession("nobody").Outcome, Admit::UnknownTenant);

  OpenOutcome O = Srv.openSession("acme");
  ASSERT_EQ(O.Outcome, Admit::Ok);
  Srv.shutdown();
  EXPECT_EQ(Srv.openSession("acme").Outcome, Admit::ServerStopped);
  EXPECT_EQ(Srv.execute(O.SessionId, corpus().Queries[0]).Outcome,
            Admit::ServerStopped);
  Srv.shutdown(); // Idempotent.
}

TEST(Serve, TenantSessionQuotaEnforced) {
  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), corpus().Cat);
  TenantQuota Q;
  Q.MaxSessions = 2;
  Srv.registerTenant("capped", Q);

  OpenOutcome A = Srv.openSession("capped");
  OpenOutcome B = Srv.openSession("capped");
  ASSERT_EQ(A.Outcome, Admit::Ok);
  ASSERT_EQ(B.Outcome, Admit::Ok);
  OpenOutcome C = Srv.openSession("capped");
  EXPECT_EQ(C.Outcome, Admit::SessionQuota);
  EXPECT_GT(C.RetryAfterNs, 0u);

  // Closing one frees the slot.
  ASSERT_EQ(Srv.closeSession(A.SessionId), Admit::Ok);
  EXPECT_EQ(Srv.openSession("capped").Outcome, Admit::Ok);
  EXPECT_EQ(Reg.snapshot().counter("serve.tenant.capped.rejected.sessions"),
            1u);
}

TEST(Serve, CompileBytesQuotaRejectsTyped) {
  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), corpus().Cat);
  TenantQuota Q;
  Q.MaxCompileBytes = 1; // Below the per-query reservation estimate.
  Srv.registerTenant("tiny", Q);

  OpenOutcome O = Srv.openSession("tiny");
  ASSERT_EQ(O.Outcome, Admit::Ok);
  QueryOutcome R = Srv.execute(O.SessionId, corpus().Queries[0]);
  EXPECT_EQ(R.Outcome, Admit::CompileBytesQuota);
  EXPECT_FALSE(R.Ok);
  EXPECT_GT(R.RetryAfterNs, 0u);
  EXPECT_EQ(Reg.snapshot().counter("serve.tenant.tiny.rejected.compile_bytes"),
            1u);
  // The failed reservation left nothing behind.
  EXPECT_EQ(Reg.snapshot().gauge("serve.tenant.tiny.compile_bytes"), 0);
}

TEST(Serve, IdleSessionsEvictedByExplicitClock) {
  obs::MetricsRegistry Reg;
  ServerConfig Cfg = testConfig(&Reg);
  Cfg.IdleTimeoutNs = 1'000'000'000ull;
  Server Srv(Cfg, corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});

  OpenOutcome A = Srv.openSession("acme");
  OpenOutcome B = Srv.openSession("acme");
  ASSERT_EQ(A.Outcome, Admit::Ok);
  ASSERT_EQ(B.Outcome, Admit::Ok);

  // Not idle long enough: nothing happens.
  EXPECT_EQ(Srv.evictIdleSessions(), 0u);
  EXPECT_EQ(Srv.numSessions(), 2u);

  // Jump the clock past the timeout: both go.
  uint64_t Future = qcf::nowNs() + 2'000'000'000ull;
  EXPECT_EQ(Srv.evictIdleSessions(Future), 2u);
  EXPECT_EQ(Srv.numSessions(), 0u);
  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_EQ(Snap.counter("serve.sessions.evicted"), 2u);
  EXPECT_EQ(Snap.gauge("serve.sessions.open"), 0);
  EXPECT_EQ(Snap.gauge("serve.tenant.acme.sessions"), 0);
  EXPECT_EQ(Srv.execute(A.SessionId, corpus().Queries[0]).Outcome,
            Admit::UnknownSession);
}

TEST(Serve, ExpiredDeadlineCancelsQuery) {
  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});
  OpenOutcome O = Srv.openSession("acme");
  ASSERT_EQ(O.Outcome, Admit::Ok);

  // A 1ns deadline fires before (or during) the first morsel/wait tick;
  // either the admission wait or the execution path reports it.
  QueryOutcome R = Srv.execute(O.SessionId, corpus().Queries[0], nullptr, 1);
  EXPECT_TRUE(R.Cancelled || R.Outcome == Admit::Cancelled);
  EXPECT_FALSE(R.Ok);

  // The session survives a cancelled query and still serves.
  QueryOutcome R2 = Srv.execute(O.SessionId, corpus().Queries[0]);
  EXPECT_TRUE(R2.Ok);
}

TEST(Serve, CloseOfActiveSessionRetiresExactlyOnce) {
  obs::MetricsRegistry Reg;
  ServerConfig Cfg = testConfig(&Reg);
  Server Srv(Cfg, corpus().Cat);
  // Compile-latency jitter keeps queries in flight long enough for the
  // close to land mid-query at least some of the time; the assertion
  // holds in every interleaving.
  Srv.compileService().injectCompileLatencyForTest(2000);
  Srv.registerTenant("acme", TenantQuota{});

  for (int Round = 0; Round != 20; ++Round) {
    OpenOutcome O = Srv.openSession("acme");
    ASSERT_EQ(O.Outcome, Admit::Ok);
    std::thread T([&] { Srv.execute(O.SessionId, corpus().Queries[Round % 3]); });
    EXPECT_EQ(Srv.closeSession(O.SessionId), Admit::Ok);
    T.join();
    EXPECT_EQ(Srv.numSessions(), 0u);
  }
  obs::MetricsSnapshot Snap = Reg.snapshot();
  // Every session retired exactly once, whichever side won the race.
  EXPECT_EQ(Snap.counter("serve.sessions.opened"), 20u);
  EXPECT_EQ(Snap.counter("serve.sessions.closed"), 20u);
  EXPECT_EQ(Snap.gauge("serve.sessions.open"), 0);
  EXPECT_EQ(Snap.gauge("serve.tenant.acme.sessions"), 0);
  // All queries accounted with a typed disposition.
  EXPECT_EQ(Snap.counter("serve.queries.ok") +
                Snap.counter("serve.queries.cancelled") +
                Snap.counter("serve.queries.rejected"),
            20u);
}

//===----------------------------------------------------------------------===//
// Cancel-before-run: a cancelled query abandons its queued compile
//===----------------------------------------------------------------------===//

// The satellite regression for cancel-before-run across the full stack:
// executor -> caching backend -> compile service. A single service
// worker is pinned by a never-finishing compile, so the query's compile
// ticket sits in the queue; firing the query's ExecControl must make
// executeQuery return Cancelled promptly by *cancelling the queued
// ticket* — the pre-fix behaviour (wait for the worker) deadlocks this
// test, because the worker never frees up until after the join.
TEST(Serve, CancelledQueryAbandonsQueuedCompile) {
  backend::CompileService Svc(1);
  auto Counting =
      std::make_unique<CountingBackend>(backend::createBackend("DirectEmit"));
  CountingBackend *Counter = Counting.get();
  auto Gated = std::make_unique<GateBackend>(std::move(Counting));
  GateBackend *Gate = Gated.get();
  backend::CachingBackend Cache(std::move(Gated), 0, &Svc);

  // Pin the only worker.
  qir::Module Dummy;
  {
    qir::Function *F = Dummy.createFunction("f", {qir::Type::I64},
                                            qir::Type::I64);
    qir::Builder B(F);
    B.ret(F->paramValue(0));
  }
  backend::CompileTicket Pin = Svc.submit(Dummy, Cache.inner());
  ASSERT_TRUE(Pin.valid());
  Gate->waitStarted();

  db::CompiledPlan Plan = db::compileQuery(corpus().Queries[0], corpus().Cat);
  qcf::CancelToken Ctl;
  db::ExecOptions EO;
  EO.Control = &Ctl;
  std::atomic<bool> Returned{false};
  db::ExecResult R;
  std::thread T([&] {
    rt::OutputBuffer Out;
    R = db::executeQuery(Plan, Cache, corpus().Cat, &Out, EO);
    Returned.store(true);
  });

  // Wait until the query's compile job is queued behind the pin.
  for (int I = 0; I != 5000 && Svc.stats().JobsQueued < 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(Svc.stats().JobsQueued, 2u);

  Ctl.cancel();
  // The join only completes if the cancelled query abandoned its ticket:
  // the worker is still pinned, so waiting for the compile would hang.
  T.join();
  EXPECT_TRUE(Returned.load());
  EXPECT_TRUE(R.Cancelled);

  Gate->release();
  Pin.wait();
  Svc.shutdown();
  // The abandoned job was counted, and only the pin ever compiled.
  EXPECT_GE(Svc.stats().JobsCancelled, 1u);
  EXPECT_EQ(Counter->Compiles.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Restart storm over a shared on-disk code cache
//===----------------------------------------------------------------------===//

namespace {

struct Outcome {
  bool Trapped = false;
  uint64_t Value = 0;
  bool operator==(const Outcome &O) const {
    return Trapped == O.Trapped && (Trapped || Value == O.Value);
  }
};

Outcome invokeFn(void *Entry, uint64_t A, uint64_t B) {
  Outcome Out;
  uint64_t R = 0;
  rt::TrapCode Code = rt::runWithTrapGuard([&] {
    R = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(Entry)(A, B);
  });
  if (Code != rt::TrapCode::None)
    Out.Trapped = true;
  else
    Out.Value = R;
  return Out;
}

/// Same-seed-same-module corpus: identical fingerprints in every forked
/// process, which is what makes cross-process cache sharing observable.
std::unique_ptr<qir::Module> buildServeStormModule(uint64_t Seed) {
  auto M = std::make_unique<qir::Module>();
  Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
  test::RandomFnBuilder RB(*M, R);
  RB.build("rand");
  return M;
}

} // namespace

// Satellite: N serve processes restarting over one shared QCF_CODE_CACHE.
// Wave 1 (cold, concurrent) populates the cache while racing stores;
// wave 2 (warm) must install every module from disk with zero disk
// misses; the blob population must be checksum-valid throughout (no torn
// .qcc), and a deliberately corrupted blob must be rejected and healed
// by recompilation, not served.
TEST(Serve, RestartStormSharesDiskCache) {
  char DirTemplate[] = "/tmp/qcf_serve_storm_XXXXXX";
  ASSERT_NE(::mkdtemp(DirTemplate), nullptr);
  const std::string Dir = DirTemplate;
  ::setenv("QCF_CODE_CACHE", Dir.c_str(), 1);

  // Deterministic corpus + interpreter expectations, built pre-fork so
  // every child checks against the same truth.
  constexpr int NumModules = 6;
  constexpr int NumProcs = 4;
  interp::InterpBackend Interp;
  std::vector<std::unique_ptr<qir::Module>> Mods;
  std::vector<std::vector<Outcome>> Expected(NumModules);
  std::vector<std::pair<uint64_t, uint64_t>> Inputs = {
      {0, 0}, {~0ull, 1}, {42, 7}, {0x123456789abcdefull, 3}};
  for (int K = 0; K != NumModules; ++K) {
    Mods.push_back(buildServeStormModule(K));
    ASSERT_EQ(qir::verify(*Mods[K]), std::nullopt);
    auto Ref = Interp.compile(*Mods[K]);
    for (auto [A, B] : Inputs)
      Expected[K].push_back(invokeFn(Ref->entry("rand"), A, B));
  }

  // One serve process: a Server over the shared disk tier, corpus
  // compiled through its shared caching backend, differentially checked.
  // \p RequireWarm additionally demands every module installed from disk.
  auto RunProcess = [&](bool RequireWarm) {
    obs::MetricsRegistry Reg;
    ServerConfig Cfg;
    Cfg.BackendName = "DirectEmit";
    Cfg.CompileWorkers = 2;
    Cfg.StartSweeper = false;
    Cfg.Reg = &Reg;
    Server Srv(Cfg, corpus().Cat);
    if (!Srv.diskCache())
      return 2;
    for (int K = 0; K != NumModules; ++K) {
      auto C = Srv.cacheBackend().compile(*Mods[K]);
      if (!C)
        return 3;
      for (size_t J = 0; J != Inputs.size(); ++J)
        if (!(invokeFn(C->entry("rand"), Inputs[J].first, Inputs[J].second) ==
              Expected[K][J]))
          return 4;
    }
    backend::DiskCacheStats S = Srv.diskCache()->stats();
    if (RequireWarm && (S.Hits != NumModules || S.Rejected != 0))
      return 5;
    Srv.shutdown();
    return 0;
  };

  auto RunWave = [&](bool RequireWarm) {
    std::vector<pid_t> Pids;
    for (int P = 0; P != NumProcs; ++P) {
      pid_t Pid = ::fork();
      if (Pid == 0)
        ::_exit(RunProcess(RequireWarm));
      ASSERT_GT(Pid, 0);
      Pids.push_back(Pid);
    }
    for (pid_t Pid : Pids) {
      int Status = 0;
      ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
      ASSERT_TRUE(WIFEXITED(Status));
      EXPECT_EQ(WEXITSTATUS(Status), 0);
    }
  };

  RunWave(/*RequireWarm=*/false); // Cold storm: racing compiles + stores.
  RunWave(/*RequireWarm=*/true);  // Warm restarts: all from disk.

  // The shared directory holds exactly the corpus, every blob valid.
  std::vector<backend::DiskCodeCache::BlobInfo> Blobs =
      backend::DiskCodeCache::scan(Dir);
  EXPECT_EQ(Blobs.size(), size_t(NumModules));
  for (const backend::DiskCodeCache::BlobInfo &B : Blobs)
    EXPECT_TRUE(B.Valid) << B.File << ": " << B.Error;

  // Corrupt one blob in place (truncate to half): the next process must
  // reject it on checksum, recompile, and re-store a valid replacement.
  ASSERT_FALSE(Blobs.empty());
  {
    std::string Victim = Dir + "/" + Blobs[0].File;
    FILE *F = ::fopen(Victim.c_str(), "r+");
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(::ftruncate(::fileno(F), long(Blobs[0].SizeBytes / 2)), 0);
    ::fclose(F);
  }
  {
    obs::MetricsRegistry Reg;
    backend::DiskCodeCache Disk(Dir, 0, &Reg);
    auto Counting = std::make_unique<CountingBackend>(
        backend::createBackend("DirectEmit"));
    CountingBackend *Counter = Counting.get();
    backend::CachingBackend Cache(std::move(Counting), 0, nullptr, &Reg,
                                  &Disk);
    for (int K = 0; K != NumModules; ++K) {
      auto C = Cache.compile(*Mods[K]);
      ASSERT_NE(C, nullptr);
      for (size_t J = 0; J != Inputs.size(); ++J)
        EXPECT_TRUE(invokeFn(C->entry("rand"), Inputs[J].first,
                             Inputs[J].second) == Expected[K][J]);
    }
    backend::DiskCacheStats S = Disk.stats();
    EXPECT_GE(S.Rejected + S.Misses, 1u); // The torn blob was not served.
    EXPECT_EQ(Counter->Compiles.load(), 1u); // Only the victim recompiled.
    EXPECT_GE(S.Stores, 1u);                 // ... and was healed on disk.
  }
  for (const backend::DiskCodeCache::BlobInfo &B :
       backend::DiskCodeCache::scan(Dir))
    EXPECT_TRUE(B.Valid) << B.File << ": " << B.Error;

  // GC under a tiny budget evicts; what remains (nothing, here) is valid
  // and a fresh process simply recompiles.
  {
    backend::DiskCodeCache Budgeted(Dir, 1);
    EXPECT_GE(Budgeted.gc(), 1u);
  }
  EXPECT_EQ(RunProcess(/*RequireWarm=*/false), 0);

  ::unsetenv("QCF_CODE_CACHE");
  [[maybe_unused]] int Rc =
      std::system(("rm -rf " + Dir).c_str());
}

//===----------------------------------------------------------------------===//
// Plan cache
//===----------------------------------------------------------------------===//

namespace {

/// Rows and digest of \p Q lowered fresh and run on the interpreter:
/// what a served reply must match.
std::pair<uint64_t, uint64_t> freshRun(const db::Query &Q,
                                       const db::Catalog &Cat) {
  interp::InterpBackend Interp;
  db::CompiledPlan P = db::compileQuery(Q, Cat);
  rt::OutputBuffer Out;
  EXPECT_FALSE(db::executeQuery(P, Interp, Cat, &Out).Trapped);
  return {Out.numRows(), Out.unorderedDigest()};
}

/// The fields of one small lineitem query that the plan-cache key must
/// tell apart: a literal, a column name, a sort direction, a limit and
/// an output expression.
struct Knobs {
  int64_t QtyCents = 2400;
  std::string FilterCol = "l_quantity";
  bool Descending = false;
  uint64_t Limit = 10;
  std::string OutCol = "l_extendedprice";
};

db::Query knobQuery(const Knobs &K) {
  db::Query Q;
  Q.Name = "knobs";
  db::PlanPtr P = db::filter(db::scan("lineitem"),
                             db::lt(db::col(K.FilterCol),
                                    db::litDec(K.QtyCents)));
  Q.Root = db::sortBy(std::move(P), {{"l_orderkey", K.Descending}}, K.Limit);
  Q.Output.push_back(db::col("l_orderkey"));
  Q.Output.push_back(db::col(K.OutCol));
  return Q;
}

uint64_t planCounter(obs::MetricsRegistry &Reg, const char *Name) {
  return Reg.snapshot().counter(std::string("serve.plan_cache.") + Name);
}

} // namespace

TEST(Serve, PlanCacheKeysEveryQueryField) {
  std::vector<Knobs> Variants(6);
  Variants[1].QtyCents = 1000;
  Variants[2].FilterCol = "l_discount";
  Variants[3].Descending = true;
  Variants[4].Limit = 11;
  Variants[5].OutCol = "l_quantity";

  // Every variant answers differently, so a reply from another variant's
  // plan could not pass the digest check below.
  std::vector<std::pair<uint64_t, uint64_t>> Ref;
  for (const Knobs &K : Variants)
    Ref.push_back(freshRun(knobQuery(K), corpus().Cat));
  for (size_t I = 0; I != Ref.size(); ++I)
    for (size_t J = I + 1; J != Ref.size(); ++J)
      EXPECT_NE(Ref[I], Ref[J]) << "variants " << I << " and " << J;

  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});
  uint64_t Sid = Srv.openSession("acme").SessionId;
  for (int Round = 0; Round != 2; ++Round)
    for (size_t I = 0; I != Variants.size(); ++I) {
      QueryOutcome R = Srv.execute(Sid, knobQuery(Variants[I]));
      ASSERT_TRUE(R.Ok);
      EXPECT_EQ(R.Rows, Ref[I].first) << "variant " << I;
      EXPECT_EQ(R.Digest, Ref[I].second) << "variant " << I;
    }
  EXPECT_EQ(Srv.planCache().size(), Variants.size());
  EXPECT_EQ(planCounter(Reg, "misses"), Variants.size());
  EXPECT_EQ(planCounter(Reg, "hits"), Variants.size());
}

TEST(Serve, PlanCacheMissesWhenScannedColumnMoves) {
  db::Catalog Cat;
  db::Table &T = Cat.create("t");
  db::Column &A = T.addColumn("a", db::ColType::I64);
  db::Column &B = T.addColumn("b", db::ColType::I64);
  int64_t Rows = 0;
  auto Append = [&] {
    A.pushI64(Rows);
    B.pushI64(Rows * 7 % 13);
    ++Rows;
  };
  while (Rows != 100)
    Append();
  auto MakeQuery = [] {
    db::Query Q;
    Q.Name = "moved";
    Q.Root = db::filter(db::scan("t"), db::gt(db::col("b"), db::litI64(5)));
    Q.Output.push_back(db::col("a"));
    return Q;
  };

  obs::MetricsRegistry Reg;
  Server Srv(testConfig(&Reg), Cat);
  Srv.registerTenant("acme", TenantQuota{});
  uint64_t Sid = Srv.openSession("acme").SessionId;
  QueryOutcome R1 = Srv.execute(Sid, MakeQuery());
  ASSERT_TRUE(R1.Ok);
  ASSERT_TRUE(Srv.execute(Sid, MakeQuery()).Ok);
  EXPECT_EQ(planCounter(Reg, "hits"), 1u);

  // Grow the table until column a's storage reallocates: the cached plan
  // still points at the old array and must not run again.
  const void *Old = A.raw();
  while (A.raw() == Old)
    Append();
  std::pair<uint64_t, uint64_t> Ref = freshRun(MakeQuery(), Cat);

  QueryOutcome R2 = Srv.execute(Sid, MakeQuery());
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(planCounter(Reg, "misses"), 2u);
  EXPECT_EQ(planCounter(Reg, "hits"), 1u);
  EXPECT_GT(R2.Rows, R1.Rows);
  EXPECT_EQ(R2.Rows, Ref.first);
  EXPECT_EQ(R2.Digest, Ref.second);
  EXPECT_EQ(Srv.planCache().size(), 1u); // The stale entry was replaced.
}

TEST(Serve, PlanCacheSharedByConcurrentSessions) {
  obs::MetricsRegistry Reg;
  ServerConfig Cfg = testConfig(&Reg);
  Cfg.Admission.Slots = 2;
  Server Srv(Cfg, corpus().Cat);
  Srv.registerTenant("acme", TenantQuota{});
  const db::Query &Q = corpus().Queries[0];
  std::pair<uint64_t, uint64_t> Ref = freshRun(Q, corpus().Cat);

  constexpr unsigned Sessions = 2, PerSession = 120;
  std::atomic<unsigned> Correct{0};
  std::vector<std::thread> Threads;
  for (unsigned S = 0; S != Sessions; ++S)
    Threads.emplace_back([&] {
      uint64_t Sid = Srv.openSession("acme").SessionId;
      for (unsigned I = 0; I != PerSession; ++I) {
        QueryOutcome R = Srv.execute(Sid, Q);
        if (R.Ok && R.Rows == Ref.first && R.Digest == Ref.second)
          Correct.fetch_add(1, std::memory_order_relaxed);
      }
      Srv.closeSession(Sid);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Correct.load(), Sessions * PerSession);
  // Both sessions may miss on their first request; every later one hits.
  EXPECT_LE(planCounter(Reg, "misses"), uint64_t(Sessions));
  EXPECT_EQ(planCounter(Reg, "hits") + planCounter(Reg, "misses"),
            uint64_t(Sessions * PerSession));
  EXPECT_EQ(Srv.planCache().size(), 1u);
}

TEST(Serve, PlanCacheEvictsLruWithinByteCeiling) {
  // Copies of one query under names of one length lower to plans of one
  // footprint, so a ceiling of three of them holds exactly three.
  const db::Catalog &Cat = corpus().Cat;
  std::vector<db::Query> Qs;
  for (const char *Name : {"qa", "qb", "qc", "qd"}) {
    std::vector<db::Query> Suite = db::tpchQueries();
    Suite[0].Name = Name;
    Qs.push_back(std::move(Suite[0]));
  }
  uint64_t One;
  {
    obs::MetricsRegistry Reg;
    PlanCache Probe(~0ull, Reg);
    Probe.get(Qs[0], Cat);
    One = Probe.bytes();
  }

  obs::MetricsRegistry Reg;
  PlanCache PC(3 * One, Reg);
  // \returns whether the lookup hit.
  auto Touch = [&](size_t I) {
    uint64_t Before = planCounter(Reg, "hits");
    PC.get(Qs[I], Cat);
    EXPECT_LE(Reg.snapshot().gauge("serve.plan_cache.bytes"),
              int64_t(3 * One));
    return planCounter(Reg, "hits") == Before + 1;
  };
  EXPECT_FALSE(Touch(0));
  EXPECT_FALSE(Touch(1));
  EXPECT_FALSE(Touch(2)); // LRU order, newest first: c b a
  EXPECT_TRUE(Touch(0));  // a c b
  EXPECT_FALSE(Touch(3)); // Evicts b: d a c
  EXPECT_EQ(planCounter(Reg, "evictions"), 1u);
  EXPECT_TRUE(Touch(2));  // c d a
  EXPECT_TRUE(Touch(0));  // a c d
  EXPECT_FALSE(Touch(1)); // Evicts d: b a c
  EXPECT_FALSE(Touch(3)); // Evicts c: d b a
  EXPECT_TRUE(Touch(0));
  EXPECT_EQ(planCounter(Reg, "evictions"), 3u);
  EXPECT_EQ(PC.size(), 3u);
  EXPECT_EQ(PC.bytes(), 3 * One);

  // A server's cache publishes the same gauge under its fixed ceiling.
  obs::MetricsRegistry SrvReg;
  Server Srv(testConfig(&SrvReg), Cat);
  Srv.registerTenant("acme", TenantQuota{});
  uint64_t Sid = Srv.openSession("acme").SessionId;
  for (const db::Query &Q : corpus().Queries)
    ASSERT_TRUE(Srv.execute(Sid, Q).Ok) << Q.Name;
  int64_t Bytes = SrvReg.snapshot().gauge("serve.plan_cache.bytes");
  EXPECT_GT(Bytes, 0);
  EXPECT_EQ(uint64_t(Bytes), Srv.planCache().bytes());
  EXPECT_LE(uint64_t(Bytes), PlanCache::ServerMaxBytes);
  EXPECT_EQ(Srv.planCache().size(), corpus().Queries.size());
}
