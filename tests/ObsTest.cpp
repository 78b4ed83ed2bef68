//===- tests/ObsTest.cpp - Observability layer tests -----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and concurrency tests for src/obs: the metrics registry (atomic
/// hot path, snapshot/merge), the Perfetto trace sink (multi-threaded
/// recording, export, JSON validation), the ScopeSink hook that turns
/// TimeTraceScopes into timeline slices, and the registry-backed stats
/// views of CachingBackend and CompileService. Built as its own binary so
/// the TSan CI job can run it (CTest label "obs").
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/Registry.h"
#include "backend/TierUp.h"
#include "obs/Obs.h"
#include "qir/Builder.h"
#include "support/MemContext.h"
#include <gtest/gtest.h>
#include <thread>

using namespace qcf;
using namespace qcf::qir;

namespace {

/// A one-function module `f(x) = x + k` — enough to drive real compiles.
qir::Module makeModule(int64_t K) {
  qir::Module M;
  qir::Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), B.constInt(Type::I64, K)));
  return M;
}

} // namespace

TEST(ObsMetrics, CounterGaugeBasics) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("c");
  C.inc();
  C.add(4);
  C.sub(1);
  EXPECT_EQ(C.value(), 4u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&Reg.counter("c"), &C);

  obs::Gauge &G = Reg.gauge("g");
  G.set(7);
  G.add(-2);
  EXPECT_EQ(G.value(), 5);
  G.updateMax(3); // lower: no change
  EXPECT_EQ(G.value(), 5);
  G.updateMax(11);
  EXPECT_EQ(G.value(), 11);
}

TEST(ObsMetrics, ConcurrentCountersAreExact) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("hot");
  obs::Histogram &H = Reg.histogram("lat");
  constexpr unsigned Threads = 8, PerThread = 10000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        C.inc();
        H.observe(T * 1000 + I);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), uint64_t(Threads) * PerThread);
  obs::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, uint64_t(Threads) * PerThread);
  EXPECT_EQ(S.MinNs, 0u);
  EXPECT_EQ(S.MaxNs, uint64_t(Threads - 1) * 1000 + PerThread - 1);
}

TEST(ObsMetrics, SnapshotMergeAndPrefixSum) {
  obs::MetricsRegistry A, B;
  A.counter("x.a").inc(2);
  A.gauge("depth").set(5);
  A.histogram("h").observe(100);
  B.counter("x.b").inc(3);
  B.counter("y").inc(1);
  B.gauge("depth").set(9);
  B.histogram("h").observe(50);

  obs::MetricsSnapshot S = A.snapshot();
  S.merge(B.snapshot());
  EXPECT_EQ(S.counter("x.a"), 2u);
  EXPECT_EQ(S.counter("x.b"), 3u);
  EXPECT_EQ(S.counterSumWithPrefix("x."), 5u);
  EXPECT_EQ(S.counterSumWithPrefix(""), 6u);
  EXPECT_EQ(S.gauge("depth"), 9); // gauges: last write wins
  const obs::HistogramSnapshot *H = S.histogram("h");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Count, 2u);
  EXPECT_EQ(H->MinNs, 50u);
  EXPECT_EQ(H->MaxNs, 100u);
}

TEST(ObsMetrics, ResetZeroesInPlace) {
  obs::MetricsRegistry Reg;
  obs::Counter &C = Reg.counter("c");
  obs::Histogram &H = Reg.histogram("h");
  C.inc(5);
  H.observe(10);
  Reg.reset();
  EXPECT_EQ(C.value(), 0u); // same reference, zeroed
  EXPECT_EQ(H.snapshot().Count, 0u);
  H.observe(3);
  EXPECT_EQ(H.snapshot().MinNs, 3u); // min sentinel restored by reset
}

TEST(ObsMetrics, RenderJsonIsWellFormedEnough) {
  obs::MetricsRegistry Reg;
  Reg.counter("a\"quoted\"").inc();
  Reg.histogram("h").observe(42);
  std::string J = Reg.snapshot().renderJson();
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(J.find("\"p50_ns\""), std::string::npos);
}

TEST(ObsTrace, MultiThreadedRecordingExportsValidJson) {
  obs::TraceSink Sink;
  constexpr unsigned Threads = 4, Events = 200;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&] {
      for (unsigned I = 0; I != Events; ++I) {
        // Real [start, now) spans: consecutive slices on one thread can
        // touch but never partially overlap, which nesting validation
        // would reject.
        uint64_t Start = nowNs();
        Sink.completeEvent("work", "test", Start, nowNs() - Start);
      }
      Sink.instantEvent("done", "test");
      Sink.counterEvent("progress", Events);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Sink.numEvents(), Threads * (Events + 2));
  std::string Err;
  EXPECT_TRUE(obs::validateTraceJson(Sink.exportJson(), &Err)) << Err;
  Sink.clear();
  EXPECT_EQ(Sink.numEvents(), 0u);
}

TEST(ObsTrace, ScopeSinkBindingCapturesTimeTraceScopes) {
  obs::TraceSink Sink;
  {
    ScopeSinkBinding Bind(&Sink);
    // No TimeTrace attached: the scope still reaches the sink.
    TimeTraceScope Outer(nullptr, "outer");
    TimeTraceScope Inner(nullptr, "inner");
  }
  // Binding restored: scopes no longer recorded.
  { TimeTraceScope After(nullptr, "after"); }
  EXPECT_EQ(Sink.numEvents(), 2u);
  std::string Json = Sink.exportJson();
  EXPECT_NE(Json.find("\"inner\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_EQ(Json.find("\"after\""), std::string::npos);
  std::string Err;
  EXPECT_TRUE(obs::validateTraceJson(Json, &Err)) << Err;
}

TEST(ObsTrace, ValidatorRejectsGarbageAndOverlap) {
  std::string Err;
  EXPECT_FALSE(obs::validateTraceJson("not json", &Err));
  EXPECT_FALSE(obs::validateTraceJson("{\"noTraceEvents\":1}", &Err));
  // Missing dur on an 'X' slice.
  EXPECT_FALSE(obs::validateTraceJson(
      "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,"
      "\"pid\":1,\"tid\":1}]}",
      &Err));
  // Partial overlap on one thread: [0,10) vs [5,20) cannot nest.
  EXPECT_FALSE(obs::validateTraceJson(
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":15,\"pid\":1,\"tid\":1}"
      "]}",
      &Err));
  // The same two slices nested properly are fine.
  EXPECT_TRUE(obs::validateTraceJson(
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":20,\"pid\":1,\"tid\":1},"
      "{\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":1,\"tid\":1}"
      "]}",
      &Err))
      << Err;
}

TEST(ObsCompile, StructuralMetricsAlwaysOnPerBackend) {
  // Every back-end must publish compile.<name>.count/.ns even with a
  // default ObsContext — into the registry we attach explicitly here so
  // the test does not depend on global() state.
  qir::Module M = makeModule(1);
  for (const std::string &Name : backend::allBackendNames()) {
    if (Name == "GCC")
      continue; // spawns the external compiler; covered by GccTest
    auto BE = backend::createBackend(Name);
    obs::MetricsRegistry Reg;
    backend::CompileOptions Opts{obs::ObsContext(nullptr, &Reg)};
    auto Compiled = BE->compile(M, Opts);
    ASSERT_NE(Compiled, nullptr) << Name;
    obs::MetricsSnapshot S = Reg.snapshot();
    EXPECT_EQ(S.counter("compile." + Name + ".count"), 1u) << Name;
    const obs::HistogramSnapshot *H = S.histogram("compile." + Name + ".ns");
    ASSERT_NE(H, nullptr) << Name;
    EXPECT_EQ(H->Count, 1u) << Name;
  }
}

TEST(ObsCompile, MemMetricsAppearPerPhaseAfterCompile) {
  // A compile with a registry attached must publish its allocation
  // telemetry as mem.<backend>.<phase>.bytes/allocs (DESIGN.md
  // "Compilation memory"), alongside the compile.* timing metrics.
  qir::Module M = makeModule(1);
  auto BE = backend::createBackend("MLVM-cheap");
  obs::MetricsRegistry Reg;
  backend::CompileOptions Opts{obs::ObsContext(nullptr, &Reg)};
  auto Compiled = BE->compile(M, Opts);
  ASSERT_NE(Compiled, nullptr);
  obs::MetricsSnapshot S = Reg.snapshot();
  // IR construction and instruction selection always allocate nodes.
  EXPECT_GT(S.counter("mem.MLVM-cheap.irgen.bytes"), 0u);
  EXPECT_GT(S.counter("mem.MLVM-cheap.irgen.allocs"), 0u);
  EXPECT_GT(S.counter("mem.MLVM-cheap.isel.bytes"), 0u);
  EXPECT_GT(S.counter("mem.MLVM-cheap.mirpasses.allocs"), 0u);
  EXPECT_GT(S.counter("mem.MLVM-cheap.mc.allocs"), 0u);
  // Exactly one compile ran, in the QCF_ALLOC-default mode.
  EXPECT_EQ(S.counter("mem.MLVM-cheap.compiles." +
                      std::string(allocModeName(allocModeFromEnv()))),
            1u);
  // The whole mem.* family sums to the per-phase values (no stray keys).
  EXPECT_GT(S.counterSumWithPrefix("mem.MLVM-cheap."), 0u);

  // Craneline publishes its side-table scratch volume the same way.
  auto CL = backend::createBackend("Craneline");
  CL->compile(M, Opts);
  obs::MetricsSnapshot S2 = Reg.snapshot();
  EXPECT_GT(S2.counter("mem.Craneline.irpasses.bytes"), 0u);
  EXPECT_EQ(S2.counter("mem.Craneline.compiles." +
                       std::string(allocModeName(allocModeFromEnv()))),
            1u);
}

TEST(ObsCompile, CacheStatsAreARegistryView) {
  obs::MetricsRegistry Reg;
  backend::CachingBackend BE(backend::createBackend("DirectEmit"),
                             /*Capacity=*/1, /*Service=*/nullptr, &Reg);
  qir::Module A = makeModule(1), B = makeModule(2), C = makeModule(3);
  BE.compile(A);
  BE.compile(A); // hit
  BE.compile(B); // miss; evicts A (capacity 1)
  BE.compile(C); // miss; evicts B

  backend::CacheStats S = BE.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.lookups(), S.Hits + S.Misses);

  // The view and the registry must agree — stats() has no second set of
  // books.
  obs::MetricsSnapshot Snap = Reg.snapshot();
  const std::string P = BE.metricsPrefix();
  EXPECT_EQ(Snap.counter(P + "hits"), S.Hits);
  EXPECT_EQ(Snap.counter(P + "misses"), S.Misses);
  EXPECT_EQ(Snap.counter(P + "evictions"), S.Evictions);
  EXPECT_EQ(Snap.counter(P + "inflight_waits"), S.InFlightWaits);
}

TEST(ObsCompile, CompileServiceStatsAreARegistryView) {
  obs::MetricsRegistry Reg;
  auto Inner = backend::createBackend("DirectEmit");
  qir::Module M = makeModule(5);
  {
    backend::CompileService Svc(2, 0, &Reg);
    std::vector<std::shared_ptr<backend::TierUp>> Ups;
    for (int I = 0; I != 8; ++I) {
      Ups.push_back(std::make_shared<backend::TierUp>());
      ASSERT_TRUE(Svc.submit(M, *Inner, {}, nullptr, Ups.back()));
    }
    for (std::shared_ptr<backend::TierUp> &Up : Ups)
      EXPECT_NE(Up->wait(), nullptr);

    backend::CompileServiceStats S = Svc.stats();
    EXPECT_EQ(S.JobsQueued, 8u);
    EXPECT_EQ(S.JobsCompleted, 8u);
    EXPECT_EQ(S.JobsCancelled, 0u);
    ASSERT_EQ(S.PerBackend.count("DirectEmit"), 1u);
    const backend::CompileLatency &L = S.PerBackend.at("DirectEmit");
    EXPECT_EQ(L.Count, 8u);
    EXPECT_GT(L.TotalSec, 0.0);
    EXPECT_LE(L.MinSec, L.MaxSec);

    obs::MetricsSnapshot Snap = Reg.snapshot();
    const std::string P = Svc.metricsPrefix();
    EXPECT_EQ(Snap.counter(P + "jobs_queued"), 8u);
    EXPECT_EQ(Snap.counter(P + "jobs_completed"), 8u);
    const obs::HistogramSnapshot *H =
        Snap.histogram(P + "latency.DirectEmit");
    ASSERT_NE(H, nullptr);
    EXPECT_EQ(H->Count, 8u);
  }
}

TEST(ObsCompile, ServiceCarriesObsContextToWorkerThreads) {
  // The sink is bound inside compile() on the worker thread, so slices
  // from service-side compiles land in the submitting query's trace.
  obs::MetricsRegistry Reg;
  obs::TraceSink Sink;
  auto Inner = backend::createBackend("MLVM-cheap");
  qir::Module M = makeModule(9);
  backend::CompileService Svc(2);
  backend::CompileOptions Opts{obs::ObsContext(nullptr, &Reg, &Sink)};
  auto Up = std::make_shared<backend::TierUp>();
  ASSERT_TRUE(Svc.submit(M, *Inner, Opts, nullptr, Up));
  ASSERT_NE(Up->wait(), nullptr);
  EXPECT_EQ(Reg.snapshot().counter("compile.MLVM-cheap.count"), 1u);
  // Spanning slice + per-pass slices from the worker thread.
  EXPECT_GT(Sink.numEvents(), 1u);
  std::string Err;
  EXPECT_TRUE(obs::validateTraceJson(Sink.exportJson(), &Err)) << Err;
}
