//===- tests/OsrTest.cpp - Mid-query tier-swap differential suite ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cutover differential suite for morsel-boundary OSR
/// (ExecOptions::AdaptiveExec): for every corpus query and tier pair,
/// force the swap at each morsel boundary index in turn and assert the
/// result is byte-identical to the never-swapped baseline, with the
/// morsel accounting proving no range was lost, duplicated, or torn
/// across the swap. A concurrent mode repeats the exercise with
/// randomized compile-landing times under TSan.
///
/// Runtime is bounded two ways: back-ends are wrapped in CachingBackend
/// (a plan's module is identical across forced boundaries, so each tier
/// compiles it exactly once), and quick mode (QCF_OSR_QUICK=1, or any
/// TSan build) trims the tier-pair and query sets while still sweeping
/// every boundary of what it runs.
///
//===----------------------------------------------------------------------===//

#include "QueryCorpus.h"
#include "backend/Cache.h"
#include "backend/Registry.h"
#include "db/Executor.h"
#include "tests/GateBackend.h"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define QCF_OSR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define QCF_OSR_TSAN 1
#endif
#endif

using namespace qcf;
using namespace qcf::db;

namespace {

bool quickMode() {
#ifdef QCF_OSR_TSAN
  return true;
#else
  return std::getenv("QCF_OSR_QUICK") != nullptr;
#endif
}

/// The tiers the differential suite pairs up (GCC is excluded: its
/// compiles are three orders of magnitude slower and add no new swap
/// semantics — the entry-point contract is identical).
const std::vector<std::string> &tierNames() {
  static const std::vector<std::string> Names = {
      "Interpreter", "Stencil",    "DirectEmit",
      "Craneline",   "MLVM-cheap", "MLVM-opt"};
  return Names;
}

/// Shared caching wrapper per tier: every (tier, plan) compiles once for
/// the whole suite. An interpreted module reads its plan's qir::Module at
/// run time; planFor keeps every plan alive for the whole suite.
backend::Backend &cachedBackend(const std::string &Name) {
  static std::map<std::string, std::unique_ptr<backend::Backend>> Pool;
  auto It = Pool.find(Name);
  if (It == Pool.end()) {
    std::unique_ptr<backend::Backend> BE = backend::createBackend(Name);
    EXPECT_NE(BE, nullptr) << Name;
    It = Pool.emplace(Name, std::make_unique<backend::CachingBackend>(
                                std::move(BE)))
             .first;
  }
  return *It->second;
}

/// Fast tier for the fixed-pair suites: DirectEmit unless QCF_FAST_TIER
/// picks another rung (CI's TSan matrix runs Stencil and Craneline legs
/// this way).
backend::Backend &fastTier() {
  const char *Name = std::getenv("QCF_FAST_TIER");
  return cachedBackend(Name && *Name ? Name : "DirectEmit");
}

/// AdaptiveExec options: start on \p Fast, compile the optimized tier on
/// \p Svc, morsels of \p MS rows, swap forced at morsel \p K (-1: policy).
ExecOptions adaptive(backend::Backend &Fast, backend::CompileService &Svc,
                     uint64_t MS, int64_t K = -1) {
  ExecOptions O;
  O.MorselSize = MS;
  O.AdaptiveExec = true;
  O.FastBackend = &Fast;
  O.Service = &Svc;
  O.OsrForceSwapMorsel = K;
  return O;
}

/// Shared service for the optimized-tier compiles.
backend::CompileService &sharedService() {
  static backend::CompileService Svc(2);
  return Svc;
}

/// Compiled plans, one per corpus query (keyed by suite/query name).
const CompiledPlan &planFor(const QuerySuite &S, const Query &Q) {
  static std::map<std::string, std::unique_ptr<CompiledPlan>> Plans;
  std::string Key = std::string(S.Name) + "/" + Q.Name;
  auto It = Plans.find(Key);
  if (It == Plans.end())
    It = Plans
             .emplace(Key, std::make_unique<CompiledPlan>(
                               compileQuery(Q, *S.Cat)))
             .first;
  return *It->second;
}

/// Never-swapped baseline: the fast tier alone. \returns the result rows
/// and fills \p RowsOut with per-pipeline source row counts.
rt::OutputBuffer baselineRun(const CompiledPlan &Plan, backend::Backend &Fast,
                             const Catalog &Cat,
                             std::vector<uint64_t> *RowsOut = nullptr) {
  rt::OutputBuffer Out;
  ExecResult R = executeQuery(Plan, Fast, Cat, &Out);
  EXPECT_FALSE(R.Trapped);
  if (RowsOut) {
    RowsOut->clear();
    for (const PipelineStats &P : R.Stats.Pipelines)
      RowsOut->push_back(P.Rows);
  }
  return Out;
}

/// A morsel size that gives the largest pipeline about five morsels, so
/// sweeping every boundary index stays cheap while still covering the
/// interesting cutovers (first, interior, last, one-past-the-end). An
/// odd size also exercises the non-divisible final morsel.
uint64_t morselSizeFor(const std::vector<uint64_t> &PipeRows) {
  uint64_t MaxRows = 0;
  for (uint64_t R : PipeRows)
    MaxRows = std::max(MaxRows, R);
  return std::max<uint64_t>(257, MaxRows / 5 + 1);
}

uint64_t maxMorsels(const std::vector<uint64_t> &PipeRows, uint64_t MS) {
  uint64_t M = 0;
  for (uint64_t R : PipeRows)
    M = std::max(M, (R + MS - 1) / MS);
  return M;
}

/// Asserts the swap accounting invariant for one forced-cutover run:
/// every morsel executed exactly once, split between the tiers exactly
/// at the forced boundary.
void checkForcedAccounting(const ExecResult &R, uint64_t MS, int64_t K) {
  for (size_t PI = 0; PI != R.Stats.Pipelines.size(); ++PI) {
    const PipelineStats &P = R.Stats.Pipelines[PI];
    SCOPED_TRACE("pipeline " + std::to_string(PI));
    uint64_t NM = (P.Rows + MS - 1) / MS;
    EXPECT_EQ(P.Morsels, NM) << "lost or duplicated morsel";
    EXPECT_EQ(P.MorselsFast + P.MorselsOpt, P.Morsels) << "torn tier split";
    EXPECT_EQ(P.RowsFast + P.RowsOpt, P.Rows) << "torn row split";
    if (K >= 0 && static_cast<uint64_t>(K) < NM) {
      // Morsels are taken strictly in order, so the cutover is exact:
      // [0, K) fast, [K, NM) optimized.
      EXPECT_EQ(P.SwapMorsel, K);
      EXPECT_EQ(P.MorselsFast, static_cast<uint64_t>(K));
      EXPECT_EQ(P.MorselsOpt, NM - static_cast<uint64_t>(K));
    } else {
      // Boundary index beyond this pipeline's morsels: never swapped.
      EXPECT_EQ(P.SwapMorsel, -1);
      EXPECT_EQ(P.MorselsOpt, 0u);
    }
  }
}

ExecResult forcedRun(const CompiledPlan &Plan, backend::Backend &Opt,
                     backend::Backend &Fast, const Catalog &Cat,
                     rt::OutputBuffer &Out, uint64_t MS, int64_t K) {
  return executeQuery(Plan, Opt, Cat, &Out,
                      adaptive(Fast, sharedService(), MS, K));
}

} // namespace

/// The headline suite: forced swap at every morsel boundary index, for
/// every tier pair, over the corpus queries — byte-identical against the
/// never-swapped baseline every time.
TEST(OsrCutover, ForcedSwapEveryBoundaryEveryTierPair) {
  const bool Quick = quickMode();
  // Quick/TSan mode keeps one slow-fast pair, the canonical pair, and a
  // jit-to-jit pair; full mode takes the whole ordered cross product.
  std::vector<std::pair<std::string, std::string>> Pairs;
  if (Quick) {
    Pairs = {{"Interpreter", "MLVM-opt"},
             {"DirectEmit", "MLVM-opt"},
             {"DirectEmit", "Craneline"},
             {"Stencil", "MLVM-opt"},
             {"Stencil", "DirectEmit"},
             {"MLVM-cheap", "MLVM-opt"}};
  } else {
    for (const std::string &F : tierNames())
      for (const std::string &O : tierNames())
        if (F != O)
          Pairs.emplace_back(F, O);
  }

  uint64_t CorpusOutRows = 0;
  for (const QuerySuite &S : queryCorpus()) {
    size_t NumQ = Quick ? std::min<size_t>(3, S.Queries.size())
                        : S.Queries.size();
    for (size_t QI = 0; QI != NumQ; ++QI) {
      const Query &Q = S.Queries[QI];
      SCOPED_TRACE(std::string(S.Name) + "/" + Q.Name);
      const CompiledPlan &Plan = planFor(S, Q);

      for (const auto &[FastName, OptName] : Pairs) {
        SCOPED_TRACE(FastName + " -> " + OptName);
        backend::Backend &Fast = cachedBackend(FastName);
        backend::Backend &Opt = cachedBackend(OptName);

        std::vector<uint64_t> PipeRows;
        rt::OutputBuffer Base = baselineRun(Plan, Fast, *S.Cat, &PipeRows);
        // Zero *output* rows is fine (morsels run over input rows); the
        // corpus as a whole must not be vacuous, checked after the loop.
        CorpusOutRows += Base.numRows();
        uint64_t MS = morselSizeFor(PipeRows);
        uint64_t NM = maxMorsels(PipeRows, MS);

        // K == NM forces the boundary one past the end: the swap must
        // never fire and the run must still match.
        for (uint64_t K = 0; K <= NM; ++K) {
          SCOPED_TRACE("boundary " + std::to_string(K));
          rt::OutputBuffer Out;
          ExecResult R = forcedRun(Plan, Opt, Fast, *S.Cat, Out, MS,
                                   static_cast<int64_t>(K));
          ASSERT_FALSE(R.Trapped);
          EXPECT_TRUE(Base.equals(Out)) << "cutover changed the result";
          checkForcedAccounting(R, MS, static_cast<int64_t>(K));
          if (K < NM) {
            EXPECT_GE(R.Stats.OsrSwaps, 1u);
          }
        }
      }
    }
  }
  EXPECT_GT(CorpusOutRows, 0u) << "every corpus query returned zero rows";
}

/// Every pipeline's driver shares one handle on the optimized module, so
/// a pipeline that starts after another pipeline installed it must run
/// optimized code from its first morsel. The gated fast-tier compile holds
/// the query until the optimized compile has landed.
TEST(OsrCutover, PipelineStartedAfterInstallRunsOptimizedFromFirstMorsel) {
  QuerySuite &S = queryCorpus().front();
  const CompiledPlan &Plan = planFor(S, S.Queries.front());
  ASSERT_GE(Plan.Pipelines.size(), 2u);
  backend::CompileService Svc(1);
  test::GateBackend Fast(backend::createBackend("DirectEmit"));
  rt::OutputBuffer Out;
  ExecResult R;
  std::thread T([&] {
    R = executeQuery(Plan, cachedBackend("MLVM-opt"), *S.Cat, &Out,
                     adaptive(Fast, Svc, 257));
  });
  Fast.waitStarted();
  Svc.drain();
  Fast.release();
  T.join();
  ASSERT_FALSE(R.Trapped);
  EXPECT_TRUE(baselineRun(Plan, fastTier(), *S.Cat).equals(Out));
  uint64_t Started = 0;
  for (const PipelineStats &P : R.Stats.Pipelines)
    if (P.Rows > 0) {
      ++Started;
      EXPECT_EQ(P.MorselsFast, 0u);
      EXPECT_EQ(P.SwapMorsel, 0);
    }
  EXPECT_GE(Started, 2u);
  EXPECT_EQ(R.Stats.OsrSwaps, Started);
}

/// Concurrent mode: policy-driven swap, compile-landing time randomized
/// by the service's jitter hook, so the compile worker installs the
/// module at a different morsel of the query thread's loop every
/// repetition. Run under TSan in CI (label osr).
TEST(OsrCutover, ConcurrentRandomizedSwapTiming) {
  const bool Quick = quickMode();
  backend::CompileService Svc(2);
  uint64_t Seed = 0x5eedull;

  for (const QuerySuite &S : queryCorpus()) {
    size_t NumQ = Quick ? std::min<size_t>(3, S.Queries.size())
                        : S.Queries.size();
    for (size_t QI = 0; QI != NumQ; ++QI) {
      const Query &Q = S.Queries[QI];
      SCOPED_TRACE(std::string(S.Name) + "/" + Q.Name);
      const CompiledPlan &Plan = planFor(S, Q);
      backend::Backend &Fast = fastTier();
      backend::Backend &Opt = cachedBackend("MLVM-opt");
      rt::OutputBuffer Base = baselineRun(Plan, Fast, *S.Cat);

      int Reps = Quick ? 3 : 6;
      for (int Rep = 0; Rep != Reps; ++Rep) {
        SCOPED_TRACE("rep " + std::to_string(Rep));
        // Sweep landing times from "immediately" to "well into the
        // query" so early, mid, and too-late swaps all occur.
        Svc.injectCompileLatencyForTest(1u << (6 + 2 * (Rep % 4)), Seed++);
        rt::OutputBuffer Out;
        ExecOptions O = adaptive(Fast, Svc, 256);
        ExecResult R = executeQuery(Plan, Opt, *S.Cat, &Out, O);
        ASSERT_FALSE(R.Trapped);
        EXPECT_EQ(Base.unorderedDigest(), Out.unorderedDigest())
            << "concurrent swap changed the result";
        for (size_t PI = 0; PI != R.Stats.Pipelines.size(); ++PI) {
          const PipelineStats &P = R.Stats.Pipelines[PI];
          SCOPED_TRACE("pipeline " + std::to_string(PI));
          uint64_t NM = (P.Rows + O.MorselSize - 1) / O.MorselSize;
          EXPECT_EQ(P.Morsels, NM) << "lost or duplicated morsel";
          EXPECT_EQ(P.MorselsFast + P.MorselsOpt, P.Morsels);
          EXPECT_EQ(P.RowsFast + P.RowsOpt, P.Rows);
        }
      }
    }
  }
}

/// The swap protocol refuses entries that violate the context
/// compatibility contract, and osrContract distinguishes both the
/// function identity and the ctx slot layout.
TEST(OsrProtocol, ContractRejectsIncompatibleEntries) {
  uint64_t C1 = osrContract("pipe_0", 8);
  EXPECT_NE(C1, osrContract("pipe_1", 8));
  EXPECT_NE(C1, osrContract("pipe_0", 9));
  EXPECT_EQ(C1, osrContract("pipe_0", 8));

  auto Dummy = +[](void *, int64_t, int64_t) {};
  TierEntry FastE{Dummy, OsrTierFast, C1};
  TierCell Cell(&FastE);
  EXPECT_EQ(Cell.load(), &FastE);

  TierEntry Foreign{Dummy, OsrTierOpt, osrContract("pipe_1", 8)};
  EXPECT_FALSE(Cell.publish(&Foreign)) << "foreign contract accepted";
  TierEntry NoCode{nullptr, OsrTierOpt, C1};
  EXPECT_FALSE(Cell.publish(&NoCode));
  EXPECT_FALSE(Cell.publish(nullptr));
  EXPECT_EQ(Cell.load(), &FastE) << "rejected publish mutated the cell";

  TierEntry OptE{Dummy, OsrTierOpt, C1};
  EXPECT_TRUE(Cell.publish(&OptE));
  EXPECT_EQ(Cell.load(), &OptE);
}

/// The observability surface: exec.osr.* metrics and the per-pipeline
/// timeline swap marker.
TEST(OsrObs, SwapMetricsAndTimelineMarker) {
  QuerySuite &S = queryCorpus().front();
  const Query &Q = S.Queries.front();
  const CompiledPlan &Plan = planFor(S, Q);
  backend::Backend &Fast = fastTier();
  backend::Backend &Opt = cachedBackend("MLVM-opt");

  obs::MetricsRegistry Reg;
  obs::TraceSink Sink;
  rt::OutputBuffer Out;
  ExecOptions O = adaptive(Fast, sharedService(), 257, 1);
  O.Obs.Metrics = &Reg;
  O.Obs.Sink = &Sink;
  ExecResult R = executeQuery(Plan, Opt, *S.Cat, &Out, O);
  ASSERT_FALSE(R.Trapped);
  ASSERT_GE(R.Stats.OsrSwaps, 1u);

  obs::MetricsSnapshot Snap = Reg.snapshot();
  EXPECT_GE(Snap.counter("exec.osr.swaps"), 1u);
  const obs::HistogramSnapshot *SwapAt = Snap.histogram("exec.osr.swap_morsel");
  ASSERT_NE(SwapAt, nullptr);
  EXPECT_GE(SwapAt->Count, 1u);

  std::string Json = Sink.exportJson();
  EXPECT_NE(Json.find("db.osr.swap."), std::string::npos)
      << "missing timeline swap marker";
}

/// The forced cutover wait is a compile wait like any other, so a cancel
/// must cut it short. A gated job pins the service's only worker, so the
/// optimized compile the cutover at morsel 0 waits for sits in the
/// queue. Cancelling the query must cancel that job before it runs and
/// return while the gate is still closed. A watchdog opens the gate
/// after 2 s, so a wait that ignores the token fails on time instead of
/// hanging.
TEST(OsrCancel, ForcedCutoverWaitHonoursCancel) {
  QuerySuite &S = queryCorpus().front();
  const CompiledPlan &Plan = planFor(S, S.Queries.front());
  auto Fast = backend::createBackend("DirectEmit");
  auto Opt = backend::createBackend("MLVM-opt");

  backend::CompileService Svc(1);
  test::PinnedWorker Pin(Svc);
  ASSERT_TRUE(Pin.Ticket.valid());

  std::atomic<bool> QueryDone{false};
  std::thread Watchdog([&] {
    for (int I = 0; I != 2000 && !QueryDone.load(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Pin.Gate.release();
  });

  // Cancel once the fast tier has compiled, i.e. once the query is in
  // (or about to enter) the cutover wait at morsel 0.
  obs::MetricsRegistry Reg;
  qcf::CancelToken Ctl;
  std::thread Canceller([&] {
    for (int I = 0;
         I != 5000 && Reg.snapshot().counter("compile.DirectEmit.count") == 0;
         ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Ctl.cancel();
  });

  rt::OutputBuffer Out;
  ExecOptions O = adaptive(*Fast, Svc, 257, 0);
  O.Control = &Ctl;
  O.Obs.Metrics = &Reg;
  ExecResult R = executeQuery(Plan, *Opt, *S.Cat, &Out, O);
  bool GateWasClosed = !Pin.Gate.released();
  QueryDone.store(true);
  Canceller.join();
  Watchdog.join();

  EXPECT_TRUE(R.Cancelled);
  EXPECT_TRUE(GateWasClosed)
      << "the cutover wait outlived the cancel until the gate opened";
  EXPECT_EQ(R.Stats.OsrSwaps, 0u);
  Pin.release();
  Svc.shutdown();
  EXPECT_GE(Svc.stats().JobsCancelled, 1u);
}
