//===- tests/AdaptiveAsyncTest.cpp - Adaptive promotion differential -------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the adaptive back-end's tier swap: a RandomQir
/// corpus runs through AdaptiveBackend while the optimizing recompile
/// races execution — every call before, during, and after the swap must
/// match the interpreter exactly (results and traps). Includes a
/// deterministic single-thread configuration (no service) so any failure
/// reproduces from its seed alone, and lifecycle tests for modules
/// destroyed with a promotion still in flight.
///
//===----------------------------------------------------------------------===//

#include "backend/CompileService.h"
#include "backend/Registry.h"
#include "interp/Interp.h"
#include "tests/DiffHarness.h"
#include "tests/RandomQir.h"
#include <atomic>
#include <gtest/gtest.h>
#include <thread>

using namespace qcf;
using namespace qcf::test;
using namespace qcf::backend;

namespace {

constexpr unsigned FnsPerModule = 2;

/// Builds a verified random module with FnsPerModule functions.
void buildRandomModule(qir::Module &M, uint64_t Seed) {
  Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
  RandomFnBuilder Gen(M, R);
  for (unsigned I = 0; I != FnsPerModule; ++I)
    Gen.build("rand" + std::to_string(I));
  std::optional<std::string> Err = qir::verify(M);
  ASSERT_EQ(Err, std::nullopt) << "seed " << Seed << ": " << Err.value_or("");
}

/// Fixed input set per seed: deterministic, includes the edge pairs.
std::vector<std::vector<uint64_t>> makeInputs(uint64_t Seed) {
  Rng R(Seed ^ 0xabcdef);
  std::vector<std::vector<uint64_t>> Inputs = {{0, 0}, {~0ull, 1}};
  for (int I = 0; I != 6; ++I)
    Inputs.push_back({R.next(), R.next()});
  return Inputs;
}

} // namespace

/// Deterministic single-thread fallback: promotion happens synchronously
/// inside noteExecution (no service), and every call across the tier
/// boundary is compared to the interpreter. Failures reproduce from the
/// printed seed with no scheduling dependence at all.
TEST(AdaptiveAsync, SingleThreadDifferentialAcrossPromotion) {
  for (uint64_t Seed = 0; Seed != 8; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    qir::Module M;
    buildRandomModule(M, Seed);

    interp::InterpBackend Baseline;
    auto Ref = Baseline.compile(M);

    AdaptiveBackend BE;
    BE.PromoteAfterRuns = 2;
    BE.PromoteSizeThreshold = 1; // Every random function qualifies.
    auto Compiled = BE.compile(M);
    auto *AM = static_cast<AdaptiveModule *>(Compiled.get());

    std::vector<std::vector<uint64_t>> Inputs = makeInputs(Seed);
    bool SawSwap = false;
    for (int Run = 0; Run != 4; ++Run) {
      for (unsigned F = 0; F != FnsPerModule; ++F) {
        std::string Name = "rand" + std::to_string(F);
        void *RefEntry = Ref->entry(Name);
        void *GotEntry = AM->entry(Name);
        ASSERT_NE(GotEntry, nullptr) << Name;
        for (const std::vector<uint64_t> &Args : Inputs) {
          CaseOutcome Expected = invokeEntry(RefEntry, Args);
          CaseOutcome Actual = invokeEntry(GotEntry, Args);
          ASSERT_EQ(Expected.Trapped, Actual.Trapped)
              << Name << " run " << Run << " args=(" << Args[0] << ","
              << Args[1] << ")";
          if (!Expected.Trapped)
            ASSERT_EQ(Expected.Lo, Actual.Lo)
                << Name << " run " << Run << " args=(" << Args[0] << ","
                << Args[1] << ")";
        }
        SawSwap |= AM->noteExecution(Name);
      }
    }
    EXPECT_TRUE(SawSwap) << "promotion never fired";
    EXPECT_TRUE(AM->isPromoted());
  }
}

/// The race the tentpole exists for: worker threads execute the module
/// and trigger promotions while a service thread swaps the tier under
/// them. Every single call must still match the interpreter.
TEST(AdaptiveAsync, RacingPromotionMatchesInterpreter) {
  constexpr uint64_t Seeds[] = {3, 17, 42};
  for (uint64_t Seed : Seeds) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    qir::Module M;
    buildRandomModule(M, Seed);

    interp::InterpBackend Baseline;
    auto Ref = Baseline.compile(M);

    // Precompute expected outcomes (the interpreter module is not
    // hammered concurrently; entry() lookups race otherwise).
    std::vector<std::vector<uint64_t>> Inputs = makeInputs(Seed);
    std::vector<std::vector<CaseOutcome>> Expected(FnsPerModule);
    std::vector<std::string> FnNames(FnsPerModule);
    std::vector<bool> TwoLane(FnsPerModule);
    for (unsigned F = 0; F != FnsPerModule; ++F) {
      FnNames[F] = "rand" + std::to_string(F);
      TwoLane[F] = qir::isTwoLane(M.functionByName(FnNames[F])->returnType());
      void *E = Ref->entry(FnNames[F]);
      ASSERT_NE(E, nullptr);
      for (const auto &Args : Inputs)
        Expected[F].push_back(invokeEntry(E, Args));
    }
    // One-lane results leave rdx undefined: compare Hi only for I128.
    auto Matches = [&](const CaseOutcome &Got, const CaseOutcome &Exp,
                       unsigned F) {
      if (Got.Trapped != Exp.Trapped)
        return false;
      return Got.Trapped ||
             (Got.Lo == Exp.Lo && (!TwoLane[F] || Got.Hi == Exp.Hi));
    };

    CompileService Svc(2);
    AdaptiveBackend BE(&Svc);
    BE.PromoteAfterRuns = 2;
    BE.PromoteSizeThreshold = 1;
    auto Compiled = BE.compile(M);
    auto *AM = static_cast<AdaptiveModule *>(Compiled.get());

    constexpr int NumThreads = 4, Rounds = 30;
    std::vector<std::thread> Threads;
    std::atomic<uint64_t> Mismatches{0};
    for (int T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&] {
        for (int R = 0; R != Rounds; ++R) {
          for (unsigned F = 0; F != FnsPerModule; ++F) {
            void *E = AM->entry(FnNames[F]);
            for (size_t I = 0; I != Inputs.size(); ++I) {
              CaseOutcome Got = invokeEntry(E, Inputs[I]);
              if (!Matches(Got, Expected[F][I], F))
                ++Mismatches;
            }
            AM->noteExecution(FnNames[F]);
          }
        }
      });
    for (std::thread &T : Threads)
      T.join();

    EXPECT_EQ(Mismatches.load(), 0u)
        << "execution diverged from the interpreter across the tier swap";

    // Settle any still-in-flight promotion and re-verify on the final
    // tier: the swap must also be correct at rest.
    AM->waitForPromotion();
    EXPECT_TRUE(AM->isPromoted()) << "promotion never landed";
    for (unsigned F = 0; F != FnsPerModule; ++F) {
      void *E = AM->entry(FnNames[F]);
      for (size_t I = 0; I != Inputs.size(); ++I)
        EXPECT_TRUE(Matches(invokeEntry(E, Inputs[I]), Expected[F][I], F))
            << FnNames[F] << " input " << I << " after promotion";
    }
  }
}

/// Callers must never stall on MLVM: noteExecution returns immediately
/// when the heuristic fires with a service attached, and the fast tier
/// keeps serving until the ticket completes.
TEST(AdaptiveAsync, NoteExecutionDoesNotBlockOnService) {
  qir::Module M;
  buildRandomModule(M, 7);

  CompileService Svc(1);
  AdaptiveBackend BE(&Svc);
  BE.PromoteAfterRuns = 1;
  BE.PromoteSizeThreshold = 1;
  auto Compiled = BE.compile(M);
  auto *AM = static_cast<AdaptiveModule *>(Compiled.get());

  EXPECT_FALSE(AM->isPromoted());
  AM->noteExecution("rand0");
  // The recompile may still be queued or running; either way the module
  // keeps answering from the fast tier.
  EXPECT_NE(AM->entry("rand0"), nullptr);
  AM->waitForPromotion();
  EXPECT_TRUE(AM->isPromoted());
  EXPECT_FALSE(AM->promotionPending());
  EXPECT_NE(AM->entry("rand0"), nullptr);

  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsCompleted, 1u);
  ASSERT_EQ(S.PerBackend.count("MLVM-opt"), 1u);
}

/// Destroying a module with a promotion still pending must cancel or wait
/// the job out — the worker may not touch the dead module afterwards.
TEST(AdaptiveAsync, DestroyWithPendingPromotionIsClean) {
  CompileService Svc(1);
  for (int I = 0; I != 10; ++I) {
    qir::Module M;
    buildRandomModule(M, 100 + I);
    AdaptiveBackend BE(&Svc);
    BE.PromoteAfterRuns = 1;
    BE.PromoteSizeThreshold = 1;
    {
      auto Compiled = BE.compile(M);
      auto *AM = static_cast<AdaptiveModule *>(Compiled.get());
      AM->noteExecution("rand0");
      // Drop the module immediately: ~AdaptiveModule cancels the queued
      // job or waits for the running one.
    }
  }
  Svc.drain();
  CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsQueued, 10u);
  EXPECT_EQ(S.JobsCompleted + S.JobsCancelled, 10u);
}

/// Promotion through a shut-down service must degrade, not deadlock: the
/// degraded submit compiles synchronously and the swap still happens.
TEST(AdaptiveAsync, PromotionAfterServiceShutdownDegrades) {
  qir::Module M;
  buildRandomModule(M, 55);

  CompileService Svc(1);
  Svc.shutdown();
  AdaptiveBackend BE(&Svc);
  BE.PromoteAfterRuns = 1;
  BE.PromoteSizeThreshold = 1;
  auto Compiled = BE.compile(M);
  auto *AM = static_cast<AdaptiveModule *>(Compiled.get());

  EXPECT_TRUE(AM->noteExecution("rand0"))
      << "degraded service completes synchronously; swap installs here";
  EXPECT_TRUE(AM->isPromoted());
  EXPECT_NE(AM->entry("rand0"), nullptr);
}
