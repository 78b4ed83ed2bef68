//===- tests/CacheTest.cpp - Compiled-query cache tests -------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the content-addressed compiled-module cache: hash stability
/// and sensitivity, hit/miss accounting, LRU eviction, handle lifetime,
/// plan-level reuse from the query compiler, and cached code outliving
/// the plan whose module it was compiled from.
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "qir/Builder.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <thread>

using namespace qcf;
using namespace qcf::qir;
using namespace qcf::backend;

namespace {

/// Builds `fn(a) = a * K + 7`.
void buildAffine(qir::Module &M, int64_t K, const char *Name = "f") {
  qir::Function *F = M.createFunction(Name, {Type::I64}, Type::I64);
  Builder B(F);
  ValueId P = B.mul(F->paramValue(0), B.constInt(Type::I64, K));
  B.ret(B.add(P, B.constInt(Type::I64, 7)));
}

} // namespace

TEST(Cache, HashStableAcrossRebuilds) {
  qir::Module M1, M2;
  buildAffine(M1, 3);
  buildAffine(M2, 3);
  EXPECT_EQ(hashModule(M1), hashModule(M2));
}

TEST(Cache, HashSensitiveToSemantics) {
  qir::Module M1, M2, M3, M4;
  buildAffine(M1, 3);
  buildAffine(M2, 4);            // Different immediate.
  buildAffine(M3, 3, "g");       // Different name.
  buildAffine(M4, 3);
  M4.declareRuntime("rt_extra", Type::I64, {Type::I64}); // Extra symbol.
  EXPECT_NE(hashModule(M1), hashModule(M2));
  EXPECT_NE(hashModule(M1), hashModule(M3));
  EXPECT_NE(hashModule(M1), hashModule(M4));
}

TEST(Cache, HashIgnoresScratch) {
  qir::Module M1, M2;
  buildAffine(M1, 3);
  buildAffine(M2, 3);
  // Back-ends are allowed to leave arbitrary Scratch residue behind.
  for (uint32_t I = 0; I != M2.functions()[0]->numInsts(); ++I)
    M2.functions()[0]->inst(I).Scratch = 0xdeadbeef;
  EXPECT_EQ(hashModule(M1), hashModule(M2));
}

TEST(Cache, HitReturnsWorkingCodeAndCounts) {
  CachingBackend BE(createBackend("DirectEmit"));
  qir::Module M;
  buildAffine(M, 5);

  auto C1 = BE.compile(M);
  auto C2 = BE.compile(M);
  EXPECT_EQ(BE.stats().Misses, 1u);
  EXPECT_EQ(BE.stats().Hits, 1u);
  EXPECT_EQ(BE.size(), 1u);

  auto *F1 = C1->entryAs<int64_t (*)(int64_t)>("f");
  auto *F2 = C2->entryAs<int64_t (*)(int64_t)>("f");
  EXPECT_EQ(F1, F2) << "hit must reuse the same machine code";
  EXPECT_EQ(F1(10), 57);
  C1.reset(); // The other handle must keep the code alive.
  EXPECT_EQ(F2(1), 12);
}

TEST(Cache, LruEviction) {
  CachingBackend BE(createBackend("DirectEmit"), /*Capacity=*/2);
  qir::Module A, B, C;
  buildAffine(A, 1);
  buildAffine(B, 2);
  buildAffine(C, 3);

  BE.compile(A);
  BE.compile(B);
  BE.compile(A); // Refresh A; B becomes least-recent.
  BE.compile(C); // Evicts B.
  EXPECT_EQ(BE.stats().Evictions, 1u);
  EXPECT_EQ(BE.size(), 2u);

  BE.compile(A); // Still cached.
  EXPECT_EQ(BE.stats().Hits, 2u);
  BE.compile(B); // Was evicted: a miss again.
  EXPECT_EQ(BE.stats().Misses, 4u);
}

TEST(Cache, HandleOutlivesBackend) {
  auto BE = std::make_unique<CachingBackend>(createBackend("Craneline"));
  qir::Module M;
  buildAffine(M, 9);
  auto C = BE->compile(M);
  auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
  BE.reset(); // Drop the cache; the shared handle must stay valid.
  EXPECT_EQ(F(2), 25);
}

TEST(Cache, ConcurrentCompilesAreSafe) {
  CachingBackend BE(createBackend("DirectEmit"));
  qir::Module M;
  buildAffine(M, 11);

  std::vector<std::thread> Threads;
  std::atomic<int> Bad{0};
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 20; ++I) {
        auto C = BE.compile(M);
        auto *F = C->entryAs<int64_t (*)(int64_t)>("f");
        if (F(I) != int64_t(I) * 11 + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
  CacheStats S = BE.stats();
  EXPECT_EQ(S.Hits + S.Misses, 160u);
  EXPECT_GE(S.Hits, 150u) << "nearly all calls after the first must hit";
  EXPECT_EQ(BE.size(), 1u);
}

namespace {

/// Builds `fn() = K` — a module whose only varying hashed word is the
/// constant-pool immediate, so collisions can be engineered directly.
void buildRetConst(qir::Module &M, uint64_t K) {
  qir::Function *F = M.createFunction("f", {}, Type::I64);
  Builder B(F);
  B.ret(B.constInt(Type::I64, static_cast<int64_t>(K)));
}

} // namespace

// The legacy 64-bit hash folds each word with CRC32C, which is GF(2)-linear
// with a *seed-independent* kernel: D below satisfies crc32c(0, D) == 0, so
// for every seed S and word V, crc(S, V) == crc(S, V ^ D). Two modules whose
// only differing hashed word differs by D therefore collide under
// hashModule() — and would have collided under a second CRC lane with any
// other seed too. The 128-bit fingerprint's second lane uses multiplicative
// mixing precisely so this class of collision cannot survive it.
TEST(Cache, LegacyHashCollisionIsResolvedByFingerprint) {
  constexpr uint64_t D = 0x105ec76f1ull; // CRC32C kernel element.
  constexpr uint64_t K = 0x1234567890abcdefull;
  qir::Module M1, M2;
  buildRetConst(M1, K);
  buildRetConst(M2, K ^ D);

  // The engineered collision on the legacy key. If this ever stops holding,
  // the hash changed and a new kernel pair is needed for the test to bite.
  ASSERT_EQ(hashModule(M1), hashModule(M2));
  EXPECT_NE(fingerprintModule(M1), fingerprintModule(M2));

  // End to end: the cache must treat them as distinct modules. Under the
  // old 64-bit key the second compile would *hit* and return code computing
  // the wrong constant.
  CachingBackend BE(createBackend("DirectEmit"));
  auto C1 = BE.compile(M1);
  auto C2 = BE.compile(M2);
  EXPECT_EQ(BE.stats().Misses, 2u);
  EXPECT_EQ(BE.stats().Hits, 0u);
  EXPECT_EQ(BE.size(), 2u);
  EXPECT_EQ(C1->entryAs<uint64_t (*)()>("f")(), K);
  EXPECT_EQ(C2->entryAs<uint64_t (*)()>("f")(), K ^ D);
}

TEST(Cache, FingerprintLoMatchesLegacyHash) {
  qir::Module M;
  buildAffine(M, 21);
  EXPECT_EQ(fingerprintModule(M).Lo, hashModule(M));
}

TEST(Cache, RegeneratedQueryPlansHit) {
  // Compiling the same query over the same catalog twice produces
  // modules with hard-wired identical column pointers — they must hash
  // equal. A different (larger) catalog relocates columns: must differ.
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.05);
  auto FindH6 = [](std::vector<db::Query> &Qs) -> db::Query & {
    for (db::Query &Q : Qs)
      if (Q.Name == "h6")
        return Q;
    QCF_UNREACHABLE("h6 missing");
  };
  std::vector<db::Query> Qs1 = db::tpchQueries();
  std::vector<db::Query> Qs2 = db::tpchQueries();
  db::CompiledPlan P1 = db::compileQuery(FindH6(Qs1), Cat);
  db::CompiledPlan P2 = db::compileQuery(FindH6(Qs2), Cat);
  EXPECT_EQ(hashModule(*P1.Module), hashModule(*P2.Module));

  db::Catalog Cat2;
  db::generateTpchLike(Cat2, 0.1);
  std::vector<db::Query> Qs3 = db::tpchQueries();
  db::CompiledPlan P3 = db::compileQuery(FindH6(Qs3), Cat2);
  EXPECT_NE(hashModule(*P1.Module), hashModule(*P3.Module));

  // End-to-end through the cache: second compile is a hit.
  CachingBackend BE(createBackend("MLVM-opt"));
  BE.compile(*P1.Module);
  BE.compile(*P2.Module);
  EXPECT_EQ(BE.stats().Hits, 1u);
  EXPECT_EQ(BE.stats().Misses, 1u);
}

TEST(Cache, PlanFingerprintIsItsModules) {
  // compileQuery fingerprints each lowered module once; the value must be
  // fingerprintModule's, and stay so after back-ends have compiled and run
  // the module (they may touch only the excluded Scratch slots).
  db::Catalog Tpch, Tpcds;
  db::generateTpchLike(Tpch, 0.01);
  db::generateTpcdsLike(Tpcds, 0.01);
  std::vector<std::unique_ptr<Backend>> BEs;
  for (const char *Name : {"Interpreter", "Stencil", "DirectEmit", "Craneline"})
    BEs.push_back(createBackend(Name));
  std::vector<db::Query> TpchQs = db::tpchQueries(),
                         TpcdsQs = db::tpcdsQueries();
  for (auto [Cat, Queries] :
       {std::pair{&Tpch, &TpchQs}, std::pair{&Tpcds, &TpcdsQs}})
    for (const db::Query &Q : *Queries) {
      db::CompiledPlan Plan = db::compileQuery(Q, *Cat);
      EXPECT_EQ(Plan.Fingerprint, fingerprintModule(*Plan.Module)) << Q.Name;
      for (const auto &BE : BEs) {
        rt::OutputBuffer Out;
        ASSERT_FALSE(db::executeQuery(Plan, *BE, *Cat, &Out).Trapped);
      }
      EXPECT_EQ(Plan.Fingerprint, fingerprintModule(*Plan.Module)) << Q.Name;
    }
}

TEST(Cache, SecondLoweringOfAQueryIsAnL1Hit) {
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.01);
  std::vector<db::Query> Qs = db::tpchQueries();
  const db::Query &Q = Qs.at(0);
  CachingBackend BE(createBackend("DirectEmit"));
  uint64_t Digest[2];
  for (uint64_t &D : Digest) {
    db::CompiledPlan Plan = db::compileQuery(Q, Cat);
    rt::OutputBuffer Out;
    ASSERT_FALSE(db::executeQuery(Plan, BE, Cat, &Out).Trapped);
    D = Out.unorderedDigest();
  }
  EXPECT_EQ(Digest[0], Digest[1]);
  EXPECT_EQ(BE.stats().Misses, 1u);
  EXPECT_EQ(BE.stats().Hits, 1u);

  // The plan's fingerprint is the key, not a hash of its module: the same
  // module under another fingerprint misses.
  db::CompiledPlan Plan = db::compileQuery(Q, Cat);
  Plan.Fingerprint.Hi ^= 1;
  rt::OutputBuffer Out;
  ASSERT_FALSE(db::executeQuery(Plan, BE, Cat, &Out).Trapped);
  EXPECT_EQ(BE.stats().Misses, 2u);
}

TEST(Cache, KeysByTheSuppliedFingerprint) {
  // A supplied fingerprint is the key, with no hash of the module: here
  // it names another module, whose code the lookup gets.
  qir::Module M1, M2;
  buildAffine(M1, 3);
  buildAffine(M2, 5);
  CachingBackend BE(createBackend("DirectEmit"));
  BE.compile(M1);
  CompileOptions Opts;
  Opts.Fingerprint = fingerprintModule(M1);
  auto Code = BE.compile(M2, Opts);
  EXPECT_EQ(BE.stats().Hits, 1u);
  EXPECT_EQ(Code->entryAs<int64_t (*)(int64_t)>("f")(1), 10);
}

TEST(Cache, InterpreterHitOutlivesFirstPlan) {
  // The L1 entry is compiled from the first plan's module; a later hit
  // from a re-lowered plan runs that code after the first module is gone.
  // Interpreted code must not read its source QIR at run time (ASan
  // reported a use-after-free here when it did).
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.01);
  std::vector<db::Query> Qs = db::tpchQueries();
  auto H6 = std::find_if(Qs.begin(), Qs.end(),
                         [](const db::Query &Q) { return Q.Name == "h6"; });
  ASSERT_NE(H6, Qs.end());
  CachingBackend BE(createBackend("Interpreter"));

  uint64_t Ref;
  {
    db::CompiledPlan A = db::compileQuery(*H6, Cat);
    rt::OutputBuffer Out;
    ASSERT_FALSE(db::executeQuery(A, BE, Cat, &Out).Trapped);
    ASSERT_GT(Out.numRows(), 0u);
    Ref = Out.unorderedDigest();
  }
  db::CompiledPlan B = db::compileQuery(*H6, Cat);
  rt::OutputBuffer Out;
  ASSERT_FALSE(db::executeQuery(B, BE, Cat, &Out).Trapped);
  EXPECT_EQ(BE.stats().Hits, 1u);
  EXPECT_EQ(Out.unorderedDigest(), Ref);
}
