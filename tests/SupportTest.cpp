//===- tests/SupportTest.cpp - Support library unit tests -----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Bitset.h"
#include "support/MemContext.h"
#include "support/Hash.h"
#include "support/Int128.h"
#include "support/Rng.h"
#include "support/TimeTrace.h"
#include <gtest/gtest.h>
#include <set>

using namespace qcf;

// --- Arena ----------------------------------------------------------------

TEST(Arena, BasicAllocation) {
  Arena A;
  int *P = A.create<int>(42);
  EXPECT_EQ(*P, 42);
  double *D = A.create<double>(3.5);
  EXPECT_EQ(*D, 3.5);
  EXPECT_GE(A.bytesAllocated(), sizeof(int) + sizeof(double));
}

TEST(Arena, Alignment) {
  Arena A;
  A.allocate(1, 1);
  void *P16 = A.allocate(32, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P16) % 16, 0u);
  void *P64 = A.allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P64) % 64, 0u);
}

TEST(Arena, LargeAllocationsSpanSlabs) {
  Arena A(64);
  std::vector<char *> Ptrs;
  for (int I = 0; I != 100; ++I) {
    char *P = A.allocateArray<char>(100);
    std::memset(P, I, 100);
    Ptrs.push_back(P);
  }
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(Ptrs[I][50], static_cast<char>(I));
}

TEST(Arena, CopyString) {
  Arena A;
  const char *S = A.copyString("hello", 5);
  EXPECT_STREQ(S, "hello");
}

TEST(Arena, MoveTransfersOwnership) {
  Arena A;
  int *P = A.create<int>(7);
  Arena B = std::move(A);
  EXPECT_EQ(*P, 7);
  int *Q = B.create<int>(8);
  EXPECT_EQ(*Q, 8);
}

TEST(Arena, ResetReleasesMemory) {
  Arena A;
  A.allocate(1000);
  A.reset();
  EXPECT_EQ(A.bytesAllocated(), 0u);
  int *P = A.create<int>(3);
  EXPECT_EQ(*P, 3);
}

TEST(Arena, AllocationCounterIsExact) {
  Arena A;
  for (int I = 0; I != 57; ++I)
    A.allocate(24);
  EXPECT_EQ(A.numAllocations(), 57u);
  EXPECT_EQ(A.bytesAllocated(), 57u * 24);
  A.clear();
  EXPECT_EQ(A.numAllocations(), 0u);
  EXPECT_EQ(A.bytesAllocated(), 0u);
}

TEST(Arena, ClearRecyclesLargestSlab) {
  Arena A(/*InitialSlabBytes=*/64);
  // Force several slabs; the newest (largest) must survive clear() and
  // serve the next round from the same base address — the steady-state
  // zero-malloc property the per-function compile loop relies on.
  for (int I = 0; I != 64; ++I)
    A.allocate(64);
  void *FirstAfterClear = nullptr;
  A.clear();
  FirstAfterClear = A.allocate(64);
  A.clear();
  EXPECT_EQ(A.allocate(64), FirstAfterClear);
  EXPECT_EQ(A.numAllocations(), 1u);
}

TEST(Arena, ArenaVectorGrowsInArena) {
  Arena A;
  ArenaVector<uint32_t> V{ArenaAllocator<uint32_t>(A)};
  for (uint32_t I = 0; I != 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 1000u);
  for (uint32_t I = 0; I != 1000; ++I)
    EXPECT_EQ(V[I], I);
  // The buffer lives inside the arena.
  EXPECT_GE(A.bytesAllocated(), 1000 * sizeof(uint32_t));
}

TEST(Arena, ArenaVectorMoveStealsBuffer) {
  Arena A;
  ArenaVector<int> V{ArenaAllocator<int>(A)};
  V.assign(100, 42);
  const int *Buf = V.data();
  ArenaVector<int> W = std::move(V);
  EXPECT_EQ(W.data(), Buf); // move ctor always steals
  EXPECT_EQ(W.size(), 100u);
  EXPECT_EQ(W[99], 42);
}

// --- MemPool / MemContext ---------------------------------------------------

TEST(MemPool, HeapModeBalancesLiveObjects) {
  MemPool P(AllocMode::Heap);
  struct Node {
    uint64_t A, B;
  };
  Node *N1 = P.create<Node>();
  Node *N2 = P.create<Node>();
  EXPECT_EQ(P.liveObjects(), 2);
  P.destroy(N1);
  P.destroy(N2);
  EXPECT_EQ(P.liveObjects(), 0);
  EXPECT_EQ(P.numAllocs(), 2u);
  EXPECT_EQ(P.numFrees(), 2u);
  EXPECT_EQ(P.bytesAllocated(), 2 * sizeof(Node));
}

TEST(MemPool, ArenaModeDestroyIsNoOpAndClearRecycles) {
  MemPool P(AllocMode::Arena);
  int *X = P.create<int>(5);
  P.destroy(X); // no-op: the value must still be readable
  EXPECT_EQ(*X, 5);
  // Counters stay cumulative across clear() so phase deltas are monotonic.
  uint64_t Bytes = P.bytesAllocated();
  P.clear();
  EXPECT_EQ(P.bytesAllocated(), Bytes);
  int *Y = P.create<int>(6);
  EXPECT_EQ(*Y, 6);
  EXPECT_EQ(P.numAllocs(), 2u);
}

TEST(MemPool, PoolVectorMoveAssignStealsWithinSamePool) {
  MemPool P(AllocMode::Arena);
  PoolVector<int> V(P);
  V.assign(64, 9);
  const int *Buf = V.data();
  PoolVector<int> W(P);
  W = std::move(V);
  // Equal allocators (same pool) let move assignment steal the buffer.
  EXPECT_EQ(W.data(), Buf);
  EXPECT_EQ(W.size(), 64u);
}

TEST(MemPool, CountersDriveMemContextPhaseDeltas) {
  MemContext Ctx(AllocMode::Arena);
  EXPECT_EQ(Ctx.mode(), AllocMode::Arena);
  uint64_t B0 = Ctx.ir().bytesAllocated(), A0 = Ctx.ir().numAllocs();
  Ctx.ir().allocate(128);
  Ctx.ir().allocate(64);
  EXPECT_EQ(Ctx.ir().bytesAllocated() - B0, 192u);
  EXPECT_EQ(Ctx.ir().numAllocs() - A0, 2u);
  // Pools are independent: the other two did not move.
  EXPECT_EQ(Ctx.mir().bytesAllocated(), 0u);
  EXPECT_EQ(Ctx.scratch().bytesAllocated(), 0u);
  Ctx.clearFunctionMemory();
  // clear() keeps counters; only the arena contents are recycled.
  EXPECT_EQ(Ctx.ir().bytesAllocated() - B0, 192u);
}

TEST(MemPool, AllocModeFromEnvParses) {
  EXPECT_STREQ(allocModeName(AllocMode::Heap), "heap");
  EXPECT_STREQ(allocModeName(AllocMode::Arena), "arena");
}

// --- Rng --------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 3);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.nextBounded(17);
    EXPECT_LT(V, 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng R(9);
  std::set<int64_t> Seen;
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.nextRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    Seen.insert(V);
  }
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(Rng, ZipfIsSkewed) {
  Rng R(11);
  size_t Low = 0;
  constexpr int N = 10000;
  for (int I = 0; I != N; ++I)
    Low += R.nextZipf(1000) < 100;
  // Zipf should concentrate well over 10% of the mass in the first decile.
  EXPECT_GT(Low, static_cast<size_t>(N) / 5);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng R(13);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

// --- Hash -------------------------------------------------------------------

TEST(Hash, LongMulFoldMatchesReference) {
  // Reference via explicit 128-bit arithmetic.
  uint64_t A = 0x123456789abcdef0ull, B = 0x9e3779b97f4a7c15ull;
  unsigned __int128 P = static_cast<unsigned __int128>(A) * B;
  EXPECT_EQ(longMulFold(A, B),
            static_cast<uint64_t>(P) ^ static_cast<uint64_t>(P >> 64));
}

TEST(Hash, Crc32KnownValue) {
  // crc32q is deterministic; check stability across calls.
  EXPECT_EQ(crc32u64(0, 0x1122334455667788ull),
            crc32u64(0, 0x1122334455667788ull));
  EXPECT_NE(crc32u64(0, 1), crc32u64(0, 2));
}

TEST(Hash, HashU64Distributes) {
  std::set<uint64_t> Hashes;
  for (uint64_t I = 0; I != 1000; ++I)
    Hashes.insert(hashU64(I));
  EXPECT_EQ(Hashes.size(), 1000u);
}

TEST(Hash, HashBytesRespectsLength) {
  char Buf[16] = "abcdefghijklmno";
  EXPECT_NE(hashBytes(Buf, 5), hashBytes(Buf, 6));
  EXPECT_EQ(hashBytes(Buf, 5), hashBytes(Buf, 5));
}

// --- Int128 -----------------------------------------------------------------

TEST(Int128, MakeAndSplit) {
  Int128 V = makeInt128(0x1111222233334444ull, 0x5555666677778888ull);
  EXPECT_EQ(lo64(V), 0x1111222233334444ull);
  EXPECT_EQ(hi64(V), 0x5555666677778888ull);
}

TEST(Int128, AddOverflowDetected) {
  Int128 Max = makeInt128(~0ull, 0x7fffffffffffffffull);
  Int128 R;
  EXPECT_TRUE(addOverflow128(Max, 1, &R));
  EXPECT_FALSE(addOverflow128(Max, -1, &R));
  EXPECT_EQ(R, Max - 1);
}

TEST(Int128, MulFastPath) {
  Int128 R;
  EXPECT_FALSE(mulOverflow128(1000000000000ll, 1000000000000ll, &R));
  EXPECT_EQ(R, static_cast<Int128>(1000000000000ll) *
                   static_cast<Int128>(1000000000000ll));
  EXPECT_EQ(hi64(R), 0xd3c2ull); // floor(10^24 / 2^64) == 54210
}

TEST(Int128, MulOverflowDetected) {
  Int128 Big = makeInt128(0, 1ull << 62); // 2^126
  Int128 R;
  EXPECT_TRUE(mulOverflow128(Big, 4, &R));
  EXPECT_FALSE(mulOverflow128(Big, 1, &R));
}

TEST(Int128, DivOverflow) {
  Int128 R;
  EXPECT_TRUE(divOverflow128(5, 0, &R));
  Int128 Min = static_cast<Int128>(1) << 127;
  EXPECT_TRUE(divOverflow128(Min, -1, &R));
  EXPECT_FALSE(divOverflow128(-7, 2, &R));
  EXPECT_EQ(R, -3);
}

TEST(Int128, FitsInInt64) {
  EXPECT_TRUE(fitsInInt64(42));
  EXPECT_TRUE(fitsInInt64(-42));
  EXPECT_TRUE(fitsInInt64(INT64_MAX));
  EXPECT_TRUE(fitsInInt64(INT64_MIN));
  EXPECT_FALSE(fitsInInt64(static_cast<Int128>(INT64_MAX) + 1));
  EXPECT_FALSE(fitsInInt64(static_cast<Int128>(INT64_MIN) - 1));
}

// --- Bitset -----------------------------------------------------------------

TEST(Bitset, SetTestReset) {
  Bitset B(130);
  B.set(0);
  B.set(64);
  B.set(129);
  EXPECT_TRUE(B.test(0));
  EXPECT_TRUE(B.test(64));
  EXPECT_TRUE(B.test(129));
  EXPECT_FALSE(B.test(1));
  B.reset(64);
  EXPECT_FALSE(B.test(64));
  EXPECT_EQ(B.count(), 2u);
}

TEST(Bitset, UnionDetectsChange) {
  Bitset A(100), B(100);
  B.set(55);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B));
  EXPECT_TRUE(A.test(55));
}

TEST(Bitset, SubtractAndIntersect) {
  Bitset A(100), B(100);
  A.set(1);
  A.set(2);
  B.set(2);
  B.set(3);
  Bitset C = A;
  C.subtract(B);
  EXPECT_TRUE(C.test(1));
  EXPECT_FALSE(C.test(2));
  A.intersectWith(B);
  EXPECT_FALSE(A.test(1));
  EXPECT_TRUE(A.test(2));
}

TEST(Bitset, ForEachSetBit) {
  Bitset B(200);
  B.set(3);
  B.set(70);
  B.set(199);
  std::vector<size_t> Bits;
  B.forEachSetBit([&](size_t I) { Bits.push_back(I); });
  EXPECT_EQ(Bits, (std::vector<size_t>{3, 70, 199}));
}

// --- TimeTrace ----------------------------------------------------------------

TEST(TimeTrace, RecordsScopes) {
  TimeTrace T;
  {
    TimeTraceScope S(&T, "outer");
    TimeTraceScope S2(&T, "inner");
  }
  EXPECT_EQ(T.records().size(), 2u);
  EXPECT_EQ(T.numEvents(), 2u);
  EXPECT_GE(T.totalNs("outer"), T.totalNs("inner"));
}

TEST(TimeTrace, SelfTimeExcludesChildren) {
  TimeTrace T;
  {
    TimeTraceScope Outer(&T, "o");
    {
      TimeTraceScope Inner(&T, "i");
      volatile uint64_t X = 0;
      for (int I = 0; I != 100000; ++I)
        X = X + static_cast<uint64_t>(I);
      (void)X;
    }
  }
  const TimeRecord &O = T.records().at("o");
  const TimeRecord &I = T.records().at("i");
  EXPECT_LT(O.SelfNs, O.TotalNs);
  EXPECT_GE(O.TotalNs, I.TotalNs);
}

TEST(TimeTrace, NullTraceIsNoop) {
  TimeTraceScope S(nullptr, "nothing");
  SUCCEED();
}

TEST(TimeTrace, MergeAccumulates) {
  TimeTrace A, B;
  A.record("x", 100, 100);
  B.record("x", 50, 40);
  B.record("y", 7, 7);
  A.merge(B);
  EXPECT_EQ(A.totalNs("x"), 150u);
  EXPECT_EQ(A.totalNs("y"), 7u);
  EXPECT_EQ(A.numEvents(), 3u);
}

TEST(TimeTrace, CsvAndTableRender) {
  TimeTrace T;
  T.record("pass.a", 1000000, 900000);
  std::string Csv = T.reportCsv();
  EXPECT_NE(Csv.find("pass.a,1,1000000,900000"), std::string::npos);
  std::string Table = T.reportTable();
  EXPECT_NE(Table.find("pass.a"), std::string::npos);
}

TEST(TimeTrace, PrefixSums) {
  TimeTrace T;
  T.record("isel.fast", 10, 10);
  T.record("isel.dag", 20, 20);
  T.record("ra.fast", 5, 5);
  EXPECT_EQ(T.selfNsWithPrefix("isel."), 30u);
  EXPECT_EQ(T.selfNsWithPrefix(""), 35u);
}
