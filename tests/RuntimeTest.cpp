//===- tests/RuntimeTest.cpp - Runtime library unit tests ------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace qcf;
using namespace qcf::rt;

// --- StringVal ---------------------------------------------------------------

TEST(StringVal, InlineLayout) {
  StringVal S = StringVal::makeRef("hello", 5);
  EXPECT_TRUE(S.isInline());
  EXPECT_EQ(S.Len, 5u);
  EXPECT_EQ(S.str(), "hello");
  // Bytes 4..8 hold 'h','e','l','l','o'.
  const char *Raw = reinterpret_cast<const char *>(&S);
  EXPECT_EQ(Raw[4], 'h');
  EXPECT_EQ(Raw[8], 'o');
}

TEST(StringVal, TwelveByteBoundary) {
  StringVal S12 = StringVal::makeRef("abcdefghijkl", 12);
  EXPECT_TRUE(S12.isInline());
  EXPECT_EQ(S12.str(), "abcdefghijkl");
  const char *Long = "abcdefghijklm";
  StringVal S13 = StringVal::makeRef(Long, 13);
  EXPECT_FALSE(S13.isInline());
  EXPECT_EQ(S13.str(), "abcdefghijklm");
  // Long form: prefix holds the first four characters, pointer the data.
  EXPECT_EQ(std::memcmp(S13.Prefix, "abcd", 4), 0);
  EXPECT_EQ(S13.Data, Long);
}

TEST(StringVal, LaneRoundTrip) {
  StringVal S = StringVal::makeRef("lane trip", 9);
  StringVal T = StringVal::fromLanes(S.lo(), S.hi());
  EXPECT_TRUE(stringEq(S, T));
}

TEST(StringVal, ComparisonSemantics) {
  StringVal A = StringVal::makeRef("apple", 5);
  StringVal B = StringVal::makeRef("apples", 6);
  StringVal C = StringVal::makeRef("banana", 6);
  EXPECT_LT(stringCmp(A, B), 0);
  EXPECT_GT(stringCmp(B, A), 0);
  EXPECT_LT(stringCmp(A, C), 0);
  EXPECT_EQ(stringCmp(A, A), 0);
  EXPECT_TRUE(stringEq(A, A));
  EXPECT_FALSE(stringEq(A, B));
}

TEST(StringVal, PrefixEarlyOut) {
  // Equal length, different prefix word: must not be equal.
  StringVal A = StringVal::makeRef("abcdX", 5);
  StringVal B = StringVal::makeRef("abceX", 5);
  EXPECT_FALSE(stringEq(A, B));
}

// Every (A, B) pair the equality tests below compare: lengths 0-24, a
// one-byte difference at each position (prefix bytes, inline rest, the
// 12/13 boundary, long tails), equal bytes behind distinct pointers, and a
// shared pointer. Long values point into the strings, which stay alive.
struct StringPairs {
  std::vector<std::string> Storage;
  std::vector<std::pair<size_t, size_t>> Pairs;

  StringPairs() {
    Storage.reserve(1024); // stable addresses for the long values
    for (uint32_t Len = 0; Len <= 24; ++Len) {
      std::string Base;
      for (uint32_t I = 0; I != Len; ++I)
        Base.push_back(static_cast<char>('a' + (I * 7) % 26));
      size_t B = add(Base);
      Pairs.push_back({B, B});          // shared pointer
      Pairs.push_back({B, add(Base)});  // equal bytes, distinct pointer
      for (uint32_t Pos = 0; Pos != Len; ++Pos) {
        std::string D = Base;
        D[Pos] = static_cast<char>(D[Pos] ^ 0x20);
        Pairs.push_back({B, add(D)});
      }
      if (Len != 0) // same bytes up to a length difference
        Pairs.push_back({B, add(Base.substr(0, Len - 1))});
    }
  }
  size_t add(std::string S) {
    Storage.push_back(std::move(S));
    return Storage.size() - 1;
  }
  StringVal val(size_t I) const {
    return StringVal::makeRef(Storage[I].data(),
                              static_cast<uint32_t>(Storage[I].size()));
  }
};

TEST(StringVal, EqualityMatchesBytewiseReference) {
  StringPairs P;
  ASSERT_LE(P.Storage.size(), 1024u);
  for (auto [IA, IB] : P.Pairs) {
    const std::string &SA = P.Storage[IA], &SB = P.Storage[IB];
    bool Ref = SA.size() == SB.size() &&
               std::memcmp(SA.data(), SB.data(), SA.size()) == 0;
    StringVal A = P.val(IA), B = P.val(IB);
    EXPECT_EQ(stringEq(A, B), Ref) << '"' << SA << "\" vs \"" << SB << '"';
    EXPECT_EQ(stringEq(B, A), Ref) << '"' << SB << "\" vs \"" << SA << '"';
    EXPECT_EQ(rt_str_eq(A, B), uint64_t(Ref)) << SA << " vs " << SB;
  }
}

TEST(RtString, ContainsAndPrefix) {
  StringVal Hay = StringVal::makeRef("the quick brown fox", 19);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("quick", 5)), 1u);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("slow", 4)), 0u);
  EXPECT_EQ(rt_str_contains(Hay, StringVal::makeRef("", 0)), 1u);
  EXPECT_EQ(rt_str_prefix(Hay, StringVal::makeRef("the q", 5)), 1u);
  EXPECT_EQ(rt_str_prefix(Hay, StringVal::makeRef("quick", 5)), 0u);
}

TEST(RtString, Like) {
  StringVal S = StringVal::makeRef("promo burnished", 15);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("promo%", 6)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%burnished", 10)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%bur%", 5)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("%burx%", 6)), 0u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("promo burnishe_", 15)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("_romo%", 6)), 1u);
  EXPECT_EQ(rt_str_like(S, StringVal::makeRef("x%", 2)), 0u);
}

TEST(RtString, ConcatAndSubstr) {
  Arena A;
  StringVal S1 = StringVal::makeRef("query ", 6);
  StringVal S2 = StringVal::makeRef("compilation", 11);
  StringVal Cat = rt_str_concat(&A, S1, S2);
  EXPECT_EQ(Cat.str(), "query compilation");
  StringVal Sub = rt_str_substr(&A, Cat, 6, 7);
  EXPECT_EQ(Sub.str(), "compila");
  StringVal Short = rt_str_concat(&A, StringVal::makeRef("ab", 2),
                                  StringVal::makeRef("cd", 2));
  EXPECT_TRUE(Short.isInline());
  EXPECT_EQ(Short.str(), "abcd");
  StringVal OutOfRange = rt_str_substr(&A, Cat, 100, 5);
  EXPECT_EQ(OutOfRange.Len, 0u);
}

TEST(RtString, HashConsistentWithHost) {
  StringVal S = StringVal::makeRef("lineitem", 8);
  EXPECT_EQ(rt_str_hash(S), stringHash(S));
  EXPECT_NE(rt_str_hash(S), rt_str_hash(StringVal::makeRef("lineitems", 9)));
}

TEST(RuntimeCAbi, StrPrefixMatchesReference) {
  std::string Hay = "abcdefghijklmnopqrstuvwx";
  Arena Mem;
  for (uint32_t HayLen = 0; HayLen <= 16; ++HayLen) {
    StringVal S = StringVal::makeRef(Hay.data(), HayLen);
    for (uint32_t PLen = 0; PLen <= 16; ++PLen) {
      // The prefix itself, and the prefix with each byte flipped, from
      // separate storage so long prefixes never share S's pointer.
      for (int32_t Flip = -1; Flip < static_cast<int32_t>(PLen); ++Flip) {
        auto *Bytes = static_cast<char *>(rt_arena_alloc(&Mem, PLen + 1));
        std::memcpy(Bytes, Hay.data(), PLen);
        if (Flip >= 0)
          Bytes[Flip] = static_cast<char>(Bytes[Flip] ^ 0x20);
        StringVal P = StringVal::makeRef(Bytes, PLen);
        bool Ref = PLen <= HayLen && std::memcmp(Hay.data(), Bytes, PLen) == 0;
        EXPECT_EQ(rt_str_prefix(S, P), uint64_t(Ref))
            << "hay " << HayLen << " prefix " << PLen << " flip " << Flip;
      }
    }
  }
}

// --- HashTable -----------------------------------------------------------------

/// The first payload word of entry \p E.
static uint64_t payloadOf(void *E) {
  return *reinterpret_cast<uint64_t *>(static_cast<char *>(E) +
                                       HashTable::HeaderBytes);
}

/// The first payload word of each entry on \p Hash's chain, in chain order.
static std::vector<uint64_t> chainValues(const HashTable &Ht, uint64_t Hash) {
  std::vector<uint64_t> Values;
  for (void *E = Ht.lookup(Hash); E; E = HashTable::nextMatch(E, Hash))
    Values.push_back(payloadOf(E));
  return Values;
}

TEST(HashTable, InsertAndLookup) {
  HashTable Ht(16);
  struct Payload {
    uint64_t Key, Value;
  };
  for (uint64_t K = 0; K != 100; ++K) {
    auto *P = static_cast<Payload *>(Ht.insert(hashU64(K)));
    P->Key = K;
    P->Value = K * 10;
  }
  EXPECT_EQ(Ht.count(), 100u);
  for (uint64_t K = 0; K != 100; ++K) {
    void *E = Ht.lookup(hashU64(K));
    ASSERT_NE(E, nullptr);
    // Walk the chain to find the matching key (hash collisions possible).
    bool Found = false;
    while (E) {
      auto *P = reinterpret_cast<Payload *>(static_cast<char *>(E) +
                                            HashTable::HeaderBytes);
      if (P->Key == K) {
        EXPECT_EQ(P->Value, K * 10);
        Found = true;
        break;
      }
      E = HashTable::nextMatch(E, hashU64(K));
    }
    EXPECT_TRUE(Found) << "key " << K;
  }
  EXPECT_EQ(Ht.lookup(hashU64(1234567)), nullptr);
}

TEST(HashTable, DuplicateHashesChain) {
  HashTable Ht(8);
  uint64_t H = 0x1234;
  for (uint64_t I = 0; I != 5; ++I)
    *static_cast<uint64_t *>(Ht.insert(H)) = I;
  std::set<uint64_t> Seen;
  for (void *E = Ht.lookup(H); E; E = HashTable::nextMatch(E, H))
    Seen.insert(*reinterpret_cast<uint64_t *>(static_cast<char *>(E) +
                                              HashTable::HeaderBytes));
  EXPECT_EQ(Seen, (std::set<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(HashTable, DenseIterationOrder) {
  HashTable Ht(8);
  for (uint64_t I = 0; I != 50; ++I)
    *static_cast<uint64_t *>(Ht.insert(I * 7)) = I;
  ASSERT_EQ(Ht.count(), 50u);
  for (uint64_t I = 0; I != 50; ++I) {
    auto *P = reinterpret_cast<uint64_t *>(
        static_cast<char *>(Ht.entryAt(I)) + HashTable::HeaderBytes);
    EXPECT_EQ(*P, I); // insertion order
  }
}

TEST(HashTable, GrowsBeyondExpectation) {
  HashTable Ht(8);
  for (uint64_t I = 0; I != 10000; ++I)
    *static_cast<uint64_t *>(Ht.insert(hashU64(I))) = I;
  EXPECT_EQ(Ht.count(), 10000u);
  void *E = Ht.lookup(hashU64(9999));
  ASSERT_NE(E, nullptr);
}

TEST(HashTable, LargeDirectoryStartsEmpty) {
  // The directory link() sizes for a large table is calloc'd and only
  // written where an entry links: everywhere else it must read as empty.
  constexpr uint64_t Entries = uint64_t(1) << 18;
  HashTable Ht(8);
  for (uint64_t K = 0; K != Entries; ++K)
    *static_cast<uint64_t *>(Ht.append(hashU64(K * 7919))) = K;
  Ht.link();
  EXPECT_EQ(Ht.numBuckets(), uint64_t(1) << 20); // roundUpPow2(2n + 64)
  EXPECT_EQ(Ht.count(), Entries);
  for (uint64_t K = Entries; K != Entries + 100000; ++K)
    ASSERT_EQ(Ht.lookup(hashU64(K * 7919)), nullptr) << "key " << K;
  for (uint64_t B = 0; B < Ht.numBuckets(); B += 4093)
    ASSERT_EQ(Ht.lookup(B), nullptr) << "bucket " << B;
  ASSERT_EQ(Ht.lookup(Ht.numBuckets() - 1), nullptr);
  for (uint64_t K = 0; K < Entries; K += 997) {
    bool Found = false;
    for (void *E = Ht.lookup(hashU64(K * 7919)); E;
         E = HashTable::nextMatch(E, hashU64(K * 7919)))
      Found |= payloadOf(E) == K;
    EXPECT_TRUE(Found) << "key " << K;
  }
}

TEST(HashTable, StartsSmallAndLinksToItsCount) {
  HashTable Ht(8);
  EXPECT_EQ(Ht.numBuckets(), 64u); // roundUpPow2(2 * 0 + 64)
  for (uint64_t K = 0; K != 1000; ++K)
    *static_cast<uint64_t *>(Ht.append(hashU64(K))) = K;
  // Appended entries are not reachable before the link.
  EXPECT_EQ(Ht.numBuckets(), 64u);
  EXPECT_EQ(Ht.lookup(hashU64(0)), nullptr);
  Ht.link();
  EXPECT_EQ(Ht.numBuckets(), 4096u); // roundUpPow2(2 * 1000 + 64)
  for (uint64_t K = 0; K != 1000; ++K)
    EXPECT_EQ(chainValues(Ht, hashU64(K)), std::vector<uint64_t>{K});

  // An empty build keeps the directory size of an empty table, and finds
  // nothing.
  HashTable Empty(8);
  Empty.link();
  EXPECT_EQ(Empty.numBuckets(), 64u);
  EXPECT_EQ(Empty.lookup(0), nullptr);
  EXPECT_EQ(Empty.lookup(~uint64_t(0)), nullptr);
}

TEST(HashTable, BucketAndTagCollisionsChain) {
  // Hashes that agree in the low bits (bucket) and the top four bits (tag)
  // share one directory word and one tag bit, so only the chain walk's
  // full-hash compare tells them apart.
  auto Colliding = [](uint64_t I) {
    return (uint64_t(0xA) << 60) | (I << 24) | 0x5;
  };
  for (bool Linked : {false, true}) {
    SCOPED_TRACE(Linked ? "append + link" : "insert");
    HashTable Ht(8);
    uint64_t V = 0;
    for (uint64_t I = 0; I != 6; ++I)
      for (uint64_t Dup = 0; Dup <= I % 3; ++Dup, ++V)
        *static_cast<uint64_t *>(Linked ? Ht.append(Colliding(I))
                                        : Ht.insert(Colliding(I))) = V;
    if (Linked)
      Ht.link();
    ASSERT_EQ(Ht.numBuckets(), 128u); // 12 entries
    V = 0;
    for (uint64_t I = 0; I != 6; ++I) {
      std::vector<uint64_t> Want;
      for (uint64_t Dup = 0; Dup <= I % 3; ++Dup, ++V)
        Want.insert(Want.begin(), V); // newest first
      EXPECT_EQ(chainValues(Ht, Colliding(I)), Want) << "hash " << I;
    }
    // Same bucket, same tag, no entry: the walk reaches the chain's end.
    EXPECT_EQ(Ht.lookup(Colliding(7)), nullptr);
    EXPECT_EQ(Ht.lookup(Colliding(1000)), nullptr);
  }
}

TEST(HashTable, AbsentKeysMissOnEveryTag) {
  // Bucket 7 holds one entry with tag 3; bucket 9 one entry per tag.
  auto Hash = [](uint64_t Tag, uint64_t Mid, uint64_t Bucket) {
    return (Tag << 60) | (Mid << 20) | Bucket;
  };
  HashTable Ht(8);
  *static_cast<uint64_t *>(Ht.insert(Hash(3, 1, 7))) = 100;
  for (uint64_t Tag = 0; Tag != 16; ++Tag)
    *static_cast<uint64_t *>(Ht.insert(Hash(Tag, 1, 9))) = Tag;
  ASSERT_EQ(Ht.numBuckets(), 128u); // 17 entries
  for (uint64_t Tag = 0; Tag != 16; ++Tag) {
    SCOPED_TRACE(Tag);
    // An empty bucket, an occupied bucket whose tag bit is clear (every
    // tag but 3), and a set tag bit with no matching hash.
    EXPECT_EQ(Ht.lookup(Hash(Tag, 1, 8)), nullptr);
    EXPECT_EQ(Ht.lookup(Hash(Tag, 2, 7)), nullptr);
    EXPECT_EQ(Ht.lookup(Hash(Tag, 2, 9)), nullptr);
    EXPECT_EQ(chainValues(Ht, Hash(Tag, 1, 9)), std::vector<uint64_t>{Tag});
  }
  EXPECT_EQ(chainValues(Ht, Hash(3, 1, 7)), std::vector<uint64_t>{100});
}

TEST(HashTable, AggregationGrowsAcrossDoublings) {
  // Serial inserts double the directory and relink from the chunks each
  // time 2n + 64 passes the bucket count. After every doubling each key
  // is still found, and a chain of equal hashes keeps newest-first order.
  constexpr uint64_t Dup = 0xD0D0D0D0D0D0D0D0ull;
  HashTable Ht(8);
  std::vector<uint64_t> DupValues; // newest first
  unsigned Doublings = 0;
  for (uint64_t K = 0; K != 20000; ++K) {
    uint64_t Before = Ht.numBuckets();
    bool IsDup = K % 97 == 0;
    *static_cast<uint64_t *>(Ht.insert(IsDup ? Dup : hashU64(K))) = K;
    if (IsDup)
      DupValues.insert(DupValues.begin(), K);
    ASSERT_EQ(Ht.numBuckets(), HashTable::bucketsFor(Ht.count()));
    if (Ht.numBuckets() == Before)
      continue;
    ASSERT_EQ(Ht.numBuckets(), 2 * Before) << "after key " << K;
    ++Doublings;
    for (uint64_t J = 0; J <= K; ++J) {
      if (J % 97 == 0)
        continue;
      ASSERT_EQ(chainValues(Ht, hashU64(J)), std::vector<uint64_t>{J})
          << "key " << J << " after doubling to " << Ht.numBuckets();
    }
    ASSERT_EQ(chainValues(Ht, Dup), DupValues);
  }
  EXPECT_EQ(Doublings, 10u); // 64 -> 65536 buckets
  EXPECT_EQ(Ht.count(), 20000u);
}

TEST(HashTable, EntriesSpanGeometricChunks) {
  // Chunk k holds 256 << k entries; dense indexes cross every boundary
  // into the ninth chunk, and nothing bounds the count.
  HashTable Ht(24);
  constexpr uint64_t N = 4096 * 31 + 5;
  for (uint64_t K = 0; K != N; ++K)
    *static_cast<uint64_t *>(Ht.append(K)) = K;
  ASSERT_EQ(Ht.count(), N);
  for (uint64_t K = 0; K != N; ++K)
    ASSERT_EQ(payloadOf(Ht.entryAt(K)), K) << "index " << K;
}

/// First entry index of chunk \p K.
static uint64_t chunkStart(unsigned K) {
  return (HashTable::FirstChunkEntries << K) - HashTable::FirstChunkEntries;
}

TEST(HashTable, FirstChunkIsSmall) {
  // A one-row aggregate must not pay for thousands of entries.
  EXPECT_EQ(HashTable::FirstChunkEntries, 256u);
  HashTable Ht(40);
  *static_cast<uint64_t *>(Ht.insert(hashU64(1))) = 1;
  EXPECT_EQ(chainValues(Ht, hashU64(1)), std::vector<uint64_t>{1});
}

TEST(HashTable, EntriesKeepTheirAddressesAcrossChunkGrowth) {
  // Generated code holds payload pointers across later inserts; a new
  // chunk never moves the entries of the old ones.
  HashTable Ht(24);
  std::vector<void *> Addr;
  for (uint64_t K = 0; K != chunkStart(5) + 3; ++K) {
    void *P = Ht.insert(hashU64(K));
    *static_cast<uint64_t *>(P) = K;
    Addr.push_back(static_cast<char *>(P) - HashTable::HeaderBytes);
  }
  for (uint64_t K = 0; K != Addr.size(); ++K) {
    ASSERT_EQ(Ht.entryAt(K), Addr[K]) << "index " << K;
    ASSERT_EQ(payloadOf(Addr[K]), K) << "index " << K;
  }
}

TEST(HashTable, EntryAtReadsAcrossEveryChunkBoundary) {
  for (uint32_t Payload : {8u, 24u, 40u}) {
    SCOPED_TRACE(Payload);
    HashTable Ht(Payload);
    for (uint64_t K = 0; K != chunkStart(6) + 1; ++K)
      *static_cast<uint64_t *>(Ht.append(K)) = K * 3;
    for (unsigned C = 1; C <= 6; ++C) {
      uint64_t B = chunkStart(C);
      for (uint64_t K : {B - 1, B, B + 1}) {
        if (K >= Ht.count())
          continue;
        void *E = Ht.entryAt(K);
        EXPECT_EQ(payloadOf(E), K * 3) << "index " << K;
        // The hash lives in the header, next to the payload.
        EXPECT_EQ(static_cast<uint64_t *>(E)[1], K) << "index " << K;
      }
    }
  }
}

TEST(HashTable, LinkAfterChunkGrowthReachesEveryEntry) {
  // A join build appends into several chunks, then links once.
  HashTable Ht(8);
  constexpr uint64_t N = 256 * 7 + 100; // into the fourth chunk
  for (uint64_t K = 0; K != N; ++K)
    *static_cast<uint64_t *>(Ht.append(hashU64(K % 1000))) = K;
  Ht.link();
  EXPECT_EQ(Ht.numBuckets(), HashTable::bucketsFor(N));
  for (uint64_t Key = 0; Key != 1000; ++Key) {
    std::vector<uint64_t> Want;
    for (uint64_t K = Key; K < N; K += 1000)
      Want.insert(Want.begin(), K); // newest first
    ASSERT_EQ(chainValues(Ht, hashU64(Key)), Want) << "key " << Key;
  }
  EXPECT_EQ(Ht.lookup(hashU64(1000)), nullptr);
}

TEST(HashTable, RecycledDirectoryFindsOnlyItsOwnEntries) {
  // The first table fills its directory and frees it with its chunks;
  // the next table on this thread, with the same directory size, gets
  // that memory back and must find nothing the first one inserted.
  std::thread([] {
    constexpr uint64_t N = 1500; // 4096 buckets: a 32 KiB directory
    {
      HashTable First(8);
      for (uint64_t K = 0; K != N; ++K)
        *static_cast<uint64_t *>(First.append(hashU64(K))) = K;
      First.link();
      ASSERT_EQ(First.numBuckets(), 4096u);
    }
    size_t Parked = blocks::parkedBytes();
    ASSERT_GE(Parked, 4096u * 8);
    HashTable Second(8);
    for (uint64_t K = N; K != 2 * N; ++K)
      *static_cast<uint64_t *>(Second.append(hashU64(K))) = K;
    Second.link();
    ASSERT_EQ(Second.numBuckets(), 4096u);
    EXPECT_LT(blocks::parkedBytes(), Parked) << "nothing was reused";
    for (uint64_t K = 0; K != N; ++K)
      ASSERT_EQ(Second.lookup(hashU64(K)), nullptr) << "key " << K;
    for (uint64_t K = N; K != 2 * N; ++K)
      ASSERT_EQ(chainValues(Second, hashU64(K)), std::vector<uint64_t>{K});
  }).join();
}

// --- Traps ---------------------------------------------------------------------

TEST(Trap, GuardCatchesTrap) {
  rt::TrapCode Code = runWithTrapGuard(
      [] { rt_trap(static_cast<uint64_t>(TrapCode::Overflow)); });
  EXPECT_EQ(Code, TrapCode::Overflow);
}

TEST(Trap, NestedGuards) {
  rt::TrapCode Outer = runWithTrapGuard([] {
    rt::TrapCode Inner = runWithTrapGuard(
        [] { rt_trap(static_cast<uint64_t>(TrapCode::DivByZero)); });
    EXPECT_EQ(Inner, TrapCode::DivByZero);
    // The outer guard is restored; trap again.
    rt_trap(static_cast<uint64_t>(TrapCode::Overflow));
  });
  EXPECT_EQ(Outer, TrapCode::Overflow);
}

TEST(Trap, NoTrapReturnsNone) {
  EXPECT_EQ(runWithTrapGuard([] {}), TrapCode::None);
}

TEST(Trap, Mul128HelperTraps) {
  Int128 Big = makeInt128(0, 1ull << 62);
  rt::TrapCode Code = runWithTrapGuard([&] { rt_mul128_ovf(Big, 4); });
  EXPECT_EQ(Code, TrapCode::Overflow);
  EXPECT_EQ(runWithTrapGuard([&] {
              Int128 R = rt_mul128_ovf(1000, 1000);
              EXPECT_EQ(R, 1000000);
            }),
            TrapCode::None);
}

// --- Dates -----------------------------------------------------------------------

TEST(Dates, KnownDates) {
  EXPECT_EQ(dateFromYmd(1970, 1, 1), 0);
  EXPECT_EQ(dateFromYmd(1970, 1, 2), 1);
  EXPECT_EQ(dateFromYmd(1969, 12, 31), -1);
  EXPECT_EQ(dateFromYmd(2000, 3, 1), 11017);
  EXPECT_EQ(rt_date_year(dateFromYmd(1995, 6, 17)), 1995);
  EXPECT_EQ(rt_date_month(dateFromYmd(1995, 6, 17)), 6);
  EXPECT_EQ(rt_date_year(dateFromYmd(2024, 2, 29)), 2024);
  EXPECT_EQ(rt_date_month(dateFromYmd(2024, 12, 31)), 12);
}

TEST(Dates, RoundTripSweep) {
  for (int64_t D = -1000; D <= 30000; D += 37) {
    int64_t Y = rt_date_year(D);
    int64_t M = rt_date_month(D);
    EXPECT_GE(M, 1);
    EXPECT_LE(M, 12);
    EXPECT_GE(Y, 1967);
    EXPECT_LE(Y, 2053);
  }
}

// --- OutputBuffer ----------------------------------------------------------------

TEST(OutputBuffer, RowsAndText) {
  OutputBuffer O;
  O.beginRow();
  O.appendI64(42);
  O.appendStr(StringVal::makeRef("abc", 3));
  O.beginRow();
  O.appendF64(2.5);
  O.appendI128(makeInt128(5, 0));
  EXPECT_EQ(O.numRows(), 2u);
  std::string Text = O.toText();
  EXPECT_NE(Text.find("42|abc"), std::string::npos);
  EXPECT_NE(Text.find("2.500000|5"), std::string::npos);
}

TEST(OutputBuffer, I128Rendering) {
  OutputBuffer O;
  O.beginRow();
  O.appendI128(static_cast<Int128>(-1));
  O.beginRow();
  Int128 Big = makeInt128(0x0ull, 0x1ull); // 2^64
  O.appendI128(Big);
  std::string Text = O.toText();
  EXPECT_NE(Text.find("-1"), std::string::npos);
  EXPECT_NE(Text.find("18446744073709551616"), std::string::npos);
}

TEST(OutputBuffer, I128TextMatchesDigitByDigitReference) {
  // The reference: one 128-bit division per digit.
  auto Reference = [](Int128 V) {
    UInt128 U = V < 0 ? UInt128(0) - static_cast<UInt128>(V)
                      : static_cast<UInt128>(V);
    std::string Digits;
    do {
      Digits.insert(Digits.begin(), char('0' + int(U % 10)));
      U /= 10;
    } while (U);
    return (V < 0 ? "-" : "") + Digits;
  };
  const Int128 Max = static_cast<Int128>(~UInt128(0) >> 1), Min = -Max - 1;
  const Int128 E19 = static_cast<Int128>(10'000'000'000'000'000'000ull);
  std::vector<Int128> Values = {0,         1,         -1,
                                INT64_MAX, INT64_MIN, Int128(INT64_MAX) + 1,
                                Int128(INT64_MIN) - 1, Int128(UINT64_MAX),
                                Int128(UINT64_MAX) + 1, E19 - 1, E19, E19 + 1,
                                E19 * E19, E19 * E19 - 1, E19 * 7 + 5, Max,
                                Min,       Min + 1,   Max - 1};
  for (Int128 V : std::vector<Int128>(Values))
    if (V != Min)
      Values.push_back(-V);
  Rng R(17);
  for (int I = 0; I != 2000; ++I) {
    Int128 V = makeInt128(R.next(), R.next());
    Values.push_back(V >> R.nextBounded(127));
  }
  for (Int128 V : Values) {
    OutputBuffer O;
    O.beginRow();
    O.appendI128(V);
    ASSERT_EQ(O.toText(), Reference(V) + "\n");
  }
}

TEST(OutputBuffer, UnorderedDigestIgnoresRowOrder) {
  OutputBuffer A, B;
  A.beginRow();
  A.appendI64(1);
  A.beginRow();
  A.appendI64(2);
  B.beginRow();
  B.appendI64(2);
  B.beginRow();
  B.appendI64(1);
  EXPECT_EQ(A.unorderedDigest(), B.unorderedDigest());
  B.beginRow();
  B.appendI64(3);
  EXPECT_NE(A.unorderedDigest(), B.unorderedDigest());
}

TEST(OutputBuffer, EqualsWithFloatTolerance) {
  OutputBuffer A, B;
  A.beginRow();
  A.appendF64(1.0);
  B.beginRow();
  B.appendF64(1.0 + 1e-13);
  EXPECT_TRUE(A.equals(B));
  OutputBuffer C;
  C.beginRow();
  C.appendF64(1.1);
  EXPECT_FALSE(A.equals(C));
}

TEST(OutputBuffer, StringsCopiedIntoBuffer) {
  OutputBuffer O;
  {
    std::string Tmp = "a rather long string beyond inline";
    O.beginRow();
    O.appendStr(
        StringVal::makeRef(Tmp.data(), static_cast<uint32_t>(Tmp.size())));
  } // Tmp destroyed; the buffer must have copied the bytes.
  EXPECT_NE(O.toText().find("a rather long string beyond inline"),
            std::string::npos);
}

namespace {

/// The text OutputBuffer is specified to give \p V: printf("%.6f"),
/// rendered into a buffer wide enough for any double.
std::string printfF64(double V) {
  char Buf[512];
  int N = std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  EXPECT_LT(N, int(sizeof(Buf)));
  return std::string(Buf, N);
}

} // namespace

TEST(OutputBuffer, EdgeValuesRenderAsPrintfAndDigestTheirText) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
  const double F64s[] = {
      0.0, -0.0, NaN, -NaN, Inf, -Inf, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      // Exact ties at the 6th decimal (7-digit dyadic fractions) and
      // values one ulp either side of a tie.
      0.0078125, 0.0234375, -0.0078125, std::nextafter(0.0078125, 1.0),
      std::nextafter(0.0078125, 0.0), 2.5e-7, 0.9999995, 1.0000005,
      123456.7890125, 1e55, 1e56, -1e56, 1e300, DBL_MAX, -DBL_MAX};
  const int64_t I64s[] = {INT64_MIN, INT64_MAX, 0, -1, 1000000};
  const char *Strs[] = {"a|b", "|", "", "||x|"};
  const Int128 I128Min = static_cast<Int128>(static_cast<UInt128>(1) << 127);
  const Int128 I128Max = ~I128Min;

  OutputBuffer O;
  std::vector<std::string> Rows; // Each row's expected cell text.
  std::string Text;              // The expected toText().
  auto Row = [&](std::vector<std::string> Cells) {
    std::string Line, Repr;
    for (size_t I = 0; I != Cells.size(); ++I) {
      Line += (I ? "|" : "") + Cells[I];
      Repr += Cells[I] + "|";
    }
    Text += Line + "\n";
    Rows.push_back(Repr);
  };
  for (double V : F64s) {
    O.beginRow();
    O.appendF64(V);
    Row({printfF64(V)});
  }
  for (int64_t V : I64s) {
    O.beginRow();
    O.appendI64(V);
    O.appendF64(static_cast<double>(V));
    Row({std::to_string(V), printfF64(static_cast<double>(V))});
  }
  O.beginRow();
  O.appendI128(I128Min);
  O.appendI128(I128Max);
  Row({"-170141183460469231731687303715884105728",
       "170141183460469231731687303715884105727"});
  for (const char *S : Strs) {
    O.beginRow();
    O.appendStr(StringVal::makeRef(S, static_cast<uint32_t>(strlen(S))));
    O.appendI64(7);
    Row({S, "7"});
  }
  EXPECT_EQ(O.toText(), Text);

  uint64_t Sum = 0;
  for (const std::string &R : Rows)
    Sum += hashBytes(R.data(), R.size());
  EXPECT_EQ(O.unorderedDigest(), Sum ^ (Rows.size() * 0x9e3779b97f4a7c15ull));
}

TEST(OutputBuffer, LargeF64TextIsNotTruncated) {
  for (double V : {1e300, DBL_MAX, -DBL_MAX}) {
    OutputBuffer O;
    O.beginRow();
    O.appendF64(V);
    std::string Text = O.toText();
    ASSERT_EQ(Text.back(), '\n');
    Text.pop_back();
    EXPECT_EQ(Text.size(), printfF64(V).size());
    EXPECT_EQ(std::strtod(Text.c_str(), nullptr), V) << Text;
  }
}

// --- C ABI entry points -------------------------------------------------------------

TEST(RuntimeCAbi, OutFunctions) {
  OutputBuffer O;
  rt_out_row(&O);
  rt_out_i64(&O, -5);
  double D = 1.25;
  uint64_t Bits;
  std::memcpy(&Bits, &D, 8);
  rt_out_f64bits(&O, Bits);
  rt_out_i128(&O, makeInt128(7, 0));
  rt_out_str(&O, StringVal::makeRef("xy", 2));
  EXPECT_EQ(O.numRows(), 1u);
  EXPECT_NE(O.toText().find("-5|1.250000|7|xy"), std::string::npos);
}

TEST(RuntimeCAbi, SymbolTableComplete) {
  // Every symbol declared by declareRuntime must resolve to an address.
  qir::Module M;
  RuntimeSyms Syms = declareRuntime(M);
  (void)Syms;
  for (qir::SymbolId I = 0; I != M.numSymbols(); ++I) {
    EXPECT_NE(M.symbol(I).Address, nullptr) << M.symbol(I).Name;
    EXPECT_EQ(M.symbol(I).Address, runtimeSymbolAddress(M.symbol(I).Name));
  }
}

TEST(RuntimeCAbi, RuntimeSigSlotLimit) {
  // The ABI contract: no declared runtime function exceeds 6 slots.
  qir::Module M;
  declareRuntime(M);
  for (qir::SymbolId I = 0; I != M.numSymbols(); ++I) {
    unsigned Slots = 0;
    for (qir::Type T : M.symbol(I).ParamTypes)
      Slots += qir::isTwoLane(T) ? 2 : 1;
    EXPECT_LE(Slots, 6u) << M.symbol(I).Name;
  }
}

TEST(RuntimeCAbi, ArenaAlloc) {
  Arena A;
  void *P1 = rt_arena_alloc(&A, 100);
  void *P2 = rt_arena_alloc(&A, 100);
  EXPECT_NE(P1, nullptr);
  EXPECT_NE(P1, P2);
  std::memset(P1, 0xaa, 100);
  std::memset(P2, 0xbb, 100);
  EXPECT_EQ(static_cast<uint8_t *>(P1)[99], 0xaa);
}

TEST(RuntimeCAbi, SortIsStableAtEverySize) {
  // Sizes around the insertion-sorted runs and each merge pass, with few
  // distinct keys, against std::stable_sort.
  struct Row {
    int64_t Key;
    int64_t Seq;
  };
  auto Cmp = +[](const void *A, const void *B) -> int64_t {
    return static_cast<const Row *>(A)->Key - static_cast<const Row *>(B)->Key;
  };
  Rng R(5);
  for (uint64_t N : {1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 257, 1000}) {
    std::vector<Row> Rows(N);
    for (uint64_t I = 0; I != N; ++I)
      Rows[I] = {int64_t(R.nextBounded(N / 3 + 1)), int64_t(I)};
    std::vector<Row> Want = Rows;
    std::stable_sort(Want.begin(), Want.end(),
                     [](const Row &A, const Row &B) { return A.Key < B.Key; });
    rt_sort(Rows.data(), N, sizeof(Row), reinterpret_cast<void *>(Cmp));
    for (uint64_t I = 0; I != N; ++I) {
      ASSERT_EQ(Rows[I].Key, Want[I].Key) << "n=" << N << " i=" << I;
      ASSERT_EQ(Rows[I].Seq, Want[I].Seq) << "n=" << N << " i=" << I;
    }
  }
}

TEST(RuntimeCAbi, SortWithHostComparator) {
  struct Row {
    int64_t Key;
    int64_t Payload;
  };
  Row Rows[] = {{3, 30}, {1, 10}, {2, 20}, {1, 11}};
  auto Cmp = +[](const void *A, const void *B) -> int64_t {
    return static_cast<const Row *>(A)->Key - static_cast<const Row *>(B)->Key;
  };
  rt_sort(Rows, 4, sizeof(Row), reinterpret_cast<void *>(Cmp));
  EXPECT_EQ(Rows[0].Key, 1);
  EXPECT_EQ(Rows[1].Key, 1);
  // Stable: (1,10) before (1,11).
  EXPECT_EQ(Rows[0].Payload, 10);
  EXPECT_EQ(Rows[1].Payload, 11);
  EXPECT_EQ(Rows[3].Key, 3);
}
