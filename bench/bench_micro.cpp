//===- bench/bench_micro.cpp - Substrate micro-benchmarks ------------------===//
//
// Part of the QCF project. google-benchmark micro-benchmarks for the
// substrates whose costs the paper reasons about: the x86-64 encoder
// (DirectEmit's branch-minimizing design), the register-allocation B-tree
// (§VI-C3), the join hash table, string equality, and the hash primitives
// (§III-A).
//
//===----------------------------------------------------------------------===//

#include "craneline/BTree.h"
#include "runtime/HashTable.h"
#include "runtime/StringVal.h"
#include "support/Hash.h"
#include "support/MemContext.h"
#include "x64/Asm.h"
#include <benchmark/benchmark.h>
#include <thread>
#include <vector>

using namespace qcf;

static void BM_EncoderAluMix(benchmark::State &State) {
  for (auto _ : State) {
    x64::Assembler A;
    for (int I = 0; I != 100; ++I) {
      A.movRR(x64::Width::W64, x64::Reg::RAX, x64::Reg::RBX);
      A.aluRR(x64::Assembler::Alu::Add, x64::Width::W64, x64::Reg::RAX,
              x64::Reg::RCX);
      A.aluRI(x64::Assembler::Alu::Cmp, x64::Width::W32, x64::Reg::RDX,
              1234);
      A.movRM(x64::Width::W64, x64::Reg::RSI,
              x64::Mem::baseIndex(x64::Reg::RDI, x64::Reg::RDX, 8, 16));
      A.crc32RR(x64::Reg::RAX, x64::Reg::RSI);
    }
    benchmark::DoNotOptimize(A.code().data());
  }
  State.SetItemsProcessed(State.iterations() * 500);
}
BENCHMARK(BM_EncoderAluMix);

static void BM_BTreeInsertQuery(benchmark::State &State) {
  for (auto _ : State) {
    craneline::RangeBTree T;
    for (uint32_t I = 0; I != 200; ++I)
      T.insert({I * 10, I * 10 + 5});
    bool Any = false;
    for (uint32_t I = 0; I != 200; ++I)
      Any |= T.overlaps({I * 10 + 5, I * 10 + 9});
    benchmark::DoNotOptimize(Any);
  }
  State.SetItemsProcessed(State.iterations() * 400);
}
BENCHMARK(BM_BTreeInsertQuery);

static void BM_HashTableBuildProbe(benchmark::State &State) {
  for (auto _ : State) {
    rt::HashTable Ht(16);
    for (uint64_t K = 0; K != 1024; ++K)
      *static_cast<uint64_t *>(Ht.insert(hashU64(K))) = K;
    uint64_t Found = 0;
    for (uint64_t K = 0; K != 1024; ++K)
      Found += Ht.lookup(hashU64(K)) != nullptr;
    benchmark::DoNotOptimize(Found);
  }
  State.SetItemsProcessed(State.iterations() * 2048);
}
BENCHMARK(BM_HashTableBuildProbe);

// Create and destroy an empty table: the directory allocation every join
// and aggregation pays once per query.
static void BM_HashTableCreate(benchmark::State &State) {
  for (auto _ : State) {
    rt::HashTable Ht(16);
    benchmark::DoNotOptimize(Ht.lookup(0));
  }
}
BENCHMARK(BM_HashTableCreate);

// A join build of N entries from T threads (N, T): append them, as the
// build pipeline's workers do, then size the directory and link every
// entry.
static void BM_HashTableBuildLink(benchmark::State &State) {
  uint64_t N = static_cast<uint64_t>(State.range(0));
  unsigned T = static_cast<unsigned>(State.range(1));
  for (auto _ : State) {
    rt::HashTable Ht(16);
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != T; ++I)
      Threads.emplace_back([&Ht, N, T, I] {
        for (uint64_t K = N * I / T; K != N * (I + 1) / T; ++K)
          *static_cast<uint64_t *>(Ht.insertAtomic(hashU64(K))) = K;
      });
    for (std::thread &Th : Threads)
      Th.join();
    Ht.link();
    benchmark::DoNotOptimize(Ht.lookup(hashU64(0)));
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_HashTableBuildLink)
    ->ArgsProduct({{1 << 10, 32 << 10, 96 << 10, 1 << 18}, {1, 2, 4}})
    ->UseRealTime();

// rt::stringEq on 64 pairs per iteration. Case 0: inline, equal. Case 1:
// inline, different in the last byte. Case 2: long, equal bytes behind
// distinct pointers.
static void BM_StringEq(benchmark::State &State) {
  static const char InlineA[] = "ORDER-PRIO-1", InlineB[] = "ORDER-PRIO-2";
  static const char LongA[] = "Customer#000012345 furiously",
                    LongB[] = "Customer#000012345 furiously";
  rt::StringVal A, B;
  switch (State.range(0)) {
  case 0:
    A = rt::StringVal::makeRef(InlineA, 12);
    B = rt::StringVal::makeRef(InlineA, 12);
    break;
  case 1:
    A = rt::StringVal::makeRef(InlineA, 12);
    B = rt::StringVal::makeRef(InlineB, 12);
    break;
  default:
    A = rt::StringVal::makeRef(LongA, sizeof(LongA) - 1);
    B = rt::StringVal::makeRef(LongB, sizeof(LongB) - 1);
    break;
  }
  for (auto _ : State) {
    uint64_t Equal = 0;
    for (int I = 0; I != 64; ++I) {
      benchmark::DoNotOptimize(A);
      benchmark::DoNotOptimize(B);
      Equal += rt::stringEq(A, B);
    }
    benchmark::DoNotOptimize(Equal);
  }
  State.SetItemsProcessed(State.iterations() * 64);
}
BENCHMARK(BM_StringEq)->Arg(0)->Arg(1)->Arg(2);

static void BM_HashPrimitives(benchmark::State &State) {
  uint64_t X = 0x1234567887654321ull;
  for (auto _ : State) {
    for (int I = 0; I != 64; ++I) {
      X = crc32u64(X, X + I);
      X ^= longMulFold(X, 0x9e3779b97f4a7c15ull);
    }
    benchmark::DoNotOptimize(X);
  }
  State.SetItemsProcessed(State.iterations() * 128);
}
BENCHMARK(BM_HashPrimitives);

// The allocation micro-cost underlying E14: a DAG-node-sized object (the
// mlvm SelectionDAG node is ~64 bytes with its inline operand tail) from
// malloc, one pair of new/delete per node, versus a bump allocation from
// a recycled arena slab. The per-node gap times the per-query node count
// (tens of thousands) is the phase-level delta E14 measures end to end.
namespace {
struct DagNodeSized {
  uint64_t Words[8];
};
} // namespace

static void BM_AllocDagNodeMalloc(benchmark::State &State) {
  std::vector<DagNodeSized *> Nodes(1024);
  for (auto _ : State) {
    for (auto &N : Nodes) {
      N = new DagNodeSized();
      benchmark::DoNotOptimize(N);
    }
    for (auto *N : Nodes)
      delete N;
  }
  State.SetItemsProcessed(State.iterations() * Nodes.size());
}
BENCHMARK(BM_AllocDagNodeMalloc);

static void BM_AllocDagNodeArena(benchmark::State &State) {
  // clear() keeps the largest slab, so past the first iteration every
  // allocation is a bump within recycled memory — the steady state of a
  // per-compile MemContext.
  Arena A;
  std::vector<DagNodeSized *> Nodes(1024);
  for (auto _ : State) {
    for (auto &N : Nodes) {
      N = new (A.allocate(sizeof(DagNodeSized), alignof(DagNodeSized)))
          DagNodeSized();
      benchmark::DoNotOptimize(N);
    }
    A.clear();
  }
  State.SetItemsProcessed(State.iterations() * Nodes.size());
}
BENCHMARK(BM_AllocDagNodeArena);

BENCHMARK_MAIN();
