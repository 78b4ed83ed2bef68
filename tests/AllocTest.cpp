//===- tests/AllocTest.cpp - Heap allocations of a warm served query -----===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Counts the heap allocations one warm served query makes: every suite
// query is an L1 code hit and a plan-cache hit, and its thread has served
// the suite before, so the recycled hash-table, executor and result memory
// (DESIGN.md "Execution memory") should leave almost nothing for malloc.
//
// The count comes from malloc-family definitions in this binary that
// forward to glibc's implementations and bump a thread-local counter;
// operator new allocates through malloc, so it is counted too. Sanitizer
// runtimes intercept the same functions, so under ASan and TSan the hooks
// and the test are compiled out.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define QCF_ALLOC_HOOKS 0
#else
#define QCF_ALLOC_HOOKS 1
#endif

#if QCF_ALLOC_HOOKS

#include "db/Datagen.h"
#include "db/Queries.h"
#include "serve/Server.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>

extern "C" {
void *__libc_malloc(size_t);
void *__libc_calloc(size_t, size_t);
void *__libc_realloc(void *, size_t);
void *__libc_memalign(size_t, size_t);
void __libc_free(void *);
}

namespace {
// Initial-exec TLS of the executable: reading it never allocates.
__thread bool Counting;
__thread uint64_t Allocs;

inline void note() {
  if (Counting)
    ++Allocs;
}
} // namespace

extern "C" {
void *malloc(size_t N) {
  note();
  return __libc_malloc(N);
}
void *calloc(size_t N, size_t S) {
  note();
  return __libc_calloc(N, S);
}
void *realloc(void *P, size_t N) {
  note();
  return __libc_realloc(P, N);
}
void free(void *P) { __libc_free(P); }
void *memalign(size_t A, size_t N) {
  note();
  return __libc_memalign(A, N);
}
void *aligned_alloc(size_t A, size_t N) {
  note();
  return __libc_memalign(A, N);
}
int posix_memalign(void **Out, size_t A, size_t N) {
  note();
  void *P = __libc_memalign(A, N);
  if (!P)
    return ENOMEM;
  *Out = P;
  return 0;
}
}

using namespace qcf;

namespace {

/// Allocations the calling thread makes while \p Fn runs.
template <class FnT> uint64_t countAllocs(FnT &&Fn) {
  Allocs = 0;
  Counting = true;
  Fn();
  Counting = false;
  return Allocs;
}

} // namespace

TEST(WarmAlloc, CounterSeesMallocAndNew) {
  uint64_t N = countAllocs([] {
    void *P = std::malloc(24);
    // Keeps the compiler from eliding the allocation.
    asm volatile("" : : "r"(P) : "memory");
    std::free(P);
    int *I = new int(7);
    asm volatile("" : : "r"(I) : "memory");
    delete I;
  });
  EXPECT_EQ(N, 2u);
}

TEST(WarmAlloc, WarmServedQueriesAllocateAlmostNothing) {
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.05);
  db::generateTpcdsLike(Cat, 0.05);
  std::vector<db::Query> Suite = db::tpchQueries();
  for (db::Query &Q : db::tpcdsQueries())
    Suite.push_back(std::move(Q));
  ASSERT_EQ(Suite.size(), 23u);

  obs::MetricsRegistry Reg;
  serve::ServerConfig Cfg;
  Cfg.BackendName = "DirectEmit";
  Cfg.CompileWorkers = 1;
  Cfg.StartSweeper = false;
  Cfg.Reg = &Reg;
  // No disk tier: every warm lookup is an L1 hit.
  unsetenv("QCF_CODE_CACHE");
  serve::Server Srv(Cfg, Cat);
  Srv.registerTenant("t", serve::TenantQuota{});
  serve::OpenOutcome O = Srv.openSession("t");
  ASSERT_EQ(O.Outcome, serve::Admit::Ok);

  // First touches compile (and publish to L1 from a service worker);
  // after the drain, a second pass warms this thread's recycled memory.
  for (const db::Query &Q : Suite)
    ASSERT_TRUE(Srv.execute(O.SessionId, Q).Ok) << Q.Name;
  Srv.compileService().drain();
  for (const db::Query &Q : Suite)
    ASSERT_TRUE(Srv.execute(O.SessionId, Q).Ok) << Q.Name;

  uint64_t Hits0 = Srv.cacheBackend().stats().Hits;
  uint64_t Total = 0;
  for (const db::Query &Q : Suite) {
    serve::QueryOutcome R;
    uint64_t N = countAllocs([&] { R = Srv.execute(O.SessionId, Q); });
    ASSERT_TRUE(R.Ok) << Q.Name;
    std::printf("  %-12s %3llu allocations\n", Q.Name.c_str(),
                static_cast<unsigned long long>(N));
    Total += N;
  }
  EXPECT_EQ(Srv.cacheBackend().stats().Hits - Hits0, Suite.size())
      << "every measured query must be an L1 hit";
  double Mean = double(Total) / double(Suite.size());
  std::printf("  mean %.2f allocations per warm served query\n", Mean);
  EXPECT_LE(Mean, 3.0);
  Srv.closeSession(O.SessionId);
}

TEST(WarmAlloc, LongTenantNameCostsNoAllocation) {
  // The tenant name reaches the compile options as a view, so a name past
  // std::string's inline capacity must cost no allocation either.
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.05);
  std::vector<db::Query> Suite = db::tpchQueries();

  obs::MetricsRegistry Reg;
  serve::ServerConfig Cfg;
  Cfg.BackendName = "DirectEmit";
  Cfg.CompileWorkers = 1;
  Cfg.StartSweeper = false;
  Cfg.Reg = &Reg;
  unsetenv("QCF_CODE_CACHE");
  serve::Server Srv(Cfg, Cat);
  uint64_t Total[2] = {};
  const char *Tenants[2] = {"t", "a-tenant-name-well-past-sixteen-bytes"};
  for (int K = 0; K != 2; ++K) {
    Srv.registerTenant(Tenants[K], serve::TenantQuota{});
    serve::OpenOutcome O = Srv.openSession(Tenants[K]);
    ASSERT_EQ(O.Outcome, serve::Admit::Ok);
    for (int Pass = 0; Pass != 2; ++Pass) {
      for (const db::Query &Q : Suite)
        ASSERT_TRUE(Srv.execute(O.SessionId, Q).Ok) << Q.Name;
      Srv.compileService().drain();
    }
    for (const db::Query &Q : Suite)
      Total[K] += countAllocs([&] {
        ASSERT_TRUE(Srv.execute(O.SessionId, Q).Ok) << Q.Name;
      });
    Srv.closeSession(O.SessionId);
  }
  std::printf("  %llu allocations with a short tenant name, %llu with a long "
              "one\n",
              static_cast<unsigned long long>(Total[0]),
              static_cast<unsigned long long>(Total[1]));
  EXPECT_LE(Total[1], Total[0]);
}

#else

TEST(WarmAlloc, NotBuiltUnderSanitizers) {
  GTEST_SKIP() << "sanitizer runtimes intercept malloc";
}

#endif // QCF_ALLOC_HOOKS
