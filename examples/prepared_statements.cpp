//===- examples/prepared_statements.cpp - Plan caching --------------------===//
//
// Part of the QCF project.
//
// The paper shows compile time dominating short queries; the classic
// mitigation is to not compile twice. This example wraps a back-end in
// the content-addressed plan cache and replays a "dashboard" workload —
// the same handful of queries, re-issued every refresh — printing the
// compile cost of the first and subsequent rounds.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "support/TimeTrace.h"
#include <cstdio>

using namespace qcf;

int main(int argc, char **argv) {
  const char *Inner = argc > 1 ? argv[1] : "MLVM-opt";
  backend::CachingBackend BE(backend::createBackend(Inner));

  db::Catalog Cat;
  db::generateTpcdsLike(Cat, 1.0);

  // A dashboard re-issues its panel queries every refresh. Plans are
  // regenerated from scratch each time — the cache keys on the IR, so
  // regeneration still hits.
  for (int Refresh = 0; Refresh != 3; ++Refresh) {
    uint64_t CompileNs = 0, ExecNs = 0;
    size_t Rows = 0;
    for (db::Query &Q : db::tpcdsQueries()) {
      db::CompiledPlan Plan = db::compileQuery(Q, Cat);
      rt::OutputBuffer Out;
      db::ExecResult R = db::executeQuery(Plan, BE, Cat, &Out);
      if (R.Trapped) {
        std::fprintf(stderr, "%s trapped\n", Q.Name.c_str());
        return 1;
      }
      CompileNs += R.Stats.CompileNs;
      ExecNs += R.Stats.ExecNs;
      Rows += Out.numRows();
    }
    backend::CacheStats St = BE.stats();
    std::printf("refresh %d: compile %7.3f ms, execute %7.3f ms, "
                "%zu rows  (cache: %llu hits, %llu misses)\n",
                Refresh, CompileNs * 1e-6, ExecNs * 1e-6, Rows,
                static_cast<unsigned long long>(St.Hits),
                static_cast<unsigned long long>(St.Misses));
  }

  std::printf("\nAfter the first refresh, %s's compile cost disappears — "
              "each repeat compile is one 128-bit two-lane module "
              "fingerprint plus an LRU lookup.\nPlans are still lowered "
              "every refresh; serve::Server's plan cache removes that "
              "too.\n",
              BE.inner().name().c_str());
  return 0;
}
