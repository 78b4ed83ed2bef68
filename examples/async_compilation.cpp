//===- examples/async_compilation.cpp - CompileService walkthrough ---------===//
//
// Part of the QCF project.
//
// Shows the three ways compilation comes off the critical path:
//
//   1. raw CompileService tickets — submit modules, poll or wait;
//   2. a service-backed CachingBackend — concurrent misses on one key
//      deduplicate onto a single in-flight job;
//   3. db::executeQuery with ExecOptions::AsyncCompile — per-pipeline
//      compilation overlapped with execution of upstream pipelines.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/Registry.h"
#include "db/Codegen.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "qir/Builder.h"
#include <cstdio>
#include <thread>
#include <vector>

using namespace qcf;
using qir::Type;

int main() {
  // A service shared by everything below: two workers, unbounded queue.
  backend::CompileService Svc(2);

  // --- 1. Raw tickets -----------------------------------------------------
  qir::Module M;
  qir::Function *F = M.createFunction("triple", {Type::I64}, Type::I64);
  qir::Builder B(F);
  B.ret(B.mul(F->paramValue(0), B.constInt(Type::I64, 3)));

  auto Direct = backend::createBackend("DirectEmit");
  backend::CompileTicket T = Svc.submit(M, *Direct).Ticket;
  // ... overlap other work here; then wait for the code.
  auto Code = T.wait();
  std::printf("ticket: triple(14) = %lld\n",
              (long long)Code->entryAs<int64_t (*)(int64_t)>("triple")(14));

  // --- 2. In-flight dedup through the cache -------------------------------
  backend::CachingBackend Cache(backend::createBackend("Craneline"),
                                /*Capacity=*/0, &Svc);
  std::vector<std::thread> Threads;
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&] { (void)Cache.compile(M); });
  for (std::thread &Th : Threads)
    Th.join();
  backend::CacheStats CS = Cache.stats();
  std::printf("cache: 4 concurrent lookups -> %llu miss, %llu in-flight "
              "wait(s), %llu hit(s)\n",
              (unsigned long long)CS.Misses,
              (unsigned long long)CS.InFlightWaits,
              (unsigned long long)(CS.Hits - CS.InFlightWaits));

  // --- 3. Async query execution -------------------------------------------
  db::Catalog Cat;
  db::generateTpchLike(Cat, 0.1);
  std::vector<db::Query> Queries = db::tpchQueries();
  db::CompiledPlan Plan = db::compileQuery(Queries.front(), Cat);

  db::ExecOptions Opts;
  Opts.AsyncCompile = true;
  Opts.Service = &Svc;
  rt::OutputBuffer Out;
  auto BE = backend::createBackend("MLVM-cheap");
  db::ExecResult R = db::executeQuery(Plan, *BE, Cat, &Out, Opts);
  std::printf("query '%s': %zu pipelines, stalled %.3f ms on compilation, "
              "ran %.3f ms\n",
              Plan.QueryName.c_str(), Plan.Pipelines.size(),
              R.Stats.AsyncStallNs * 1e-6, R.Stats.ExecNs * 1e-6);

  backend::CompileServiceStats S = Svc.stats();
  std::printf("service: %llu jobs queued, %llu completed, queue high-water "
              "%zu\n",
              (unsigned long long)S.JobsQueued,
              (unsigned long long)S.JobsCompleted, S.QueueDepthHighWater);
  for (const auto &[Name, L] : S.PerBackend)
    std::printf("  %-11s %llu compiles, %.3f/%.3f/%.3f ms min/mean/max\n",
                Name.c_str(), (unsigned long long)L.Count, L.MinSec * 1e3,
                L.meanSec() * 1e3, L.MaxSec * 1e3);
  return 0;
}
