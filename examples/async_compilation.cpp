//===- examples/async_compilation.cpp - CompileService walkthrough ---------===//
//
// Part of the QCF project.
//
// Shows two ways compilation comes off the critical path:
//
//   1. raw CompileService tickets — submit modules, poll or wait;
//   2. a CachingBackend — concurrent misses on one key deduplicate onto
//      a single in-flight compile, which runs on the first caller's
//      thread while the others wait on its handle.
//
// Queries take compilation off their critical path through
// ExecOptions::AdaptiveExec; examples/adaptive_compilation.cpp shows it.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/Registry.h"
#include "qir/Builder.h"
#include <cstdio>
#include <thread>
#include <vector>

using namespace qcf;
using qir::Type;

int main() {
  // A service with two workers and an unbounded queue.
  backend::CompileService Svc(2);

  // --- 1. Raw tickets -----------------------------------------------------
  qir::Module M;
  qir::Function *F = M.createFunction("triple", {Type::I64}, Type::I64);
  qir::Builder B(F);
  B.ret(B.mul(F->paramValue(0), B.constInt(Type::I64, 3)));

  auto Direct = backend::createBackend("DirectEmit");
  backend::CompileTicket T = Svc.submit(M, *Direct);
  // ... overlap other work here; then wait for the code.
  auto Code = T.wait();
  std::printf("ticket: triple(14) = %lld\n",
              (long long)Code->entryAs<int64_t (*)(int64_t)>("triple")(14));
  backend::CompileServiceStats S = Svc.stats();
  std::printf("service: %llu jobs queued, %llu completed, queue high-water "
              "%zu\n",
              (unsigned long long)S.JobsQueued,
              (unsigned long long)S.JobsCompleted, S.QueueDepthHighWater);
  for (const auto &[Name, L] : S.PerBackend)
    std::printf("  %-11s %llu compiles, %.3f/%.3f/%.3f ms min/mean/max\n",
                Name.c_str(), (unsigned long long)L.Count, L.MinSec * 1e3,
                L.meanSec() * 1e3, L.MaxSec * 1e3);

  // --- 2. In-flight dedup through the cache -------------------------------
  backend::CachingBackend Cache(backend::createBackend("Craneline"));
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

  return 0;
}
