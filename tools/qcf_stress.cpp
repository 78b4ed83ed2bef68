//===- tools/qcf_stress.cpp - Differential fuzzer (llvm-stress-alike) ------===//
//
// Part of the QCF project.
//
// Generates random QIR programs (structured control flow: loops,
// diamonds, traps, runtime calls) and checks that every JIT back-end
// produces interpreter-identical results and trap behaviour. The same
// generator backs the seeded property tests; this tool runs it open-ended
// for soak testing:
//
//   ./qcf_stress                 # 1000 seeds, all back-ends
//   ./qcf_stress 100000          # more seeds
//   ./qcf_stress 5000 Craneline  # one back-end
//
// On a mismatch it prints the seed, the inputs, and the offending IR, and
// exits nonzero — everything needed to turn the failure into a unit test.
//
// `./qcf_stress --cache-dedup [rounds]` instead soaks CachingBackend's
// in-flight dedup: each round hammers a CachingBackend from several
// threads, whose lookups of a key in flight wait on the miss's handle,
// asserting exactly-one-compile-per-key, Hits + Misses equal to the
// lookups, and interpreter-identical results.
//
// `./qcf_stress --code-cache [rounds]` soaks the persistent disk cache in
// $QCF_CODE_CACHE: thread storms of store/load over a deterministic
// corpus, corruption injection with recompile fallback, all differential
// against the interpreter. With QCF_WARM_CHECK=cold it instead populates
// the cache and requires stores to happen; with QCF_WARM_CHECK=warm it
// requires the whole corpus to install from disk with *zero* back-end
// compiles — the CI warm-restart contract.
//
// `./qcf_stress --serve [--quick]` soaks the serving layer: 1100
// concurrently open sessions across four tenants with distinct quotas,
// 16 driver threads multiplexing deadline-armed queries over them with
// mid-flight closes mixed in. Asserts exactly-once accounting (issued ==
// ok + typed rejects + cancelled), digest-correct results, tenant quotas
// never exceeded, and zero leaked sessions after shutdown.
//
// `./qcf_stress --osr [rounds]` soaks mid-query tier swapping
// (ExecOptions::AdaptiveExec): every round runs the whole benchmark query
// corpus while compile-latency jitter injected into the CompileService
// randomizes the morsel at which the optimized tier lands. Each pipeline's
// morsel accounting is cross-checked (no torn swaps, no lost morsels, no
// double-executed ranges) and every result is digest-compared against a
// never-swapped baseline.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "interp/Interp.h"
#include "qir/Print.h"
#include "runtime/Trap.h"
#include "serve/Server.h"
#include "tests/CountingBackend.h"
#include "tests/RandomQir.h"
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <thread>
#include <unistd.h>

using namespace qcf;

namespace {

struct Outcome {
  bool Trapped = false;
  uint64_t Value = 0;

  bool operator==(const Outcome &O) const {
    return Trapped == O.Trapped && (Trapped || Value == O.Value);
  }
};

Outcome invoke(void *Entry, uint64_t A, uint64_t B) {
  Outcome Out;
  uint64_t R = 0;
  rt::TrapCode Code = rt::runWithTrapGuard([&] {
    R = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(Entry)(A, B);
  });
  if (Code != rt::TrapCode::None)
    Out.Trapped = true;
  else
    Out.Value = R;
  return Out;
}

/// One soak round: thread-storm a cache over K random modules. \returns the number of violations (printed as they are
/// found).
uint64_t cacheDedupRound(uint64_t Round) {
  constexpr int NumModules = 6, NumThreads = 4, Lookups = 20;
  uint64_t Violations = 0;

  std::vector<std::unique_ptr<qir::Module>> Mods;
  interp::InterpBackend Interp;
  std::vector<std::vector<Outcome>> Expected(NumModules);
  std::vector<std::pair<uint64_t, uint64_t>> Inputs;
  Rng InRng(Round ^ 0x5eedfeed);
  for (int I = 0; I != 6; ++I)
    Inputs.emplace_back(InRng.next(), InRng.next());
  Inputs.emplace_back(0, 0);
  Inputs.emplace_back(~0ull, 1);

  for (int K = 0; K != NumModules; ++K) {
    auto M = std::make_unique<qir::Module>();
    uint64_t Seed = Round * NumModules + K;
    Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
    test::RandomFnBuilder RB(*M, R);
    RB.build("rand");
    if (std::optional<std::string> Err = qir::verify(*M)) {
      std::fprintf(stderr, "round %llu: invalid IR: %s\n",
                   static_cast<unsigned long long>(Round), Err->c_str());
      return 1;
    }
    auto Ref = Interp.compile(*M);
    for (auto [A, B] : Inputs)
      Expected[K].push_back(invoke(Ref->entry("rand"), A, B));
    Mods.push_back(std::move(M));
  }

  auto Counting = std::make_unique<test::CountingBackend>(
      backend::createBackend("DirectEmit"));
  test::CountingBackend *Counter = Counting.get();
  backend::CachingBackend Cache(std::move(Counting));

  std::atomic<uint64_t> Bad{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != Lookups; ++I) {
        int K = (T * 7 + I * 5) % NumModules;
        auto C = Cache.compile(*Mods[K]);
        for (size_t J = 0; J != Inputs.size(); ++J)
          if (!(invoke(C->entry("rand"), Inputs[J].first,
                       Inputs[J].second) == Expected[K][J]))
            ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();

  backend::CacheStats S = Cache.stats();
  if (Bad.load()) {
    std::fprintf(stderr, "round %llu: %llu cached-result mismatches\n",
                 static_cast<unsigned long long>(Round),
                 static_cast<unsigned long long>(Bad.load()));
    Violations += Bad.load();
  }
  if (Counter->Compiles.load() != NumModules) {
    std::fprintf(stderr,
                 "round %llu: dedup broke: %llu compiles for %d keys\n",
                 static_cast<unsigned long long>(Round),
                 static_cast<unsigned long long>(Counter->Compiles.load()),
                 NumModules);
    ++Violations;
  }
  if (S.Hits + S.Misses != uint64_t(NumThreads) * Lookups) {
    std::fprintf(stderr, "round %llu: stats drift: %llu hits + %llu misses "
                         "!= %d lookups\n",
                 static_cast<unsigned long long>(Round),
                 static_cast<unsigned long long>(S.Hits),
                 static_cast<unsigned long long>(S.Misses),
                 NumThreads * Lookups);
    ++Violations;
  }

  return Violations;
}

int runCacheDedupSoak(uint64_t Rounds) {
  std::printf("cache-dedup soak: %llu rounds\n",
              static_cast<unsigned long long>(Rounds));
  uint64_t Violations = 0;
  for (uint64_t Round = 0; Round != Rounds; ++Round) {
    Violations += cacheDedupRound(Round);
    if (Violations >= 3) {
      std::fprintf(stderr, "too many violations, stopping\n");
      return 1;
    }
    if ((Round + 1) % 10 == 0)
      std::printf("  %llu rounds ok\n",
                  static_cast<unsigned long long>(Round + 1));
  }
  if (Violations) {
    std::printf("FAILED: %llu violations\n",
                static_cast<unsigned long long>(Violations));
    return 1;
  }
  std::printf("all %llu rounds clean\n",
              static_cast<unsigned long long>(Rounds));
  return 0;
}

/// Deterministic module for the code-cache soak: the same seed produces
/// the same module (and so the same fingerprint) in every process, which
/// is what makes the cross-run warm check meaningful.
std::unique_ptr<qir::Module> buildStressModule(uint64_t Seed) {
  auto M = std::make_unique<qir::Module>();
  Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
  test::RandomFnBuilder RB(*M, R);
  RB.build("rand");
  return M;
}

/// Blob files currently in \p Dir.
std::vector<std::string> listCacheBlobs(const std::string &Dir) {
  std::vector<std::string> Out;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Out;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".qcc") == 0)
      Out.push_back(Dir + "/" + Name);
  }
  ::closedir(D);
  return Out;
}

int runCodeCacheSoak(uint64_t Rounds) {
  const char *DirEnv = std::getenv("QCF_CODE_CACHE");
  if (!DirEnv || !*DirEnv) {
    std::fprintf(stderr, "--code-cache requires $QCF_CODE_CACHE to be set\n");
    return 2;
  }
  const std::string Dir = DirEnv;
  const char *WarmCheck = std::getenv("QCF_WARM_CHECK");

  // Deterministic corpus + interpreter expectations.
  constexpr int NumModules = 8;
  interp::InterpBackend Interp;
  std::vector<std::unique_ptr<qir::Module>> Mods;
  std::vector<std::vector<Outcome>> Expected(NumModules);
  std::vector<std::pair<uint64_t, uint64_t>> Inputs = {
      {0, 0}, {~0ull, 1}, {42, 7}, {0x123456789abcdefull, 3}};
  for (int K = 0; K != NumModules; ++K) {
    Mods.push_back(buildStressModule(K));
    if (std::optional<std::string> Err = qir::verify(*Mods[K])) {
      std::fprintf(stderr, "module %d: invalid IR: %s\n", K, Err->c_str());
      return 1;
    }
    auto Ref = Interp.compile(*Mods[K]);
    for (auto [A, B] : Inputs)
      Expected[K].push_back(invoke(Ref->entry("rand"), A, B));
  }

  /// Compiles the whole corpus through a disk-backed caching stack and
  /// differentially checks every module; returns mismatch count.
  auto RunCorpus = [&](backend::CachingBackend &Cache) {
    uint64_t Bad = 0;
    for (int K = 0; K != NumModules; ++K) {
      auto C = Cache.compile(*Mods[K]);
      for (size_t J = 0; J != Inputs.size(); ++J)
        if (!(invoke(C->entry("rand"), Inputs[J].first, Inputs[J].second) ==
              Expected[K][J]))
          ++Bad;
    }
    return Bad;
  };

  if (WarmCheck && (!std::strcmp(WarmCheck, "cold") ||
                    !std::strcmp(WarmCheck, "warm"))) {
    // CI warm-restart contract: the cold run populates the cache; the warm
    // run (same directory, fresh process) must install everything from
    // disk without a single back-end compile.
    bool Warm = !std::strcmp(WarmCheck, "warm");
    obs::MetricsRegistry Reg;
    backend::DiskCodeCache Disk(Dir, 0, &Reg);
    // QCF_WARM_BACKEND selects which back-end's blobs the warm-restart
    // contract is checked against (default DirectEmit; CI also runs the
    // stencil leg).
    const char *WarmBackend = std::getenv("QCF_WARM_BACKEND");
    auto Counting =
        std::make_unique<test::CountingBackend>(backend::createBackend(
            WarmBackend && *WarmBackend ? WarmBackend : "DirectEmit"));
    test::CountingBackend *Counter = Counting.get();
    backend::CachingBackend Cache(std::move(Counting), 0, nullptr, &Reg, &Disk);
    uint64_t Bad = RunCorpus(Cache);
    backend::DiskCacheStats S = Disk.stats();
    std::printf("code-cache %s run: %llu compiles, %llu disk hits, %llu "
                "stores, %llu mismatches\n",
                WarmCheck,
                static_cast<unsigned long long>(Counter->Compiles.load()),
                static_cast<unsigned long long>(S.Hits),
                static_cast<unsigned long long>(S.Stores),
                static_cast<unsigned long long>(Bad));
    if (Bad)
      return 1;
    if (Warm && (Counter->Compiles.load() != 0 || S.Hits == 0)) {
      std::fprintf(stderr,
                   "FAILED warm check: expected zero back-end compiles and "
                   "disk hits > 0\n");
      return 1;
    }
    if (!Warm && S.Stores == 0) {
      std::fprintf(stderr, "FAILED cold check: nothing was stored\n");
      return 1;
    }
    return 0;
  }

  // Default soak: store/load thread storms plus corruption injection,
  // always falling back to a clean recompile.
  std::printf("code-cache soak: %llu rounds over %s\n",
              static_cast<unsigned long long>(Rounds), Dir.c_str());
  uint64_t Violations = 0;
  for (uint64_t Round = 0; Round != Rounds; ++Round) {
    {
      obs::MetricsRegistry Reg;
      backend::DiskCodeCache Disk(Dir, 0, &Reg);
      backend::CachingBackend Cache(backend::createBackend("DirectEmit"), 0,
                                    nullptr, &Reg, &Disk);
      std::atomic<uint64_t> Bad{0};
      std::vector<std::thread> Threads;
      for (int T = 0; T != 4; ++T)
        Threads.emplace_back([&, T] {
          for (int I = 0; I != 8; ++I) {
            int K = (T * 5 + I * 3) % NumModules;
            auto C = Cache.compile(*Mods[K]);
            for (size_t J = 0; J != Inputs.size(); ++J)
              if (!(invoke(C->entry("rand"), Inputs[J].first,
                           Inputs[J].second) == Expected[K][J]))
                ++Bad;
          }
        });
      for (std::thread &T : Threads)
        T.join();
      Violations += Bad.load();
    }

    // Corrupt one blob, then recompile the whole corpus: the cache must
    // reject it and fall back without any result changing.
    std::vector<std::string> Blobs = listCacheBlobs(Dir);
    if (!Blobs.empty()) {
      const std::string &Victim = Blobs[Round % Blobs.size()];
      int Fd = ::open(Victim.c_str(), O_RDWR);
      if (Fd >= 0) {
        uint8_t Byte = 0;
        off_t Off = static_cast<off_t>(40 + Round % 8);
        if (::pread(Fd, &Byte, 1, Off) == 1) {
          Byte ^= 0x80;
          (void)!::pwrite(Fd, &Byte, 1, Off);
        }
        ::close(Fd);
      }
    }
    {
      obs::MetricsRegistry Reg;
      backend::DiskCodeCache Disk(Dir, 0, &Reg);
      backend::CachingBackend Cache(backend::createBackend("DirectEmit"), 0,
                                    nullptr, &Reg, &Disk);
      uint64_t Bad = RunCorpus(Cache);
      if (Bad) {
        std::fprintf(stderr,
                     "round %llu: %llu mismatches after corruption injection\n",
                     static_cast<unsigned long long>(Round),
                     static_cast<unsigned long long>(Bad));
        Violations += Bad;
      }
    }
    if (Violations >= 3) {
      std::fprintf(stderr, "too many violations, stopping\n");
      return 1;
    }
    if ((Round + 1) % 10 == 0)
      std::printf("  %llu rounds ok\n",
                  static_cast<unsigned long long>(Round + 1));
  }
  if (Violations) {
    std::printf("FAILED: %llu violations\n",
                static_cast<unsigned long long>(Violations));
    return 1;
  }
  std::printf("all %llu rounds clean\n",
              static_cast<unsigned long long>(Rounds));
  return 0;
}

/// One query's fixed context for the OSR soak: its compiled plan plus the
/// never-swapped serial baseline digest and per-pipeline row counts.
struct OsrQueryCase {
  const db::Catalog *Cat;
  std::string Name;
  db::CompiledPlan Plan;
  uint64_t BaseDigest = 0;
  std::vector<uint64_t> PipeRows;
};

int runOsrSoak(uint64_t Rounds) {
  // Small catalogs keep one round cheap; "thousands of pipelines" comes
  // from rounds x queries x pipelines, not from raw row volume.
  static db::Catalog Tpch, Tpcds;
  db::generateTpchLike(Tpch, 0.2);
  db::generateTpcdsLike(Tpcds, 0.2);

  backend::CachingBackend Fast(backend::createBackend("DirectEmit"));
  backend::CachingBackend Opt(backend::createBackend("MLVM-opt"));

  std::vector<OsrQueryCase> Cases;
  auto AddSuite = [&](const db::Catalog &Cat, std::vector<db::Query> Queries,
                      const char *Suite) {
    for (db::Query &Q : Queries) {
      OsrQueryCase C{&Cat, std::string(Suite) + "/" + Q.Name,
                     db::compileQuery(Q, Cat), 0, {}};
      rt::OutputBuffer Out;
      db::ExecResult R = db::executeQuery(C.Plan, Fast, Cat, &Out);
      if (R.Trapped) {
        std::fprintf(stderr, "%s: baseline trapped\n", C.Name.c_str());
        std::exit(1);
      }
      C.BaseDigest = Out.unorderedDigest();
      for (const db::PipelineStats &P : R.Stats.Pipelines)
        C.PipeRows.push_back(P.Rows);
      Cases.push_back(std::move(C));
    }
  };
  AddSuite(Tpch, db::tpchQueries(), "tpch");
  AddSuite(Tpcds, db::tpcdsQueries(), "tpcds");

  std::printf("osr soak: %llu rounds x %zu queries (jittered compile "
              "landing)\n",
              static_cast<unsigned long long>(Rounds), Cases.size());

  backend::CompileService Svc(2);
  uint64_t Violations = 0, Pipelines = 0, Swaps = 0, Seed = 0x05eedull;
  for (uint64_t Round = 0; Round != Rounds; ++Round) {
    // Sweep the landing time from "immediately" to "well past the end of
    // short queries" so early, interior, and too-late swaps all happen.
    Svc.injectCompileLatencyForTest(1u << (5 + Round % 6), Seed++);
    for (OsrQueryCase &C : Cases) {
      rt::OutputBuffer Out;
      db::ExecOptions O;
      O.MorselSize = 256;
      O.AdaptiveExec = true;
      O.FastBackend = &Fast;
      O.Service = &Svc;
      db::ExecResult R = db::executeQuery(C.Plan, Opt, *C.Cat, &Out, O);
      if (R.Trapped) {
        std::fprintf(stderr, "round %llu %s: trapped\n",
                     static_cast<unsigned long long>(Round), C.Name.c_str());
        ++Violations;
        continue;
      }
      if (Out.unorderedDigest() != C.BaseDigest) {
        std::fprintf(stderr, "round %llu %s: tier swap changed the result\n",
                     static_cast<unsigned long long>(Round), C.Name.c_str());
        ++Violations;
      }
      Swaps += R.Stats.OsrSwaps;
      for (size_t PI = 0; PI != R.Stats.Pipelines.size(); ++PI) {
        const db::PipelineStats &P = R.Stats.Pipelines[PI];
        ++Pipelines;
        uint64_t NM = (P.Rows + O.MorselSize - 1) / O.MorselSize;
        bool Bad = P.Morsels != NM ||
                   P.MorselsFast + P.MorselsOpt != P.Morsels ||
                   P.RowsFast + P.RowsOpt != P.Rows;
        if (Bad) {
          std::fprintf(
              stderr,
              "round %llu %s pipeline %zu: torn accounting: rows %llu "
              "(fast %llu + opt %llu), morsels %llu/%llu (fast %llu + opt "
              "%llu)\n",
              static_cast<unsigned long long>(Round), C.Name.c_str(), PI,
              static_cast<unsigned long long>(P.Rows),
              static_cast<unsigned long long>(P.RowsFast),
              static_cast<unsigned long long>(P.RowsOpt),
              static_cast<unsigned long long>(P.Morsels),
              static_cast<unsigned long long>(NM),
              static_cast<unsigned long long>(P.MorselsFast),
              static_cast<unsigned long long>(P.MorselsOpt));
          ++Violations;
        }
      }
    }
    if (Violations >= 3) {
      std::fprintf(stderr, "too many violations, stopping\n");
      return 1;
    }
    if ((Round + 1) % 10 == 0)
      std::printf("  %llu rounds ok (%llu pipelines, %llu swaps)\n",
                  static_cast<unsigned long long>(Round + 1),
                  static_cast<unsigned long long>(Pipelines),
                  static_cast<unsigned long long>(Swaps));
  }
  if (Violations) {
    std::printf("FAILED: %llu violations\n",
                static_cast<unsigned long long>(Violations));
    return 1;
  }
  std::printf("all %llu rounds clean: %llu pipelines, %llu tier swaps, no "
              "torn accounting\n",
              static_cast<unsigned long long>(Rounds),
              static_cast<unsigned long long>(Pipelines),
              static_cast<unsigned long long>(Swaps));
  return 0;
}

/// Serving-layer soak (`--serve`): a fleet-shaped workload against one
/// in-process serve::Server. Four tenants with distinct quotas open
/// sessions up to every cap (1100 concurrently open), 16 driver threads
/// multiplex queries over them — with deadline-armed queries, mid-flight
/// closes, and over-cap opens mixed in — and every completed result is
/// digest-checked against a serial baseline. The exactly-once contract:
/// issued == ok + rejected + cancelled + trapped, with zero digest
/// mismatches, tenant gauges never above their quotas, and every session
/// accounted for (opened == closed + evicted, open-gauge 0) at the end.
int runServeSoak(bool Quick) {
  static db::Catalog Cat;
  db::generateTpchLike(Cat, 0.05);
  std::vector<db::Query> Queries = db::tpchQueries();

  // Serial baseline digests, one per query, on an isolated stack.
  std::vector<uint64_t> BaseDigest(Queries.size());
  {
    backend::CachingBackend Base(backend::createBackend("DirectEmit"));
    for (size_t QI = 0; QI != Queries.size(); ++QI) {
      db::CompiledPlan Plan = db::compileQuery(Queries[QI], Cat);
      rt::OutputBuffer Out;
      db::ExecResult R = db::executeQuery(Plan, Base, Cat, &Out);
      if (R.Trapped) {
        std::fprintf(stderr, "%s: baseline trapped\n", Queries[QI].Name.c_str());
        return 1;
      }
      BaseDigest[QI] = Out.unorderedDigest();
    }
  }

  obs::MetricsRegistry Reg;
  serve::ServerConfig Cfg;
  Cfg.Reg = &Reg;
  Cfg.BackendName = "DirectEmit";
  Cfg.CompileWorkers = 4;
  Cfg.CompileQueueCapacity = 32;
  Cfg.Admission.Slots = 8;
  Cfg.Admission.MaxWaiters = 64;
  Cfg.IdleTimeoutNs = 60'000'000'000ull; // No surprise evictions mid-soak.
  Cfg.SweepIntervalNs = 50'000'000ull;   // But the sweeper thread runs.
  serve::Server Srv(Cfg, Cat);
  // Compile-landing jitter pushes service-queue and fairness-share
  // pressure around instead of clustering at warmup.
  Srv.compileService().injectCompileLatencyForTest(200);

  struct TenantCase {
    const char *Name;
    serve::TenantQuota Quota;
  };
  const TenantCase Tenants[] = {
      {"alpha", {500, 64ull << 20, 8, false}},
      {"beta", {300, 32ull << 20, 4, false}},
      {"gamma", {200, 16ull << 20, 2, true}},
      {"delta", {100, 8ull << 20, 2, false}},
  };
  uint64_t MaxSessionsTotal = 0;
  for (const TenantCase &T : Tenants) {
    Srv.registerTenant(T.Name, T.Quota);
    MaxSessionsTotal += T.Quota.MaxSessions;
  }

  // Phase 1: every tenant opens past its cap; the overshoot must come
  // back as typed SessionQuota rejections, leaving exactly the quota
  // open — 1100 concurrently live sessions across the four tenants.
  std::vector<std::pair<uint64_t, size_t>> Open; // (sid, tenant index)
  std::mutex OpenMutex;
  std::atomic<uint64_t> OpenRejected{0};
  {
    std::vector<std::thread> Openers;
    for (size_t TI = 0; TI != 4; ++TI)
      Openers.emplace_back([&, TI] {
        const TenantCase &T = Tenants[TI];
        for (uint64_t I = 0; I != T.Quota.MaxSessions + 25; ++I) {
          serve::OpenOutcome O = Srv.openSession(T.Name);
          if (O.Outcome == serve::Admit::Ok) {
            std::lock_guard<std::mutex> Lock(OpenMutex);
            Open.emplace_back(O.SessionId, TI);
          } else {
            ++OpenRejected;
          }
        }
      });
    for (std::thread &T : Openers)
      T.join();
  }
  uint64_t Violations = 0;
  if (Open.size() != MaxSessionsTotal || OpenRejected.load() != 4 * 25) {
    std::fprintf(stderr,
                 "session quota breach: %zu open (want %llu), %llu rejected "
                 "(want 100)\n",
                 Open.size(), static_cast<unsigned long long>(MaxSessionsTotal),
                 static_cast<unsigned long long>(OpenRejected.load()));
    ++Violations;
  }
  std::printf("serve soak: %zu concurrent sessions across 4 tenants, %llu "
              "over-cap opens rejected\n",
              Open.size(),
              static_cast<unsigned long long>(OpenRejected.load()));

  // Phase 2: 16 drivers multiplex queries over the open sessions. A
  // session picked by two drivers at once yields one typed SessionBusy —
  // counted, never lost. Every 7th query gets a 30us deadline (resolves
  // as Cancelled or as a fast Ok), every 97th session close races a
  // query in flight.
  const unsigned NumDrivers = 16;
  const uint64_t PerDriver = Quick ? 40 : 400;
  std::atomic<uint64_t> Issued{0}, Ok{0}, Rejected{0}, Cancelled{0},
      Trapped{0}, BadDigest{0}, QuotaBreaches{0};
  std::atomic<bool> MonitorStop{false};
  std::thread Monitor([&] {
    // Quota invariant, sampled live: reserved compile bytes never above
    // the cap (reservations are settled down, never up past admission).
    while (!MonitorStop.load(std::memory_order_acquire)) {
      obs::MetricsSnapshot Snap = Reg.snapshot();
      for (const TenantCase &T : Tenants) {
        int64_t Bytes =
            Snap.gauge("serve.tenant." + std::string(T.Name) + ".compile_bytes");
        if (Bytes > int64_t(T.Quota.MaxCompileBytes))
          ++QuotaBreaches;
        int64_t Sessions =
            Snap.gauge("serve.tenant." + std::string(T.Name) + ".sessions");
        if (Sessions > int64_t(T.Quota.MaxSessions))
          ++QuotaBreaches;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  {
    std::vector<std::thread> Drivers;
    for (unsigned D = 0; D != NumDrivers; ++D)
      Drivers.emplace_back([&, D] {
        Rng R(D * 0x9e3779b97f4a7c15ull + 1);
        for (uint64_t I = 0; I != PerDriver; ++I) {
          auto [Sid, TI] = Open[R.next() % Open.size()];
          size_t QI = R.next() % Queries.size();
          uint64_t DeadlineNs = (I % 7 == 6) ? 30'000 : 0;
          if (I % 97 == 96)
            Srv.closeSession(Sid); // Races the executes below; typed.
          rt::OutputBuffer Out;
          ++Issued;
          serve::QueryOutcome Q =
              Srv.execute(Sid, Queries[QI], &Out, DeadlineNs);
          if (Q.Ok) {
            ++Ok;
            if (Q.Digest != BaseDigest[QI])
              ++BadDigest;
          } else if (Q.Cancelled) {
            ++Cancelled;
          } else if (Q.Trapped) {
            ++Trapped;
          } else {
            ++Rejected;
          }
        }
      });
    for (std::thread &T : Drivers)
      T.join();
  }
  MonitorStop.store(true, std::memory_order_release);
  Monitor.join();

  if (BadDigest.load()) {
    std::fprintf(stderr, "%llu digest mismatches (lost/duplicated rows)\n",
                 static_cast<unsigned long long>(BadDigest.load()));
    ++Violations;
  }
  if (Ok.load() + Rejected.load() + Cancelled.load() + Trapped.load() !=
      Issued.load()) {
    std::fprintf(stderr, "lost queries: issued %llu != accounted %llu\n",
                 static_cast<unsigned long long>(Issued.load()),
                 static_cast<unsigned long long>(Ok.load() + Rejected.load() +
                                                 Cancelled.load() +
                                                 Trapped.load()));
    ++Violations;
  }
  if (Trapped.load())
    ++Violations;
  if (QuotaBreaches.load()) {
    std::fprintf(stderr, "%llu sampled tenant-quota breaches\n",
                 static_cast<unsigned long long>(QuotaBreaches.load()));
    ++Violations;
  }

  // Phase 3: close everything (some already closed mid-soak), then shut
  // down; every session must be accounted for.
  for (auto [Sid, TI] : Open)
    Srv.closeSession(Sid);
  Srv.shutdown();
  obs::MetricsSnapshot Snap = Reg.snapshot();
  if (Snap.gauge("serve.sessions.open") != 0 || Srv.numSessions() != 0) {
    std::fprintf(stderr, "session leak: gauge %lld, map %zu\n",
                 static_cast<long long>(Snap.gauge("serve.sessions.open")),
                 Srv.numSessions());
    ++Violations;
  }
  if (Snap.counter("serve.sessions.opened") !=
      Snap.counter("serve.sessions.closed") +
          Snap.counter("serve.sessions.evicted")) {
    std::fprintf(stderr, "session accounting leak\n");
    ++Violations;
  }
  if (Snap.counterSumWithPrefix("serve.") == 0) {
    std::fprintf(stderr, "no serve.* metrics visible\n");
    ++Violations;
  }

  const obs::HistogramSnapshot *Wait =
      Snap.histogram("serve.admission.wait_ns");
  std::printf(
      "  %llu issued: %llu ok, %llu rejected (typed), %llu cancelled; "
      "admission p50/p99 %.2f/%.2f ms; shed %llu, queue-full %llu\n",
      static_cast<unsigned long long>(Issued.load()),
      static_cast<unsigned long long>(Ok.load()),
      static_cast<unsigned long long>(Rejected.load()),
      static_cast<unsigned long long>(Cancelled.load()),
      Wait ? Wait->percentileNs(0.5) / 1e6 : 0.0,
      Wait ? Wait->percentileNs(0.99) / 1e6 : 0.0,
      static_cast<unsigned long long>(
          Snap.counter("serve.admission.rejected.shed")),
      static_cast<unsigned long long>(
          Snap.counter("serve.admission.rejected.full")));
  backend::CacheStats CS = Srv.cacheBackend().stats();
  std::printf("  code cache: %llu lookups, %llu misses, %llu answered on the "
              "fast tier\n",
              static_cast<unsigned long long>(CS.lookups()),
              static_cast<unsigned long long>(CS.Misses),
              static_cast<unsigned long long>(CS.FastTier));
  // Phase 4: deliberate overload against a deliberately tiny gate (one
  // slot, two waiters) with a background and a foreground tenant — the
  // load-shed path must fire (foreground arrivals evict queued
  // background waiters) and every overflow must come back typed.
  {
    obs::MetricsRegistry Reg2;
    serve::ServerConfig C2;
    C2.Reg = &Reg2;
    C2.BackendName = "DirectEmit";
    C2.Admission.Slots = 1;
    C2.Admission.MaxWaiters = 2;
    C2.StartSweeper = false;
    serve::Server Srv2(C2, Cat);
    Srv2.registerTenant("fg", {});
    serve::TenantQuota BgQ;
    BgQ.Background = true;
    Srv2.registerTenant("bg", BgQ);

    // The phase holds the only slot until the threads' first queries have
    // met it: at most MaxWaiters of them can queue, so the rest come back
    // shed or queue-full however the threads are scheduled.
    constexpr unsigned NumThreads = 16;
    bool Held = Srv2.admission().enter().Outcome == serve::Admit::Ok;
    if (!Held) {
      std::fprintf(stderr, "overload phase could not hold the slot\n");
      ++Violations;
    }
    std::atomic<uint64_t> Issued2{0}, Done2{0};
    std::atomic<unsigned> FirstBack{0};
    std::vector<std::thread> Threads;
    for (unsigned D = 0; D != NumThreads; ++D)
      Threads.emplace_back([&, D] {
        const char *Tenant = D < 8 ? "bg" : "fg";
        serve::OpenOutcome O = Srv2.openSession(Tenant);
        if (O.Outcome != serve::Admit::Ok) {
          ++FirstBack;
          return;
        }
        for (int I = 0, N = Quick ? 10 : 40; I != N; ++I) {
          ++Issued2;
          serve::QueryOutcome Q = Srv2.execute(O.SessionId, Queries[0]);
          if (Q.Ok || Q.Cancelled || Q.Trapped ||
              Q.Outcome != serve::Admit::Ok)
            ++Done2;
          if (I == 0)
            ++FirstBack;
        }
        Srv2.closeSession(O.SessionId);
      });
    for (int W = 0; W != 10000 && FirstBack.load() + C2.Admission.MaxWaiters <
                                      NumThreads;
         ++W)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (Held)
      Srv2.admission().leave();
    for (std::thread &T : Threads)
      T.join();
    obs::MetricsSnapshot Snap2 = Reg2.snapshot();
    uint64_t Shed = Snap2.counter("serve.admission.rejected.shed");
    uint64_t Full = Snap2.counter("serve.admission.rejected.full");
    if (Issued2.load() != Done2.load()) {
      std::fprintf(stderr, "overload phase lost queries: %llu != %llu\n",
                   static_cast<unsigned long long>(Issued2.load()),
                   static_cast<unsigned long long>(Done2.load()));
      ++Violations;
    }
    if (Shed + Full == 0) {
      std::fprintf(stderr,
                   "overload phase produced no shed/queue-full rejections\n");
      ++Violations;
    }
    std::printf("  overload phase: %llu issued, %llu shed, %llu queue-full — "
                "all typed\n",
                static_cast<unsigned long long>(Issued2.load()),
                static_cast<unsigned long long>(Shed),
                static_cast<unsigned long long>(Full));
  }

  if (Violations) {
    std::printf("FAILED: %llu violations\n",
                static_cast<unsigned long long>(Violations));
    return 1;
  }
  std::printf("serve soak clean: quotas enforced, no lost results, graceful "
              "load shedding\n");
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && std::strcmp(argv[1], "--cache-dedup") == 0)
    return runCacheDedupSoak(
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 50);
  if (argc > 1 && std::strcmp(argv[1], "--code-cache") == 0)
    return runCodeCacheSoak(argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 20);
  if (argc > 1 && std::strcmp(argv[1], "--osr") == 0)
    return runOsrSoak(argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 40);
  if (argc > 1 && std::strcmp(argv[1], "--serve") == 0)
    return runServeSoak(argc > 2 && std::strcmp(argv[2], "--quick") == 0);
  if (argc > 1 && argv[1][0] == '-') {
    std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
    return 2;
  }
  uint64_t NumSeeds = argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 1000;
  const char *Only = argc > 2 ? argv[2] : nullptr;

  std::vector<std::string> Backends;
  for (const std::string &Name : backend::allBackendNames()) {
    // GCC is ~1000x slower per module: soak it only when asked by name.
    if (Name == "Interpreter" || (Name == "GCC" && !Only))
      continue;
    if (Only && Name != Only)
      continue;
    Backends.push_back(Name);
  }
  if (Backends.empty()) {
    std::fprintf(stderr, "unknown back-end '%s'\n", Only ? Only : "");
    return 2;
  }
  std::printf("stress: %llu seeds x %zu back-ends\n",
              static_cast<unsigned long long>(NumSeeds), Backends.size());

  interp::InterpBackend Interp;
  uint64_t Mismatches = 0;
  for (uint64_t Seed = 0; Seed != NumSeeds; ++Seed) {
    qir::Module M;
    Rng R(Seed * 6364136223846793005ull + 1442695040888963407ull);
    test::RandomFnBuilder RB(M, R);
    RB.build("rand");
    if (std::optional<std::string> Err = qir::verify(M)) {
      std::fprintf(stderr, "seed %llu: generator produced invalid IR: %s\n",
                   static_cast<unsigned long long>(Seed), Err->c_str());
      return 1;
    }

    auto Ref = Interp.compile(M);
    std::vector<std::pair<uint64_t, uint64_t>> Inputs;
    for (int I = 0; I != 8; ++I)
      Inputs.emplace_back(R.next(), R.next());
    Inputs.emplace_back(0, 0);
    Inputs.emplace_back(~0ull, 1);

    std::vector<Outcome> Expected;
    for (auto [A, B] : Inputs)
      Expected.push_back(invoke(Ref->entry("rand"), A, B));

    for (const std::string &Name : Backends) {
      auto BE = backend::createBackend(Name);
      auto Compiled = BE->compile(M);
      for (size_t I = 0; I != Inputs.size(); ++I) {
        Outcome Got = invoke(Compiled->entry("rand"), Inputs[I].first,
                             Inputs[I].second);
        if (!(Got == Expected[I])) {
          ++Mismatches;
          std::fprintf(
              stderr,
              "MISMATCH seed=%llu backend=%s args=(%llu, %llu)\n"
              "  interp: trapped=%d value=%llu\n  %s: trapped=%d "
              "value=%llu\n%s\n",
              static_cast<unsigned long long>(Seed), Name.c_str(),
              static_cast<unsigned long long>(Inputs[I].first),
              static_cast<unsigned long long>(Inputs[I].second),
              Expected[I].Trapped,
              static_cast<unsigned long long>(Expected[I].Value),
              Name.c_str(), Got.Trapped,
              static_cast<unsigned long long>(Got.Value),
              qir::printModule(M).c_str());
          if (Mismatches >= 3) {
            std::fprintf(stderr, "too many mismatches, stopping\n");
            return 1;
          }
        }
      }
    }
    if ((Seed + 1) % 250 == 0)
      std::printf("  %llu seeds ok\n",
                  static_cast<unsigned long long>(Seed + 1));
  }
  if (Mismatches) {
    std::printf("FAILED: %llu mismatches\n",
                static_cast<unsigned long long>(Mismatches));
    return 1;
  }
  std::printf("all %llu seeds agree on all back-ends\n",
              static_cast<unsigned long long>(NumSeeds));
  return 0;
}
