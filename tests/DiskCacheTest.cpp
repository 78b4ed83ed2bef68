//===- tests/DiskCacheTest.cpp - Persistent code cache tests --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the on-disk second-level code cache: per-back-end round
/// trips (byte-identical re-serialization, identical execution including
/// re-patched runtime calls), warm-restart installs with zero back-end
/// compiles, every failure path falling back to a clean recompile
/// (truncation, corruption, stale format version, concurrent writers),
/// the size-budget GC, env-var construction, and config keying.
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/DiskCache.h"
#include "backend/Registry.h"
#include "craneline/Craneline.h"
#include "qir/Builder.h"
#include "runtime/Runtime.h"
#include "tests/CountingBackend.h"
#include "x64/ExecArena.h"
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace qcf;
using namespace qcf::qir;
using namespace qcf::backend;
using qcf::test::CountingBackend;

namespace {

/// A scratch directory removed (with its files) on scope exit.
struct TempDir {
  std::string Path;
  TempDir() {
    const char *Root = ::getenv("TMPDIR");
    std::string T = (Root && *Root) ? Root : "/tmp";
    T += "/qcfdiskXXXXXX";
    char *P = ::mkdtemp(T.data());
    EXPECT_NE(P, nullptr);
    Path = T;
  }
  ~TempDir() {
    DIR *D = ::opendir(Path.c_str());
    if (!D)
      return;
    while (struct dirent *E = ::readdir(D)) {
      if (!std::strcmp(E->d_name, ".") || !std::strcmp(E->d_name, ".."))
        continue;
      ::unlink((Path + "/" + E->d_name).c_str());
    }
    ::closedir(D);
    ::rmdir(Path.c_str());
  }
};

/// Blob files (full paths, sorted) currently in \p Dir.
std::vector<std::string> listBlobs(const std::string &Dir) {
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
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Builds `fn(a) = a * K + 7`.
void buildAffine(qir::Module &M, int64_t K, const char *Name = "f") {
  qir::Function *F = M.createFunction(Name, {Type::I64}, Type::I64);
  Builder B(F);
  ValueId P = B.mul(F->paramValue(0), B.constInt(Type::I64, K));
  B.ret(B.add(P, B.constInt(Type::I64, 7)));
}

/// Builds a module spanning every relocation kind a persisted blob must
/// re-patch against the live runtime: an explicit runtime call
/// (rt_crc32), an i128 shift that back-ends lower to the rt_shl128
/// helper, and a division whose trap stub targets rt_trap.
void buildRelocModule(qir::Module &M) {
  SymbolId Crc =
      M.declareRuntime("rt_crc32", Type::I64, {Type::I64, Type::I64},
                       rt::runtimeSymbolAddress("rt_crc32"));
  {
    qir::Function *F =
        M.createFunction("crc", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    B.ret(B.call(Crc, {F->paramValue(0), F->paramValue(1)}));
  }
  {
    qir::Function *F =
        M.createFunction("shl128", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    ValueId X = B.packI128(F->paramValue(0), F->paramValue(1));
    ValueId S = B.shl(X, B.constInt(Type::I64, 23));
    B.ret(B.xor_(B.extractLo(S), B.extractHi(S)));
  }
  {
    qir::Function *F =
        M.createFunction("divs", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    B.ret(B.sdiv(F->paramValue(0), F->paramValue(1)));
  }
}

using Fn2 = int64_t (*)(int64_t, int64_t);

/// Runs the reloc module's three entry points and checks them against the
/// runtime itself / plain C arithmetic.
void checkRelocModule(CompiledModule &C) {
  auto *CrcRt = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(
      rt::runtimeSymbolAddress("rt_crc32"));
  ASSERT_NE(CrcRt, nullptr);
  auto *Crc = C.entryAs<Fn2>("crc");
  auto *Shl = C.entryAs<Fn2>("shl128");
  auto *Div = C.entryAs<Fn2>("divs");
  ASSERT_NE(Crc, nullptr);
  ASSERT_NE(Shl, nullptr);
  ASSERT_NE(Div, nullptr);
  for (int64_t A : {int64_t(0), int64_t(42), int64_t(-9000)})
    EXPECT_EQ(uint64_t(Crc(A, A * 31 + 5)),
              CrcRt(uint64_t(A), uint64_t(A * 31 + 5)));
  for (uint64_t Lo : {uint64_t(1), uint64_t(0xdeadbeefcafebabeull)}) {
    unsigned __int128 X =
        (static_cast<unsigned __int128>(7) << 64) | Lo;
    unsigned __int128 S = X << 23;
    EXPECT_EQ(uint64_t(Shl(int64_t(Lo), 7)),
              uint64_t(S) ^ uint64_t(S >> 64));
  }
  EXPECT_EQ(Div(100, 7), 14);
  EXPECT_EQ(Div(-100, 7), -14);
}

/// Full round trip for one registered back-end: compile, store, load into
/// a module that must execute identically and re-serialize to the exact
/// same bytes.
void roundTrip(const char *BackendName) {
  SCOPED_TRACE(BackendName);
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, /*BudgetBytes=*/0, &Reg);

  qir::Module M;
  buildRelocModule(M);
  ModuleFingerprint Key = fingerprintModule(M);
  std::unique_ptr<Backend> BE = createBackend(BackendName);
  CompileOptions Opts;

  std::unique_ptr<CompiledModule> Fresh = BE->compile(M, Opts);
  ASSERT_NE(Fresh, nullptr);
  checkRelocModule(*Fresh);

  ASSERT_TRUE(Cache.store(Key, *BE, *Fresh, Opts));
  EXPECT_EQ(Cache.stats().Stores, 1u);
  EXPECT_EQ(listBlobs(Dir.Path).size(), 1u);

  std::shared_ptr<CompiledModule> Warm = Cache.load(Key, *BE, Opts);
  ASSERT_NE(Warm, nullptr);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  checkRelocModule(*Warm);
  EXPECT_EQ(Reg.snapshot().gauge("code.arena.bytes"),
            static_cast<int64_t>(x64::ExecArena::global().bytesAllocated()));

  // The warm module must serialize back to byte-identical payload — the
  // differential half of the warm-restart acceptance criterion.
  std::vector<uint8_t> P1, P2;
  ASSERT_TRUE(Fresh->serialize(P1));
  ASSERT_TRUE(Warm->serialize(P2));
  EXPECT_EQ(P1, P2) << "disk-loaded module must re-serialize byte-identically";
}

} // namespace

TEST(DiskCache, RoundTripDirect) { roundTrip("DirectEmit"); }
TEST(DiskCache, RoundTripCraneline) { roundTrip("Craneline"); }
TEST(DiskCache, RoundTripMlvmCheap) { roundTrip("MLVM-cheap"); }
TEST(DiskCache, RoundTripMlvmOpt) { roundTrip("MLVM-opt"); }

TEST(DiskCache, WarmRestartSkipsBackend) {
  TempDir Dir;
  qir::Module A, B;
  buildRelocModule(A);
  buildAffine(B, 13);

  // "Process" 1: cold — every module reaches the inner back-end and is
  // persisted.
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Disk(Dir.Path, 0, &Reg);
    auto Counting = std::make_unique<CountingBackend>(createBackend("DirectEmit"));
    CountingBackend *Inner = Counting.get();
    CachingBackend BE(std::move(Counting), 0, nullptr, &Reg, &Disk);
    checkRelocModule(*BE.compile(A));
    EXPECT_EQ(BE.compile(B)->entryAs<int64_t (*)(int64_t)>("f")(3), 46);
    EXPECT_EQ(Inner->Compiles.load(), 2u);
    EXPECT_EQ(Disk.stats().Stores, 2u);
    EXPECT_EQ(Disk.stats().Misses, 2u);
  }

  // "Process" 2: warm — same cache directory, fresh everything else. The
  // inner back-end must never run; both installs come off disk.
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Disk(Dir.Path, 0, &Reg);
    auto Counting = std::make_unique<CountingBackend>(createBackend("DirectEmit"));
    CountingBackend *Inner = Counting.get();
    CachingBackend BE(std::move(Counting), 0, nullptr, &Reg, &Disk);
    checkRelocModule(*BE.compile(A));
    EXPECT_EQ(BE.compile(B)->entryAs<int64_t (*)(int64_t)>("f")(3), 46);
    EXPECT_EQ(Inner->Compiles.load(), 0u)
        << "warm restart must not invoke the back-end";
    EXPECT_EQ(Inner->Deserializes.load(), 2u);
    EXPECT_EQ(Disk.stats().Hits, 2u);
    EXPECT_EQ(Disk.stats().Stores, 0u) << "disk hits must not re-store";
    // In-memory hits after the first install: disk not consulted again.
    BE.compile(A);
    EXPECT_EQ(Disk.stats().Hits, 2u);
  }
}

namespace {

/// Stores one affine module into \p Dir and returns (key, blob path).
std::pair<ModuleFingerprint, std::string>
storeOne(DiskCodeCache &Cache, Backend &BE, int64_t K = 5) {
  qir::Module M;
  buildAffine(M, K);
  ModuleFingerprint Key = fingerprintModule(M);
  CompileOptions Opts;
  std::unique_ptr<CompiledModule> C = BE.compile(M, Opts);
  EXPECT_TRUE(Cache.store(Key, BE, *C, Opts));
  std::vector<std::string> Blobs = listBlobs(Cache.directory());
  EXPECT_EQ(Blobs.size(), 1u);
  return {Key, Blobs.empty() ? std::string() : Blobs.front()};
}

} // namespace

TEST(DiskCache, TruncatedBlobFallsBackToRecompile) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  auto [Key, Blob] = storeOne(Cache, *BE);

  struct stat St;
  ASSERT_EQ(::stat(Blob.c_str(), &St), 0);

  // Mid-body truncation: the checksum no longer matches.
  ASSERT_EQ(::truncate(Blob.c_str(), St.st_size - 3), 0);
  EXPECT_EQ(Cache.load(Key, *BE, CompileOptions()), nullptr);
  EXPECT_EQ(Cache.stats().Rejected, 1u);
  EXPECT_TRUE(listBlobs(Dir.Path).empty()) << "invalid blob must be unlinked";

  // Header-level truncation.
  auto [Key2, Blob2] = storeOne(Cache, *BE);
  ASSERT_EQ(::truncate(Blob2.c_str(), 10), 0);
  EXPECT_EQ(Cache.load(Key2, *BE, CompileOptions()), nullptr);
  EXPECT_EQ(Cache.stats().Rejected, 2u);
  EXPECT_TRUE(listBlobs(Dir.Path).empty());

  // The full stack still compiles cleanly after the reject.
  obs::MetricsRegistry Reg2;
  DiskCodeCache Disk2(Dir.Path, 0, &Reg2);
  CachingBackend Caching(createBackend("DirectEmit"), 0, nullptr, &Reg2,
                         &Disk2);
  qir::Module M;
  buildAffine(M, 5);
  EXPECT_EQ(Caching.compile(M)->entryAs<int64_t (*)(int64_t)>("f")(4), 27);
}

TEST(DiskCache, FlippedChecksumByteRejected) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  auto [Key, Blob] = storeOne(Cache, *BE);

  // Flip one byte in the body (past the 40-byte envelope header).
  int Fd = ::open(Blob.c_str(), O_RDWR);
  ASSERT_GE(Fd, 0);
  uint8_t Byte = 0;
  ASSERT_EQ(::pread(Fd, &Byte, 1, 48), 1);
  Byte ^= 0x40;
  ASSERT_EQ(::pwrite(Fd, &Byte, 1, 48), 1);
  ::close(Fd);

  EXPECT_EQ(Cache.load(Key, *BE, CompileOptions()), nullptr);
  EXPECT_EQ(Cache.stats().Rejected, 1u);
  EXPECT_EQ(Cache.stats().Hits, 0u);
  EXPECT_TRUE(listBlobs(Dir.Path).empty());
}

/// The index behind DiskCodeCache::mayHold: filled from the directory when
/// a cache opens and by its stores, keyed by config as well, and emptied
/// of a blob the cache rejects.
TEST(DiskCache, IndexTracksStoresAndRejects) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  qir::Module Absent;
  buildAffine(Absent, 9);
  EXPECT_FALSE(Cache.mayHold(fingerprintModule(Absent), *BE));
  auto [Key, Blob] = storeOne(Cache, *BE);
  EXPECT_TRUE(Cache.mayHold(Key, *BE));
  EXPECT_FALSE(Cache.mayHold(Key, *createBackend("Craneline")))
      << "another config's blob";

  // A cache opened on the directory starts from the blobs in it.
  obs::MetricsRegistry Reg2;
  DiskCodeCache Reopened(Dir.Path, 0, &Reg2);
  EXPECT_TRUE(Reopened.mayHold(Key, *BE));
  EXPECT_FALSE(Reopened.mayHold(fingerprintModule(Absent), *BE));

  // A corrupt blob is rejected, unlinked, and leaves the index.
  int Fd = ::open(Blob.c_str(), O_RDWR);
  ASSERT_GE(Fd, 0);
  uint8_t Byte = 0;
  ASSERT_EQ(::pread(Fd, &Byte, 1, 48), 1);
  Byte ^= 0x40;
  ASSERT_EQ(::pwrite(Fd, &Byte, 1, 48), 1);
  ::close(Fd);
  EXPECT_EQ(Reopened.load(Key, *BE, CompileOptions()), nullptr);
  EXPECT_EQ(Reopened.stats().Rejected, 1u);
  EXPECT_FALSE(Reopened.mayHold(Key, *BE));
}

TEST(DiskCache, StaleFormatVersionRejected) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  auto [Key, Blob] = storeOne(Cache, *BE);

  // The version field lives at envelope offset 8, after the 8-byte magic,
  // and is excluded from the body checksum — so this exercises the
  // version-mismatch path, not the corruption path.
  uint32_t Stale = DiskCodeCache::FormatVersion + 1;
  int Fd = ::open(Blob.c_str(), O_RDWR);
  ASSERT_GE(Fd, 0);
  ASSERT_EQ(::pwrite(Fd, &Stale, sizeof(Stale), 8), ssize_t(sizeof(Stale)));
  ::close(Fd);

  EXPECT_EQ(Cache.load(Key, *BE, CompileOptions()), nullptr);
  EXPECT_EQ(Cache.stats().Rejected, 1u);
  EXPECT_TRUE(listBlobs(Dir.Path).empty())
      << "stale-version blobs are dead weight and must be unlinked";
}

TEST(DiskCache, ConcurrentWritersThreads) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");

  qir::Module M;
  buildAffine(M, 9);
  ModuleFingerprint Key = fingerprintModule(M);
  CompileOptions Opts;
  std::unique_ptr<CompiledModule> C = BE->compile(M, Opts);

  std::atomic<int> Bad{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 8; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != 10; ++I) {
        if (!Cache.store(Key, *BE, *C, Opts))
          ++Bad;
        std::shared_ptr<CompiledModule> W = Cache.load(Key, *BE, Opts);
        if (!W || W->entryAs<int64_t (*)(int64_t)>("f")(I) != I * 9 + 7)
          ++Bad;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Bad.load(), 0);
  EXPECT_EQ(listBlobs(Dir.Path).size(), 1u)
      << "temp files must never leak past rename";
}

TEST(DiskCache, ConcurrentWritersProcesses) {
  TempDir Dir;
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  qir::Module M;
  buildAffine(M, 17);
  ModuleFingerprint Key = fingerprintModule(M);
  CompileOptions Opts;
  // Compile before forking so the children only do store() work.
  std::unique_ptr<CompiledModule> C = BE->compile(M, Opts);

  pid_t Kids[2];
  for (pid_t &Kid : Kids) {
    Kid = ::fork();
    ASSERT_GE(Kid, 0);
    if (Kid == 0) {
      // Child: its own cache object over the shared directory; races the
      // sibling on the same key. _exit to skip gtest/atexit machinery.
      obs::MetricsRegistry Reg;
      DiskCodeCache Mine(Dir.Path, 0, &Reg);
      bool Ok = true;
      for (int I = 0; I != 20 && Ok; ++I)
        Ok = Mine.store(Key, *BE, *C, Opts);
      ::_exit(Ok ? 0 : 1);
    }
  }
  for (pid_t Kid : Kids) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Kid, &Status, 0), Kid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }

  // Whichever rename won last, the surviving blob must be valid.
  EXPECT_EQ(listBlobs(Dir.Path).size(), 1u);
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::shared_ptr<CompiledModule> W = Cache.load(Key, *BE, Opts);
  ASSERT_NE(W, nullptr);
  EXPECT_EQ(W->entryAs<int64_t (*)(int64_t)>("f")(2), 41);
}

TEST(DiskCache, GcEvictsOldestFirst) {
  TempDir Dir;
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  CompileOptions Opts;
  std::vector<std::string> Blobs;
  uint64_t Total = 0;
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Unbounded(Dir.Path, 0, &Reg);
    for (int64_t K : {1, 2, 3}) {
      qir::Module M;
      buildAffine(M, K);
      std::unique_ptr<CompiledModule> C = BE->compile(M, Opts);
      ASSERT_TRUE(Unbounded.store(fingerprintModule(M), *BE, *C, Opts));
    }
    Blobs = listBlobs(Dir.Path);
    ASSERT_EQ(Blobs.size(), 3u);
    // Give the blobs strictly ordered mtimes; Blobs[0] is the oldest.
    for (size_t I = 0; I != Blobs.size(); ++I) {
      struct timespec Times[2] = {{100000 + long(I) * 100, 0},
                                  {100000 + long(I) * 100, 0}};
      ASSERT_EQ(::utimensat(AT_FDCWD, Blobs[I].c_str(), Times, 0), 0);
      struct stat St;
      ASSERT_EQ(::stat(Blobs[I].c_str(), &St), 0);
      Total += uint64_t(St.st_size);
    }
  }

  // Budget one byte below the total: exactly the oldest must go.
  obs::MetricsRegistry Reg;
  DiskCodeCache Bounded(Dir.Path, Total - 1, &Reg);
  EXPECT_EQ(Bounded.gc(), 1u);
  EXPECT_EQ(Bounded.stats().Evictions, 1u);
  std::vector<std::string> Left = listBlobs(Dir.Path);
  EXPECT_EQ(Left.size(), 2u);
  EXPECT_EQ(std::count(Left.begin(), Left.end(), Blobs[0]), 0)
      << "GC must evict oldest-mtime first";
}

/// A blob the size-budget GC evicts leaves the index: afterwards the index
/// holds exactly the blobs a load finds.
TEST(DiskCache, GcEvictionLeavesTheIndex) {
  TempDir Dir;
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  CompileOptions Opts;
  std::vector<ModuleFingerprint> Keys;
  uint64_t Total = 0;
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Unbounded(Dir.Path, 0, &Reg);
    for (int64_t K : {1, 2, 3}) {
      qir::Module M;
      buildAffine(M, K);
      std::unique_ptr<CompiledModule> C = BE->compile(M, Opts);
      Keys.push_back(fingerprintModule(M));
      ASSERT_TRUE(Unbounded.store(Keys.back(), *BE, *C, Opts));
    }
    for (const std::string &Blob : listBlobs(Dir.Path)) {
      struct stat St;
      ASSERT_EQ(::stat(Blob.c_str(), &St), 0);
      Total += uint64_t(St.st_size);
    }
  }

  obs::MetricsRegistry Reg;
  DiskCodeCache Bounded(Dir.Path, Total - 1, &Reg);
  for (const ModuleFingerprint &K : Keys)
    EXPECT_TRUE(Bounded.mayHold(K, *BE));
  EXPECT_EQ(Bounded.gc(), 1u);
  int Held = 0;
  for (const ModuleFingerprint &K : Keys) {
    bool MayHold = Bounded.mayHold(K, *BE);
    Held += MayHold;
    EXPECT_EQ(MayHold, Bounded.load(K, *BE, Opts) != nullptr);
  }
  EXPECT_EQ(Held, 2);
  EXPECT_EQ(Bounded.stats().Misses, 1u);
}

TEST(DiskCache, GcTieBreaksSameMtimeDeterministically) {
  // Regression: on second-granularity filesystems every blob written in
  // the same second ties on (MtimeSec, MtimeNsec), and the GC victim
  // then depended on readdir order + std::sort's unstable permutation.
  // The order must fall back to the path, so the same directory always
  // evicts the same blob.
  TempDir Dir;
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  CompileOptions Opts;
  std::vector<std::string> Blobs;
  uint64_t Total = 0;
  {
    obs::MetricsRegistry Reg;
    DiskCodeCache Unbounded(Dir.Path, 0, &Reg);
    for (int64_t K : {1, 2, 3, 4}) {
      qir::Module M;
      buildAffine(M, K);
      std::unique_ptr<CompiledModule> C = BE->compile(M, Opts);
      ASSERT_TRUE(Unbounded.store(fingerprintModule(M), *BE, *C, Opts));
    }
    Blobs = listBlobs(Dir.Path);
    ASSERT_EQ(Blobs.size(), 4u);
    // Identical mtimes down to the nanosecond: only the path can order.
    for (const std::string &B : Blobs) {
      struct timespec Times[2] = {{100000, 0}, {100000, 0}};
      ASSERT_EQ(::utimensat(AT_FDCWD, B.c_str(), Times, 0), 0);
      struct stat St;
      ASSERT_EQ(::stat(B.c_str(), &St), 0);
      Total += uint64_t(St.st_size);
    }
  }

  obs::MetricsRegistry Reg;
  DiskCodeCache Bounded(Dir.Path, Total - 1, &Reg);
  EXPECT_EQ(Bounded.gc(), 1u);
  std::vector<std::string> Left = listBlobs(Dir.Path);
  ASSERT_EQ(Left.size(), 3u);
  // listBlobs sorts, so Blobs[0] is the lexicographically-smallest path —
  // the deterministic victim under an all-ties mtime.
  EXPECT_EQ(std::count(Left.begin(), Left.end(), Blobs[0]), 0)
      << "same-mtime eviction must tie-break on path";
  for (size_t I = 1; I != Blobs.size(); ++I)
    EXPECT_EQ(std::count(Left.begin(), Left.end(), Blobs[I]), 1) << Blobs[I];
}

TEST(DiskCache, FromEnvParsing) {
  TempDir Dir;
  ::unsetenv("QCF_CODE_CACHE");
  ::unsetenv("QCF_CODE_CACHE_BYTES");
  obs::MetricsRegistry Reg;
  EXPECT_EQ(DiskCodeCache::fromEnv(&Reg), nullptr);

  ::setenv("QCF_CODE_CACHE", Dir.Path.c_str(), 1);
  std::unique_ptr<DiskCodeCache> C = DiskCodeCache::fromEnv(&Reg);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->directory(), Dir.Path);
  EXPECT_EQ(C->budgetBytes(), 0u);

  ::setenv("QCF_CODE_CACHE_BYTES", "12345", 1);
  EXPECT_EQ(DiskCodeCache::fromEnv(&Reg)->budgetBytes(), 12345u);
  ::setenv("QCF_CODE_CACHE_BYTES", "64K", 1);
  EXPECT_EQ(DiskCodeCache::fromEnv(&Reg)->budgetBytes(), 64ull << 10);
  ::setenv("QCF_CODE_CACHE_BYTES", "16M", 1);
  EXPECT_EQ(DiskCodeCache::fromEnv(&Reg)->budgetBytes(), 16ull << 20);
  ::setenv("QCF_CODE_CACHE_BYTES", "2G", 1);
  EXPECT_EQ(DiskCodeCache::fromEnv(&Reg)->budgetBytes(), 2ull << 30);

  ::unsetenv("QCF_CODE_CACHE");
  ::unsetenv("QCF_CODE_CACHE_BYTES");
}

TEST(DiskCache, InterpreterModulesSkipStore) {
  // The interpreter hands out process-local trampolines — nothing to
  // persist. The store must be skipped, counted, and harmless.
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Disk(Dir.Path, 0, &Reg);
  CachingBackend BE(createBackend("Interpreter"), 0, nullptr, &Reg, &Disk);
  qir::Module M;
  buildAffine(M, 5);
  EXPECT_EQ(BE.compile(M)->entryAs<int64_t (*)(int64_t)>("f")(4), 27);
  EXPECT_EQ(Disk.stats().StoreSkips, 1u);
  EXPECT_EQ(Disk.stats().Stores, 0u);
  EXPECT_TRUE(listBlobs(Dir.Path).empty());
}

TEST(DiskCache, ConfigKeysBlobsApart) {
  // Same module, same back-end family, different codegen config: the
  // blob stored under one config must never be served to the other.
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  qir::Module M;
  buildRelocModule(M);
  ModuleFingerprint Key = fingerprintModule(M);
  CompileOptions Opts;

  craneline::CranelineBackend Native;
  craneline::CranelineOptions NoCrcOpts;
  NoCrcOpts.NativeCrc32 = false;
  craneline::CranelineBackend NoCrc(NoCrcOpts);
  ASSERT_NE(Native.cacheConfig(), NoCrc.cacheConfig());

  std::unique_ptr<CompiledModule> C = Native.compile(M, Opts);
  ASSERT_TRUE(Cache.store(Key, Native, *C, Opts));

  EXPECT_EQ(Cache.load(Key, NoCrc, Opts), nullptr)
      << "a blob compiled with native crc32 must miss for the no-crc32 config";
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Cache.stats().Rejected, 0u)
      << "config mismatch is a miss, not corruption";
  EXPECT_EQ(listBlobs(Dir.Path).size(), 1u)
      << "the other config's valid blob must not be unlinked";

  // The native config still hits its own blob.
  std::shared_ptr<CompiledModule> W = Cache.load(Key, Native, Opts);
  ASSERT_NE(W, nullptr);
  checkRelocModule(*W);
}

TEST(DiskCache, ScanReportsBlobs) {
  TempDir Dir;
  obs::MetricsRegistry Reg;
  DiskCodeCache Cache(Dir.Path, 0, &Reg);
  std::unique_ptr<Backend> BE = createBackend("DirectEmit");
  auto [Key, Blob] = storeOne(Cache, *BE);

  std::vector<DiskCodeCache::BlobInfo> Infos = DiskCodeCache::scan(Dir.Path);
  ASSERT_EQ(Infos.size(), 1u);
  EXPECT_TRUE(Infos[0].Valid) << Infos[0].Error;
  EXPECT_EQ(Infos[0].Version, DiskCodeCache::FormatVersion);
  EXPECT_EQ(Infos[0].Key, Key);
  EXPECT_EQ(Infos[0].Config, BE->cacheConfig());
  EXPECT_GT(Infos[0].PayloadBytes, 0u);

  // Corrupt it: scan must report invalid without unlinking (read-only).
  ASSERT_EQ(::truncate(Blob.c_str(), 20), 0);
  Infos = DiskCodeCache::scan(Dir.Path);
  ASSERT_EQ(Infos.size(), 1u);
  EXPECT_FALSE(Infos[0].Valid);
  EXPECT_FALSE(Infos[0].Error.empty());
  EXPECT_EQ(listBlobs(Dir.Path).size(), 1u);
}
