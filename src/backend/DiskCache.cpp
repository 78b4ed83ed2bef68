//===- backend/DiskCache.cpp - Persistent on-disk code cache --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/DiskCache.h"
#include "support/ByteIo.h"
#include "support/TimeTrace.h"
#include "support/XxHash.h"
#include "x64/ExecArena.h"
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <fcntl.h>
#include <memory>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

namespace qcf::backend {

namespace {

/// Envelope header, 40 bytes:
///   [0..8)   magic "QCFCODE\0"
///   [8..12)  format version (u32)
///   [12..16) reserved, zero
///   [16..32) module fingerprint (Lo, Hi)
///   [32..40) XXH64 checksum of the body
/// Body: length-prefixed back-end config string, then the length-prefixed
/// back-end payload. The checksum deliberately covers the body only, so a
/// corrupted version field is reported as a version mismatch rather than
/// as checksum failure.
constexpr char Magic[8] = {'Q', 'C', 'F', 'C', 'O', 'D', 'E', '\0'};
constexpr size_t HeaderSize = 40;
constexpr const char *BlobSuffix = ".qcc";
/// Compiled-query blobs are KBs; anything bigger is not ours.
constexpr off_t MaxBlobBytes = 256ll << 20;

obs::MetricsRegistry &resolveRegistry(obs::MetricsRegistry *Reg) {
  return Reg ? *Reg : obs::MetricsRegistry::global();
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

uint64_t configHash(const std::string &Config) {
  return xxHash64(Config.data(), Config.size());
}

bool parseHex16(const char *P, uint64_t &V) {
  V = 0;
  for (int I = 0; I != 16; ++I) {
    char C = P[I];
    unsigned D;
    if (C >= '0' && C <= '9')
      D = static_cast<unsigned>(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = static_cast<unsigned>(C - 'a' + 10);
    else
      return false;
    V = V << 4 | D;
  }
  return true;
}

/// Parses a blob file name, "qcf-<Lo><Hi>-<config hash>.qcc" with 16
/// lowercase hex digits per field (see DiskCodeCache::blobPath).
/// \returns false for any other name.
bool parseBlobName(const char *Name, ModuleFingerprint &Key,
                   uint64_t &ConfigHash) {
  constexpr size_t Len = 4 + 32 + 1 + 16 + 4;
  return std::strlen(Name) == Len && std::memcmp(Name, "qcf-", 4) == 0 &&
         Name[36] == '-' && std::strcmp(Name + 53, BlobSuffix) == 0 &&
         parseHex16(Name + 4, Key.Lo) && parseHex16(Name + 20, Key.Hi) &&
         parseHex16(Name + 37, ConfigHash);
}

bool hasSuffix(const std::string &S, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
}

/// mkdir -p: creates every missing component of \p Path.
bool createDirectories(const std::string &Path) {
  std::string Cur;
  size_t I = 0;
  while (I < Path.size()) {
    size_t Next = Path.find('/', I + 1);
    Cur = Path.substr(0, Next == std::string::npos ? Path.size() : Next);
    if (!Cur.empty() && Cur != "/" &&
        ::mkdir(Cur.c_str(), 0755) != 0 && errno != EEXIST)
      return false;
    if (Next == std::string::npos)
      break;
    I = Next;
  }
  return true;
}

/// Validates the fixed envelope of a mapped blob. On success fills
/// \p OutKey / \p OutConfig / \p OutPayload (the payload view aliases
/// \p Data). On failure returns a short reason.
std::string validateEnvelope(const uint8_t *Data, size_t Size,
                             ModuleFingerprint *OutKey, uint32_t *OutVersion,
                             std::string *OutConfig,
                             std::pair<const uint8_t *, size_t> *OutPayload) {
  if (Size < HeaderSize)
    return "truncated header";
  if (std::memcmp(Data, Magic, 8) != 0)
    return "bad magic";
  uint32_t Version;
  std::memcpy(&Version, Data + 8, 4);
  if (OutVersion)
    *OutVersion = Version;
  if (Version != DiskCodeCache::FormatVersion)
    return "format version mismatch";
  ModuleFingerprint Key;
  std::memcpy(&Key.Lo, Data + 16, 8);
  std::memcpy(&Key.Hi, Data + 24, 8);
  if (OutKey)
    *OutKey = Key;
  uint64_t Checksum;
  std::memcpy(&Checksum, Data + 32, 8);
  if (xxHash64(Data + HeaderSize, Size - HeaderSize) != Checksum)
    return "checksum mismatch";
  ByteReader R(Data + HeaderSize, Size - HeaderSize);
  std::string Config = R.str();
  auto Payload = R.bytes();
  if (!R.ok())
    return "malformed body";
  if (OutConfig)
    *OutConfig = std::move(Config);
  if (OutPayload)
    *OutPayload = Payload;
  return "";
}

struct DirBlob {
  std::string Path;
  uint64_t Size;
  int64_t MtimeSec;
  int64_t MtimeNsec;
};

/// LRU eviction order: oldest mtime first. Many filesystems (and most
/// CI tmpfs mounts) report second-granularity mtimes, so blobs written
/// within the same second tie on both fields; without a total order the
/// victim then depends on readdir order and std::sort's unstable
/// permutation, making eviction (and `qcf_stats --cache` listings)
/// nondeterministic across runs. The path breaks ties determinately.
bool blobLruOrder(const DirBlob &A, const DirBlob &B) {
  if (A.MtimeSec != B.MtimeSec)
    return A.MtimeSec < B.MtimeSec;
  if (A.MtimeNsec != B.MtimeNsec)
    return A.MtimeNsec < B.MtimeNsec;
  return A.Path < B.Path;
}

/// Stats every *.qcc file under \p Dir.
std::vector<DirBlob> listDir(const std::string &Dir) {
  std::vector<DirBlob> Blobs;
  DIR *D = ::opendir(Dir.c_str());
  if (!D)
    return Blobs;
  while (struct dirent *E = ::readdir(D)) {
    std::string Name = E->d_name;
    if (!hasSuffix(Name, BlobSuffix))
      continue;
    std::string Path = Dir + "/" + Name;
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
      continue;
    Blobs.push_back({std::move(Path), static_cast<uint64_t>(St.st_size),
                     static_cast<int64_t>(St.st_mtim.tv_sec),
                     static_cast<int64_t>(St.st_mtim.tv_nsec)});
  }
  ::closedir(D);
  return Blobs;
}

} // namespace

DiskCodeCache::DiskCodeCache(std::string Dir, uint64_t BudgetBytes,
                             obs::MetricsRegistry *Reg)
    : Dir(std::move(Dir)), BudgetBytes(BudgetBytes),
      Hits(resolveRegistry(Reg).counter("cache.disk.hits")),
      Misses(resolveRegistry(Reg).counter("cache.disk.misses")),
      Rejected(resolveRegistry(Reg).counter("cache.disk.rejected")),
      Stores(resolveRegistry(Reg).counter("cache.disk.stores")),
      StoreSkips(resolveRegistry(Reg).counter("cache.disk.store_skips")),
      Evictions(resolveRegistry(Reg).counter("cache.disk.evictions")),
      EvictedBytes(resolveRegistry(Reg).counter("cache.disk.evicted_bytes")),
      LoadNs(resolveRegistry(Reg).histogram("cache.disk.load_ns")),
      ArenaBytes(resolveRegistry(Reg).gauge("code.arena.bytes")) {
  createDirectories(this->Dir);
  // The index starts as the directory's blob names; nothing is opened.
  if (DIR *D = ::opendir(this->Dir.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      BlobId Id;
      if (parseBlobName(E->d_name, Id.Key, Id.ConfigHash))
        Index.insert(Id);
    }
    ::closedir(D);
  }
}

std::unique_ptr<DiskCodeCache> DiskCodeCache::fromEnv(
    obs::MetricsRegistry *Reg) {
  const char *Dir = std::getenv("QCF_CODE_CACHE");
  if (!Dir || !*Dir)
    return nullptr;
  uint64_t Budget = 0;
  if (const char *B = std::getenv("QCF_CODE_CACHE_BYTES")) {
    char *End = nullptr;
    Budget = std::strtoull(B, &End, 10);
    if (End && *End) {
      switch (*End) {
      case 'k': case 'K': Budget *= 1024ull; break;
      case 'm': case 'M': Budget *= 1024ull * 1024; break;
      case 'g': case 'G': Budget *= 1024ull * 1024 * 1024; break;
      default: break;
      }
    }
  }
  return std::make_unique<DiskCodeCache>(Dir, Budget, Reg);
}

std::string DiskCodeCache::blobPath(const BlobId &Id) const {
  // Version lives only inside the envelope (not in the name), so a blob
  // written by an older format lands on the same path, gets opened, and
  // is rejected + replaced — instead of leaking forever as dead files.
  return Dir + "/qcf-" + hex16(Id.Key.Lo) + hex16(Id.Key.Hi) + "-" +
         hex16(Id.ConfigHash) + BlobSuffix;
}

void DiskCodeCache::indexAdd(const BlobId &Id) {
  std::lock_guard<std::mutex> Lock(IndexMutex);
  Index.insert(Id);
}

void DiskCodeCache::indexRemove(const BlobId &Id) {
  std::lock_guard<std::mutex> Lock(IndexMutex);
  Index.erase(Id);
}

bool DiskCodeCache::mayHold(const ModuleFingerprint &Key,
                            const Backend &B) const {
  BlobId Id{Key, configHash(B.cacheConfig())};
  std::lock_guard<std::mutex> Lock(IndexMutex);
  return Index.count(Id) != 0;
}

std::shared_ptr<CompiledModule>
DiskCodeCache::load(const ModuleFingerprint &Key, Backend &B,
                    const CompileOptions &Opts) {
  uint64_t Start = nowNs();
  std::string Config = B.cacheConfig();
  BlobId Id{Key, configHash(Config)};
  std::string Path = blobPath(Id);

  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    indexRemove(Id);
    Misses.inc();
    if (obs::TraceSink *Sink = Opts.Obs.Sink)
      Sink->instantEvent("cache.disk.miss", "cache");
    return nullptr;
  }
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size == 0 ||
      St.st_size > MaxBlobBytes) {
    ::close(Fd);
    ::unlink(Path.c_str());
    indexRemove(Id);
    Rejected.inc();
    return nullptr;
  }
  // pread over mmap, deliberately: blobs are a few pages, and reading
  // them into a short-lived buffer costs one syscall — an mmap of the
  // same bytes costs the map, a page fault per page touched by the
  // checksum, and the unmap, each of which is TLB-shootdown priced on
  // virtualized hosts. The warm path must stay an order of magnitude
  // under the cheapest compile, so syscall count dominates the design.
  // The buffer is not zero-filled first: pread overwrites all of it, and
  // a short read is refused.
  size_t Size = static_cast<size_t>(St.st_size);
  auto Buf = std::make_unique_for_overwrite<uint8_t[]>(Size);
  ssize_t N = ::pread(Fd, Buf.get(), Size, 0);
  ::close(Fd);
  if (N != static_cast<ssize_t>(Size)) {
    Misses.inc();
    return nullptr;
  }
  const uint8_t *Data = Buf.get();

  ModuleFingerprint BlobKey;
  std::string BlobConfig;
  std::pair<const uint8_t *, size_t> Payload;
  std::string Err =
      validateEnvelope(Data, Size, &BlobKey, nullptr, &BlobConfig, &Payload);
  if (Err.empty() && BlobKey != Key)
    Err = "key mismatch";
  bool ConfigCollision = Err.empty() && BlobConfig != Config;

  std::unique_ptr<CompiledModule> Mod;
  if (Err.empty() && !ConfigCollision) {
    Mod = B.deserialize(Payload.first, Payload.second);
    if (!Mod)
      Err = "payload rejected by back-end";
  }

  if (ConfigCollision) {
    // The config-hash half of the file name collided across two distinct
    // config strings: the blob is some other configuration's valid data,
    // so leave it alone and just miss.
    Misses.inc();
    return nullptr;
  }
  if (!Err.empty()) {
    // Invalid blob (corruption, stale format, undecodable payload):
    // unlink it so the slot gets rewritten by the recompile's store.
    ::unlink(Path.c_str());
    indexRemove(Id);
    Rejected.inc();
    if (obs::TraceSink *Sink = Opts.Obs.Sink)
      Sink->instantEvent("cache.disk.reject", "cache");
    return nullptr;
  }

  // Touch the blob so LRU-by-mtime GC sees it as recently used — but only
  // when its mtime is actually stale: eviction order is hour-granular at
  // worst, and an inode write per hit would otherwise be the single
  // largest cost of the warm path.
  if (::time(nullptr) - St.st_mtime > 3600)
    ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);

  indexAdd(Id);
  Hits.inc();
  ArenaBytes.set(
      static_cast<int64_t>(x64::ExecArena::global().bytesAllocated()));
  uint64_t Dur = nowNs() - Start;
  LoadNs.observe(Dur);
  if (obs::TraceSink *Sink = Opts.Obs.Sink)
    Sink->completeEvent("cache.disk.load", "cache", Start, Dur);
  return std::shared_ptr<CompiledModule>(std::move(Mod));
}

bool DiskCodeCache::store(const ModuleFingerprint &Key, Backend &B,
                          const CompiledModule &M,
                          const CompileOptions &Opts) {
  uint64_t Start = nowNs();
  std::vector<uint8_t> Payload;
  if (!M.serialize(Payload)) {
    StoreSkips.inc();
    return false;
  }
  std::string Config = B.cacheConfig();
  BlobId Id{Key, configHash(Config)};

  ByteWriter Body;
  Body.str(Config);
  Body.bytes(Payload.data(), Payload.size());
  const std::vector<uint8_t> &BodyBytes = Body.buffer();

  uint8_t Header[HeaderSize];
  std::memcpy(Header, Magic, 8);
  uint32_t Version = FormatVersion;
  std::memcpy(Header + 8, &Version, 4);
  std::memset(Header + 12, 0, 4);
  std::memcpy(Header + 16, &Key.Lo, 8);
  std::memcpy(Header + 24, &Key.Hi, 8);
  uint64_t Checksum = xxHash64(BodyBytes.data(), BodyBytes.size());
  std::memcpy(Header + 32, &Checksum, 8);

  // Atomic publish: write a process-unique temp file in the same
  // directory, then rename() over the final name. A concurrent writer of
  // the same key races benignly — both temp files hold valid envelopes,
  // the last rename wins, and no reader ever observes a partial file.
  std::string Tmp = Dir + "/store-XXXXXX";
  int Fd = ::mkstemp(Tmp.data());
  if (Fd < 0)
    return false;
  auto WriteAll = [Fd](const uint8_t *P, size_t N) {
    while (N) {
      ssize_t W = ::write(Fd, P, N);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
    return true;
  };
  bool Ok = WriteAll(Header, HeaderSize) &&
            WriteAll(BodyBytes.data(), BodyBytes.size());
  // Through the fd: no path walk, and no swapped path can redirect it.
  ::fchmod(Fd, 0644);
  Ok = (::close(Fd) == 0) && Ok;
  if (!Ok || ::rename(Tmp.c_str(), blobPath(Id).c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  indexAdd(Id);
  Stores.inc();
  if (obs::TraceSink *Sink = Opts.Obs.Sink)
    Sink->completeEvent("cache.disk.store", "cache", Start, nowNs() - Start);
  if (BudgetBytes)
    gc();
  return true;
}

uint64_t DiskCodeCache::gc() {
  if (!BudgetBytes)
    return 0;
  std::lock_guard<std::mutex> Lock(GcMutex);
  std::vector<DirBlob> Blobs = listDir(Dir);
  uint64_t Total = 0;
  for (const DirBlob &Blob : Blobs)
    Total += Blob.Size;
  if (Total <= BudgetBytes)
    return 0;
  std::sort(Blobs.begin(), Blobs.end(), blobLruOrder);
  uint64_t Removed = 0;
  for (const DirBlob &Blob : Blobs) {
    if (Total <= BudgetBytes)
      break;
    // ENOENT just means another process evicted it first; either way the
    // bytes are gone from the directory.
    ::unlink(Blob.Path.c_str());
    BlobId Id;
    if (parseBlobName(Blob.Path.c_str() + Dir.size() + 1, Id.Key,
                      Id.ConfigHash))
      indexRemove(Id);
    Total -= Blob.Size;
    ++Removed;
    Evictions.inc();
    EvictedBytes.add(Blob.Size);
  }
  return Removed;
}

std::vector<DiskCodeCache::BlobInfo>
DiskCodeCache::scan(const std::string &Dir) {
  std::vector<BlobInfo> Out;
  std::vector<DirBlob> Blobs = listDir(Dir);
  std::sort(Blobs.begin(), Blobs.end(), blobLruOrder);
  for (const DirBlob &Blob : Blobs) {
    BlobInfo Info;
    size_t Slash = Blob.Path.rfind('/');
    Info.File = Slash == std::string::npos ? Blob.Path
                                           : Blob.Path.substr(Slash + 1);
    Info.SizeBytes = Blob.Size;
    Info.MtimeSec = Blob.MtimeSec;

    int Fd = ::open(Blob.Path.c_str(), O_RDONLY | O_CLOEXEC);
    if (Fd < 0) {
      Info.Error = "unreadable";
      Out.push_back(std::move(Info));
      continue;
    }
    struct stat St;
    size_t Size =
        ::fstat(Fd, &St) == 0 ? static_cast<size_t>(St.st_size) : 0;
    void *Map = Size
                    ? ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0)
                    : MAP_FAILED;
    ::close(Fd);
    if (Map == MAP_FAILED) {
      Info.Error = Size ? "mmap failed" : "empty file";
      Out.push_back(std::move(Info));
      continue;
    }
    std::pair<const uint8_t *, size_t> Payload;
    Info.Error = validateEnvelope(static_cast<const uint8_t *>(Map), Size,
                                  &Info.Key, &Info.Version, &Info.Config,
                                  &Payload);
    Info.Valid = Info.Error.empty();
    Info.PayloadBytes = Payload.second;
    ::munmap(Map, Size);
    Out.push_back(std::move(Info));
  }
  return Out;
}

} // namespace qcf::backend
