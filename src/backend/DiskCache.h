//===- backend/DiskCache.h - Persistent on-disk code cache ------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second-level, persistent half of the compiled-query cache: a
/// directory of content-addressed blobs, each holding one serialized
/// CompiledModule (code bytes, entry-symbol table, named runtime-call
/// relocation records). The in-memory CachingBackend consults it on every
/// LRU miss (on the miss's own thread when the index below may hold the
/// key, else on its background job) and populates it after every fresh
/// compile, so a restarted
/// process re-installs its hot queries with an mmap + relocation re-patch
/// instead of re-paying the back-end (the paper's point that compilation
/// latency dominates short-query response time, applied across process
/// lifetimes — the restart-scalability half of the ROADMAP north star).
///
/// Blob addressing: the file name encodes the 128-bit structural IR
/// fingerprint plus a hash of the back-end's cacheConfig(); the envelope
/// inside the file repeats the full key, the config string, and the
/// code-format version, and carries an XXH64 checksum over the body.
/// Loads reject (and unlink) anything that fails validation and report
/// "miss" to the caller, which falls back to a clean recompile — a
/// corrupt cache can cost time, never correctness.
///
/// Writes are atomic: serialize to a mkstemp() temp file in the cache
/// directory, then rename() over the final name. Concurrent writers from
/// any number of processes race benignly (last rename wins; both blobs
/// were valid), and readers that already mapped the old inode are
/// unaffected. A size budget (QCF_CODE_CACHE_BYTES) is enforced after
/// each store by evicting blobs LRU-by-mtime; loads touch their blob's
/// mtime to keep hot entries resident.
///
/// The cache also keeps an in-memory index of the blobs it knows are on
/// disk, keyed by (fingerprint, config hash): one readdir fills it when
/// the cache opens, this cache's stores and load hits add to it, and its
/// own unlinks (rejects, GC evictions) and failed opens take entries out.
/// mayHold() answers from it without a path string or a syscall, so a
/// caller can skip a probe that would only miss: opening a name that is
/// not there still waits on the directory's lock while other threads
/// store. It is a hint, never a verdict: a blob another process stored or
/// evicted since makes it stale, which costs one probe in the wrong place
/// and nothing else, and load() still validates every blob it reads.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_DISKCACHE_H
#define QCF_BACKEND_DISKCACHE_H

#include "backend/Backend.h"
#include "backend/Cache.h"
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace qcf::backend {

/// Counter view of a DiskCodeCache's registry-backed metrics; see
/// DiskCodeCache::stats().
struct DiskCacheStats {
  uint64_t Hits = 0;      ///< Loads that installed a module.
  uint64_t Misses = 0;    ///< Loads with no blob on disk.
  uint64_t Rejected = 0;  ///< Blobs failing validation (corrupt/stale/...).
  uint64_t Stores = 0;    ///< Blobs written.
  uint64_t StoreSkips = 0;///< Modules the back-end declined to serialize.
  uint64_t Evictions = 0; ///< Blobs removed by the size-budget GC.
};

/// The persistent code cache. Thread-safe; all mutation of on-disk state
/// goes through atomic renames/unlinks, so multiple processes may share
/// one cache directory.
class DiskCodeCache {
public:
  /// On-disk envelope format version. Bump on any change to the envelope
  /// or to a back-end payload format; stale-version blobs are rejected
  /// and unlinked on load. Version 3: the native back-ends share the
  /// x64::CodeImage section layout. Version 4: DirectEmit's payload
  /// drops its CFI section and is the image section alone.
  static constexpr uint32_t FormatVersion = 4;

  /// \p Dir is created (with parents) if missing. \p BudgetBytes bounds
  /// the directory's total blob size, 0 = unbounded. \p Reg receives the
  /// cache.disk.* counters and the code.arena.bytes gauge, which each
  /// warm install refreshes from x64::ExecArena (null = process-wide
  /// registry).
  explicit DiskCodeCache(std::string Dir, uint64_t BudgetBytes = 0,
                         obs::MetricsRegistry *Reg = nullptr);

  /// Builds a cache from $QCF_CODE_CACHE (the directory) and
  /// $QCF_CODE_CACHE_BYTES (the budget, plain bytes or with a K/M/G
  /// suffix). Returns null when QCF_CODE_CACHE is unset or empty.
  static std::unique_ptr<DiskCodeCache>
  fromEnv(obs::MetricsRegistry *Reg = nullptr);

  /// Whether a blob for (\p Key, \p B.cacheConfig()) may be on disk, by
  /// the index (see the file comment). False means no blob was there when
  /// this cache last looked; a probe may still find one another process
  /// stored since.
  bool mayHold(const ModuleFingerprint &Key, const Backend &B) const;

  /// Probes the cache for (\p Key, \p B.cacheConfig()). On a warm hit the
  /// blob is mmapped, validated (magic, version, key, checksum, config),
  /// and handed to \p B.deserialize(), which re-patches the recorded
  /// runtime-call relocations against the live rt:: symbol table —
  /// the back-end's compile pipeline never runs. Returns null on miss or
  /// on any validation/deserialization failure (invalid blobs are
  /// unlinked); the caller recompiles.
  std::shared_ptr<CompiledModule> load(const ModuleFingerprint &Key,
                                       Backend &B,
                                       const CompileOptions &Opts);

  /// Serializes \p M and writes its blob atomically. Returns false when
  /// the module is not serializable (no store happens) or the write
  /// failed. Runs the size-budget GC after a successful store.
  bool store(const ModuleFingerprint &Key, Backend &B,
             const CompiledModule &M, const CompileOptions &Opts);

  /// Enforces the byte budget now: evicts blobs oldest-mtime-first until
  /// the directory's blob total fits. Returns the number of evicted
  /// files. No-op with an unbounded budget.
  uint64_t gc();

  DiskCacheStats stats() const {
    DiskCacheStats S;
    S.Hits = Hits.value();
    S.Misses = Misses.value();
    S.Rejected = Rejected.value();
    S.Stores = Stores.value();
    S.StoreSkips = StoreSkips.value();
    S.Evictions = Evictions.value();
    return S;
  }

  const std::string &directory() const { return Dir; }
  uint64_t budgetBytes() const { return BudgetBytes; }

  /// One blob as seen by the inspection scan (qcf_stats --code-cache).
  struct BlobInfo {
    std::string File;       ///< File name within the directory.
    uint64_t SizeBytes = 0;
    int64_t MtimeSec = 0;   ///< Seconds since the epoch.
    bool Valid = false;     ///< Envelope validation (not deserialization).
    std::string Error;      ///< Why invalid ("" when valid).
    uint32_t Version = 0;
    ModuleFingerprint Key;  ///< From the envelope (valid blobs only).
    std::string Config;     ///< Back-end config string (valid blobs only).
    uint64_t PayloadBytes = 0;
  };

  /// Scans \p Dir without constructing a cache (read-only; never
  /// unlinks). Sorted oldest-mtime first, matching eviction order.
  static std::vector<BlobInfo> scan(const std::string &Dir);

private:
  /// A blob's identity, as its file name spells it.
  struct BlobId {
    ModuleFingerprint Key;
    uint64_t ConfigHash = 0;
    bool operator==(const BlobId &O) const {
      return Key == O.Key && ConfigHash == O.ConfigHash;
    }
  };
  struct BlobIdHash {
    size_t operator()(const BlobId &B) const {
      return FingerprintHash()(B.Key) ^ static_cast<size_t>(B.ConfigHash);
    }
  };

  std::string blobPath(const BlobId &Id) const;
  void indexAdd(const BlobId &Id);
  void indexRemove(const BlobId &Id);

  std::string Dir;
  uint64_t BudgetBytes;

  mutable std::mutex IndexMutex;
  std::unordered_set<BlobId, BlobIdHash> Index; ///< Guarded by IndexMutex.

  obs::Counter &Hits;
  obs::Counter &Misses;
  obs::Counter &Rejected;
  obs::Counter &Stores;
  obs::Counter &StoreSkips;
  obs::Counter &Evictions;
  obs::Counter &EvictedBytes;
  obs::Histogram &LoadNs;
  obs::Gauge &ArenaBytes;

  /// Serializes this process's GC scans (cross-process safety comes from
  /// atomic unlink/rename, not this lock).
  std::mutex GcMutex;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_DISKCACHE_H
