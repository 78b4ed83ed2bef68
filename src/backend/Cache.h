//===- backend/Cache.h - Compiled-query cache -------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed cache of compiled modules, wrapping any back-end.
/// The paper's conclusion is that compile time is a first-order cost for
/// query processing; the classic systems answer — beyond cheaper
/// compilers — is to not compile at all when an identical module was
/// compiled before (prepared statements, plan caches). `CachingBackend`
/// implements that: modules are keyed by a structural hash of their IR,
/// and hits return a shared handle to the previously compiled code.
///
/// Note that the query code generator hard-wires column base addresses
/// and runtime-object context slots as pointer constants, so two plans
/// hash equal exactly when they would execute identically — re-generated
/// plans for the same query text over the same catalog hit; plans over
/// different data (or after a table grew a new column vector) miss. This
/// is the correct key for safety: no invalidation protocol is needed.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_CACHE_H
#define QCF_BACKEND_CACHE_H

#include "backend/Backend.h"
#include "backend/CompileService.h"
#include <list>
#include <mutex>
#include <unordered_map>

namespace qcf::backend {

class DiskCodeCache;

struct FingerprintHash {
  size_t operator()(const ModuleFingerprint &F) const {
    // The lanes are already well-mixed; fold them for the bucket index.
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Structural fingerprint of a module: function names and signatures,
/// every instruction's semantic fields (the per-instruction `Scratch`
/// slot is excluded — back-ends mutate it), side pools, block layout,
/// and the runtime-symbol table.
ModuleFingerprint fingerprintModule(const qir::Module &M);

/// The legacy 64-bit structural hash; identical to
/// fingerprintModule().Lo. Kept for diagnostics and the collision
/// regression test — do not key caches by this alone.
uint64_t hashModule(const qir::Module &M);

/// Snapshot view of a cache's registry-backed counters; see
/// CachingBackend::stats().
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// Lookups that found the key being compiled by another thread and
  /// waited on its handle instead of starting their own compile (caches
  /// without a fast tier). Counted inside Hits, so Hits + Misses ==
  /// lookups always holds.
  uint64_t InFlightWaits = 0;
  /// Lookups answered with fast-tier code (see CachingBackend's fast
  /// back-end): a miss whose compile went to the background, or a lookup
  /// of a key whose background compile had not landed yet. Such a lookup
  /// shares the miss's fast code once it exists, so this counts answers,
  /// not compiles; "fast_tier_compile_ns" times only the compiles.
  uint64_t FastTier = 0;

  /// The one place the hit/miss partition is defined: every lookup is
  /// exactly one of the two.
  uint64_t lookups() const { return Hits + Misses; }
};

/// Wraps \p Inner with an LRU cache of compiled modules.
///
/// Modules are keyed by CompileOptions::Fingerprint when the caller
/// supplies it (db::executeQuery passes the plan's), else by
/// fingerprintModule(), so a warm lookup of a lowered plan hashes nothing.
///
/// Thread-safe, including in-flight deduplication: concurrent compiles of
/// the same key are collapsed to one, so each unique key reaches the inner
/// back-end exactly once. Every miss makes the key's in-flight entry and
/// its TierUp handle before anything else, and lookups of the key in
/// flight share that handle. On a miss in memory the disk tier is probed
/// on the calling thread when its index may hold the key
/// (DiskCodeCache::mayHold) or when the miss compiles there anyway;
/// otherwise the background job probes it before compiling. A fresh
/// compile is published to memory, and the handle settled with it, before
/// its blob is written to disk.
///
/// Without a fast back-end, the caller blocks until the module is ready:
/// the first miss compiles on the calling thread and every other thread
/// waits on the handle (TierUp::wait) and shares its module.
///
/// With a fast back-end, no caller waits for the inner compile of another
/// thread. With a service as well, a miss in memory that is no disk hit
/// answers with fast-tier code through backend::compileTiered, whose
/// background job loads the key's blob or compiles, publishes to memory
/// and then stores a compiled module's blob, so the next lookup is a hit
/// on inner-back-end code. The job compiles the caller's module when
/// CompileOptions::ModuleOwner shares it, else a copy. The miss keeps its
/// fast code in the key's in-flight entry, and a lookup of the key in
/// flight shares it without compiling; the code is freed once the entry
/// has retired and the last query using it has finished. A lookup that
/// arrives before the miss's fast code exists compiles its own on the
/// calling thread rather than wait. Every fast-tier answer carries the
/// shared handle (CompiledModule::Optimized), so the executor swaps the
/// query to the inner back-end's code once it lands. A miss that does
/// not hand the handle to a job settles it with the module it publishes:
/// a disk hit, or an inline load or compile after a refused submit (queue
/// full, fairness share used up, service shut down); lookups that shared
/// it swap to that module. Dropping a handle never cancels the job: the
/// cache holds one until the job ends. A job that ends without running
/// (the service shut down) leaves its entry behind; the next lookup of the
/// key drops it with its fast code and is a miss.
///
/// Cancellation: when CompileOptions::Cancel is set and fires while this
/// call waits on another thread's compile of the key, compile() returns
/// null — the only case in which it does; that compile runs on for the
/// others. Callers that pass a token must handle the null; callers that
/// don't keep the never-null contract. A compile this call runs itself is
/// never abandoned, and a background compile never carries the token:
/// other sessions rely on its result.
class CachingBackend : public Backend {
public:
  /// \p Capacity bounds the number of retained compiled modules
  /// (0 = unbounded). \p Service, when non-null, must outlive this
  /// back-end; only a cache with \p Fast submits to it. \p Reg receives
  /// the cache's hit/miss/eviction counters under metricsPrefix() (null =
  /// process-wide registry). \p Disk, when
  /// non-null, is consulted on every in-memory miss before the inner
  /// back-end and populated after every fresh compile; it must outlive
  /// this back-end. When null, $QCF_CODE_CACHE (if set) supplies an
  /// owned disk cache instead. \p Fast, when non-null, answers lookups
  /// that would wait for an inner compile (see class comment).
  explicit CachingBackend(std::unique_ptr<Backend> Inner, size_t Capacity = 0,
                          CompileService *Service = nullptr,
                          obs::MetricsRegistry *Reg = nullptr,
                          DiskCodeCache *Disk = nullptr,
                          std::unique_ptr<Backend> Fast = nullptr);
  /// Cancels background compiles still queued and waits out running ones.
  ~CachingBackend();

  using Backend::compile;

  std::string name() const override { return Inner->name() + "+cache"; }

  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &Opts) override;

  /// Registry prefix of this instance's counters, e.g. "cache.1.".
  const std::string &metricsPrefix() const { return Prefix; }

  /// Assembles a CacheStats view from the registry-backed counters.
  CacheStats stats() const {
    CacheStats S;
    S.Hits = Hits.value();
    S.Misses = Misses.value();
    S.Evictions = Evictions.value();
    S.InFlightWaits = InFlightWaits.value();
    S.FastTier = FastTier.value();
    return S;
  }
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Map.size();
  }
  /// Keys with a compile in flight.
  size_t inFlight() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Pending.size();
  }
  Backend &inner() { return *Inner; }

private:
  /// One key currently being compiled.
  struct InFlight {
    /// The handle every lookup of the key shares, made with the entry and
    /// never replaced. The background compile reports to it; a miss that
    /// compiles itself (or hits disk) settles it with its module after
    /// retiring the entry. A job that runs retires the entry itself, so
    /// a handle found ended here was cancelled before its job started.
    std::shared_ptr<TierUp> Up;
    /// The fast-tier code the miss compiled, once it has (guarded by the
    /// cache's Mutex). Lookups of the key share it instead of compiling
    /// their own; the queries holding it keep it alive after the entry
    /// retires.
    std::shared_ptr<CompiledModule> FastCode;
  };

  class BackgroundCompile;

  /// Inserts \p Compiled into the LRU.
  void publish(const ModuleFingerprint &Key,
               const std::shared_ptr<CompiledModule> &Compiled);
  /// Erases \p Key's in-flight entry.
  void retire(const ModuleFingerprint &Key);
  /// Probes the disk tier (which must exist) for \p Key, and validates a
  /// warm load against \p M under Opts.Verify.Tv.
  std::shared_ptr<CompiledModule> load(const ModuleFingerprint &Key,
                                       const qir::Module &M,
                                       const CompileOptions &Opts);
  /// Counts and times a fast-tier answer compiled from \p StartNs to
  /// \p EndNs.
  void noteFast(const CompileOptions &Opts, uint64_t StartNs, uint64_t EndNs);

  std::unique_ptr<Backend> Inner;
  std::unique_ptr<Backend> Fast;
  size_t Capacity;
  CompileService *const Service;
  DiskCodeCache *Disk; ///< Fixed once the constructor returns.
  /// Backing storage for the $QCF_CODE_CACHE default (see constructor);
  /// Disk aliases it unless the caller injected its own cache.
  std::unique_ptr<DiskCodeCache> OwnedDisk;

  std::string Prefix;
  obs::Counter &Hits;
  obs::Counter &Misses;
  obs::Counter &Evictions;
  obs::Counter &InFlightWaits;
  obs::Counter &FastTier;
  obs::Histogram &FastTierCompileNs;

  mutable std::mutex Mutex;
  // LRU list, most-recent first; the map points into it.
  using LruEntry = std::pair<ModuleFingerprint, std::shared_ptr<CompiledModule>>;
  std::list<LruEntry> Lru;
  std::unordered_map<ModuleFingerprint, std::list<LruEntry>::iterator,
                     FingerprintHash>
      Map;
  std::unordered_map<ModuleFingerprint, std::shared_ptr<InFlight>,
                     FingerprintHash>
      Pending;
};

} // namespace qcf::backend

#endif // QCF_BACKEND_CACHE_H
