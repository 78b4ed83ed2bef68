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
#include <condition_variable>
#include <list>
#include <mutex>
#include <unordered_map>

namespace qcf::backend {

class CompileService;
class DiskCodeCache;

/// 128-bit structural fingerprint of a module, used as the cache key.
///
/// Two independent lanes over one walk of the module. A single 64-bit
/// lane is not collision-safe to key executable code by: the original
/// hash folds words with CRC32C, which is GF(2)-linear with a
/// seed-independent kernel, so inputs differing by a kernel element
/// collide for *every* seed (CacheTest has two such modules). The second
/// lane therefore uses a multiplicative (murmur-style) mix — not CRC
/// under another seed — making the lanes genuinely independent.
struct ModuleFingerprint {
  uint64_t Lo = 0; ///< Legacy lane; equals hashModule().
  uint64_t Hi = 0; ///< Independent non-CRC lane.

  bool operator==(const ModuleFingerprint &O) const {
    return Lo == O.Lo && Hi == O.Hi;
  }
  bool operator!=(const ModuleFingerprint &O) const { return !(*this == O); }
};

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
  /// waited for that compilation instead of starting their own. Counted
  /// inside Hits, so Hits + Misses == lookups always holds.
  uint64_t InFlightWaits = 0;

  /// The one place the hit/miss partition is defined: every lookup is
  /// exactly one of the two.
  uint64_t lookups() const { return Hits + Misses; }
};

/// Wraps \p Inner with an LRU cache of compiled modules.
///
/// Thread-safe, including in-flight deduplication: concurrent compiles of
/// the same key are collapsed to one — the first miss compiles (outside
/// the lock), every other thread waits on that compilation and shares its
/// result, so each unique key reaches the inner back-end exactly once.
/// With a CompileService attached, misses are routed through the service
/// (centralized workers, per-backend latency stats); without one, and
/// whenever the service refuses the job, they compile on the calling
/// thread. Either way the caller blocks until the module is ready — the
/// dedup, not the asynchrony, is the point here.
///
/// Cancellation: when CompileOptions::Cancel is set and fires while this
/// call is waiting (on a service ticket or a deduped in-flight compile),
/// compile() returns null — the only case in which it does. Callers that
/// pass a token must handle the null; callers that don't keep the
/// never-null contract.
class CachingBackend : public Backend {
public:
  /// \p Capacity bounds the number of retained compiled modules
  /// (0 = unbounded). \p Service, when non-null, must outlive this
  /// back-end. \p Reg receives the cache's hit/miss/eviction counters
  /// under metricsPrefix() (null = process-wide registry). \p Disk, when
  /// non-null, is consulted on every in-memory miss before the inner
  /// back-end and populated after every fresh compile; it must outlive
  /// this back-end. When null, $QCF_CODE_CACHE (if set) supplies an
  /// owned disk cache instead.
  explicit CachingBackend(std::unique_ptr<Backend> Inner, size_t Capacity = 0,
                          CompileService *Service = nullptr,
                          obs::MetricsRegistry *Reg = nullptr,
                          DiskCodeCache *Disk = nullptr);
  ~CachingBackend(); // Out of line: OwnedDisk's type is incomplete here.

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
    return S;
  }
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Map.size();
  }
  Backend &inner() { return *Inner; }

private:
  /// One key currently being compiled; waiters block on Cv until the
  /// owning thread publishes Result (or fails and leaves it null).
  struct InFlight {
    std::mutex Mutex;
    std::condition_variable Cv;
    bool Done = false;
    std::shared_ptr<CompiledModule> Result;
  };

  std::unique_ptr<Backend> Inner;
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
