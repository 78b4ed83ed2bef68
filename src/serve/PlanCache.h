//===- serve/PlanCache.h - Lowered-plan cache for the server ----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers each served query once (DESIGN.md "Serving layer", "Plan
/// cache"). The key is the query's canonical encoding and its hash,
/// memoized on the query object (db::queryKey). A hit also compares the
/// bytes, so a hash collision can never hand out another query's plan.
/// Entries are shared, immutable plans: concurrent sessions execute one
/// plan at once.
///
/// Codegen bakes column base addresses into the plan and derives scan
/// schemas from the catalog, so a hit compares the catalog's epoch with
/// the one its entry last matched; only when it moved (or under
/// QCF_VERIFY) does it re-check the plan's reads in full
/// (CompiledPlan::matchesCatalog). A plan whose data moved is a miss and is
/// replaced. Compiled code is not held here: the plan's module still goes
/// through CachingBackend on every execution, so the L1 code cache keeps
/// its own capacity, eviction and disk tier. What the plan does carry is
/// its module's fingerprint, computed once when it is lowered
/// (CompiledPlan::Fingerprint), so that lookup hashes nothing.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_SERVE_PLANCACHE_H
#define QCF_SERVE_PLANCACHE_H

#include "db/Codegen.h"
#include "obs/Metrics.h"
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace qcf::serve {

/// A bounded LRU of lowered plans keyed by query bytes. Thread-safe.
/// Publishes serve.plan_cache.{hits,misses,evictions,catalog_checks}
/// counters and the serve.plan_cache.bytes gauge.
class PlanCache {
public:
  /// The ceiling a Server's cache uses: about two hundred plans of the
  /// TPC-H/TPC-DS-like suites' size.
  static constexpr uint64_t ServerMaxBytes = 4ull << 20;

  /// \p MaxBytes bounds the summed footprint of cached plans and keys.
  PlanCache(uint64_t MaxBytes, obs::MetricsRegistry &Reg);
  ~PlanCache();

  PlanCache(const PlanCache &) = delete;
  PlanCache &operator=(const PlanCache &) = delete;

  /// The plan for \p Q over \p Cat: the cached one while it still matches
  /// the catalog, else a fresh db::compileQuery result, cached when it
  /// fits the ceiling. Lowering runs outside the lock.
  std::shared_ptr<const db::CompiledPlan> get(const db::Query &Q,
                                              const db::Catalog &Cat);

  uint64_t bytes() const;
  size_t size() const;

private:
  struct Entry {
    std::string Key;
    uint64_t Hash;
    std::shared_ptr<const db::CompiledPlan> Plan;
    uint64_t Bytes;
    uint64_t Epoch; ///< Catalog epoch the plan was last found to match at.
  };
  using LruList = std::list<Entry>;

  void eraseLocked(LruList::iterator It);

  const uint64_t MaxBytes;
  obs::Counter &Hits;
  obs::Counter &Misses;
  obs::Counter &Evictions;
  obs::Counter &CatalogChecks; ///< Hits that ran matchesCatalog.
  obs::Gauge &BytesG;

  mutable std::mutex Mutex;
  LruList Lru; ///< Most recent first.
  /// By key hash; of two keys with one hash, the later replaces the other.
  std::unordered_map<uint64_t, LruList::iterator> Map;
  uint64_t Bytes = 0;
};

} // namespace qcf::serve

#endif // QCF_SERVE_PLANCACHE_H
