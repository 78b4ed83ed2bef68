//===- serve/PlanCache.cpp - Lowered-plan cache for the server ------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "serve/PlanCache.h"
#include "support/VerifyOptions.h"

namespace qcf::serve {

namespace {

/// Heap bytes \p P holds: its QIR, string constants and metadata.
uint64_t planBytes(const db::CompiledPlan &P) {
  uint64_t N =
      sizeof(P) + sizeof(qir::Module) + P.StringArena.bytesAllocated();
  for (const auto &F : P.Module->functions())
    N += sizeof(qir::Function) + F->name().size() +
         F->numParams() * sizeof(qir::Type) +
         F->Insts.capacity() * sizeof(qir::Inst) +
         F->numBlocks() * sizeof(qir::Block) +
         F->PhiIns.capacity() * sizeof(qir::PhiIn) +
         F->CallArgs.capacity() * sizeof(qir::ValueId) +
         F->I128Pool.capacity() * sizeof(Int128);
  // The module's runtime-symbol table is the process-wide one that
  // rt::declareRuntime shares with every lowered plan: not the plan's.
  for (const db::PipelineDesc &D : P.Pipelines)
    N += sizeof(D) + D.FnName.size();
  for (const db::RuntimeObject &O : P.Objects)
    N += sizeof(O) + O.CmpFnName.size();
  for (const db::TableRead &R : P.Reads)
    N += sizeof(R) + R.TableName.size() + R.Raw.size() * sizeof(void *);
  return N;
}

} // namespace

PlanCache::PlanCache(uint64_t MaxBytes, obs::MetricsRegistry &Reg)
    : MaxBytes(MaxBytes), Hits(Reg.counter("serve.plan_cache.hits")),
      Misses(Reg.counter("serve.plan_cache.misses")),
      Evictions(Reg.counter("serve.plan_cache.evictions")),
      CatalogChecks(Reg.counter("serve.plan_cache.catalog_checks")),
      BytesG(Reg.gauge("serve.plan_cache.bytes")) {}

// The gauge is shared by every cache on the registry; take back our part.
PlanCache::~PlanCache() { BytesG.add(-int64_t(Bytes)); }

void PlanCache::eraseLocked(LruList::iterator It) {
  Bytes -= It->Bytes;
  BytesG.add(-int64_t(It->Bytes));
  Map.erase(It->Hash);
  Lru.erase(It);
}

std::shared_ptr<const db::CompiledPlan>
PlanCache::get(const db::Query &Q, const db::Catalog &Cat) {
  std::shared_ptr<const db::QueryKey> K = db::queryKey(Q);
  uint64_t Epoch = Cat.epoch();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(K->Hash);
    if (It != Map.end() && It->second->Key == K->Bytes) {
      Entry &E = *It->second;
      // Under QCF_VERIFY, every hit checks in full.
      bool Current = E.Epoch == Epoch && !VerifyOptions::fromEnv().any();
      if (!Current) {
        CatalogChecks.inc();
        Current = E.Plan->matchesCatalog(Cat);
      }
      if (Current) {
        E.Epoch = Epoch;
        Hits.inc();
        Lru.splice(Lru.begin(), Lru, It->second);
        return E.Plan;
      }
      eraseLocked(It->second); // Its data moved: lower it again.
    }
    Misses.inc();
  }

  auto Plan =
      std::make_shared<const db::CompiledPlan>(db::compileQuery(Q, Cat));
  uint64_t EntryBytes = planBytes(*Plan) + sizeof(Entry) + K->Bytes.size();
  if (EntryBytes > MaxBytes)
    return Plan;

  std::lock_guard<std::mutex> Lock(Mutex);
  // A concurrent miss on the same key may have inserted first; the newer
  // plan replaces it (both are current), as it does a colliding key's.
  auto It = Map.find(K->Hash);
  if (It != Map.end())
    eraseLocked(It->second);
  Lru.push_front({K->Bytes, K->Hash, Plan, EntryBytes, Epoch});
  Map.emplace(K->Hash, Lru.begin());
  Bytes += EntryBytes;
  BytesG.add(int64_t(EntryBytes));
  while (Bytes > MaxBytes) {
    eraseLocked(std::prev(Lru.end()));
    Evictions.inc();
  }
  return Plan;
}

uint64_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Bytes;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Lru.size();
}

} // namespace qcf::serve
