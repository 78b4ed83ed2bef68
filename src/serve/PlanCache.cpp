//===- serve/PlanCache.cpp - Lowered-plan cache for the server ------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "serve/PlanCache.h"

namespace qcf::serve {

namespace {

/// Heap bytes \p P holds: its QIR, string constants and metadata.
uint64_t planBytes(const db::CompiledPlan &P) {
  uint64_t N = sizeof(P) + sizeof(qir::Module) + P.StringArena.bytesAllocated() +
               P.QueryName.size();
  for (const auto &F : P.Module->functions())
    N += sizeof(qir::Function) + F->name().size() +
         F->numParams() * sizeof(qir::Type) +
         F->Insts.capacity() * sizeof(qir::Inst) +
         F->numBlocks() * sizeof(qir::Block) +
         F->PhiIns.capacity() * sizeof(qir::PhiIn) +
         F->CallArgs.capacity() * sizeof(qir::ValueId) +
         F->I128Pool.capacity() * sizeof(Int128);
  for (qir::SymbolId S = 0; S != P.Module->numSymbols(); ++S) {
    const qir::RuntimeSig &Sig = P.Module->symbol(S);
    N += sizeof(Sig) + Sig.Name.size() +
         Sig.ParamTypes.size() * sizeof(qir::Type);
  }
  for (const db::PipelineDesc &D : P.Pipelines)
    N += sizeof(D) + D.FnName.size() + D.SourceTable.size();
  for (const db::RuntimeObject &O : P.Objects)
    N += sizeof(O) + O.CmpFnName.size();
  for (const db::TableRead &R : P.Reads) {
    N += sizeof(R) + R.TableName.size();
    for (const db::TableRead::ColumnRead &C : R.Columns)
      N += sizeof(C) + C.Name.size();
  }
  return N;
}

} // namespace

PlanCache::PlanCache(uint64_t MaxBytes, obs::MetricsRegistry &Reg)
    : MaxBytes(MaxBytes), Hits(Reg.counter("serve.plan_cache.hits")),
      Misses(Reg.counter("serve.plan_cache.misses")),
      Evictions(Reg.counter("serve.plan_cache.evictions")),
      BytesG(Reg.gauge("serve.plan_cache.bytes")) {}

// The gauge is shared by every cache on the registry; take back our part.
PlanCache::~PlanCache() { BytesG.add(-int64_t(Bytes)); }

void PlanCache::eraseLocked(LruList::iterator It) {
  Bytes -= It->Bytes;
  BytesG.add(-int64_t(It->Bytes));
  Map.erase(It->Key);
  Lru.erase(It);
}

std::shared_ptr<const db::CompiledPlan>
PlanCache::get(const db::Query &Q, const db::Catalog &Cat) {
  // One key buffer per thread, so a hit encodes and looks up without
  // allocating.
  thread_local std::string Key;
  db::encodeQuery(Q, Key);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      if (It->second->Plan->matchesCatalog(Cat)) {
        Hits.inc();
        Lru.splice(Lru.begin(), Lru, It->second);
        return It->second->Plan;
      }
      eraseLocked(It->second); // Its data moved: lower it again.
    }
    Misses.inc();
  }

  auto Plan =
      std::make_shared<const db::CompiledPlan>(db::compileQuery(Q, Cat));
  uint64_t EntryBytes = planBytes(*Plan) + sizeof(Entry) + Key.size();
  if (EntryBytes > MaxBytes)
    return Plan;

  std::lock_guard<std::mutex> Lock(Mutex);
  // A concurrent miss on the same key may have inserted first; the newer
  // plan replaces it (both are current).
  auto It = Map.find(Key);
  if (It != Map.end())
    eraseLocked(It->second);
  Lru.push_front({Key, Plan, EntryBytes});
  Map.emplace(Lru.front().Key, Lru.begin());
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
