//===- backend/Cache.cpp - Compiled-query cache ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/CompileService.h"
#include "backend/DiskCache.h"
#include "backend/TierUp.h"
#include "qir/Clone.h"
#include "support/BlockCache.h"
#include "support/Hash.h"
#include <atomic>

namespace qcf::backend {

namespace {

/// Instance counter behind metricsPrefix() — "cache.<n>." names stay
/// unique for the life of the process.
std::atomic<uint64_t> NextCacheId{1};

obs::MetricsRegistry &resolveRegistry(obs::MetricsRegistry *Reg) {
  return Reg ? *Reg : obs::MetricsRegistry::global();
}

} // namespace

CachingBackend::CachingBackend(std::unique_ptr<Backend> Inner, size_t Capacity,
                               CompileService *Service,
                               obs::MetricsRegistry *Reg, DiskCodeCache *Disk,
                               std::unique_ptr<Backend> Fast)
    : Inner(std::move(Inner)), Fast(std::move(Fast)), Capacity(Capacity),
      Service(Service), Disk(Disk),
      Prefix("cache." +
             std::to_string(NextCacheId.fetch_add(1,
                                                  std::memory_order_relaxed)) +
             "."),
      Hits(resolveRegistry(Reg).counter(Prefix + "hits")),
      Misses(resolveRegistry(Reg).counter(Prefix + "misses")),
      Evictions(resolveRegistry(Reg).counter(Prefix + "evictions")),
      InFlightWaits(resolveRegistry(Reg).counter(Prefix + "inflight_waits")),
      FastTier(resolveRegistry(Reg).counter(Prefix + "fast_tier")),
      FastTierCompileNs(
          resolveRegistry(Reg).histogram(Prefix + "fast_tier_compile_ns")) {
  // No cache injected: honor $QCF_CODE_CACHE so any CachingBackend user
  // gets warm restarts from the environment alone.
  if (!this->Disk) {
    OwnedDisk = DiskCodeCache::fromEnv(Reg);
    this->Disk = OwnedDisk.get();
  }
}

CachingBackend::~CachingBackend() {
  // A background job reads this cache's members until it retires its
  // in-flight entry: cancel the ones still queued, wait out the rest.
  std::vector<std::shared_ptr<TierUp>> Ups;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &[Key, Entry] : Pending)
      if (Entry->Up)
        Ups.push_back(Entry->Up);
  }
  for (const std::shared_ptr<TierUp> &Up : Ups)
    Up->finish();
}

namespace {

/// Dual-lane fingerprint state: both lanes consume the identical word
/// stream from one walk of the module.
///
/// Lane Lo is the original 64-bit structural hash, kept bit-exact (it is
/// the legacy hashModule() value and the one the collision regression
/// test targets). Its word fold is CRC32C-based, and CRC32C is linear
/// over GF(2) with a *seed-independent* kernel: there exist constants D
/// with crc32c(0, D) == 0, so V and V^D fold identically under every
/// seed. That is exactly why the second lane must not be "CRC with
/// another seed" — it uses a murmur-style multiplicative mix instead,
/// which is not GF(2)-linear, so the lanes fail independently.
struct FpState {
  uint64_t Lo;
  uint64_t Hi;

  void mix(uint64_t V) {
    // Lane Lo (legacy): crc32 folds V into H; the long-mul-fold pass
    // spreads the result back over all 64 bits (crc32u64 alone only
    // populates the low 32).
    Lo = longMulFold(crc32u64(Lo, V) ^ Lo, 0x9e3779b97f4a7c15ull);
    // Lane Hi: murmur3-style multiplicative mix.
    uint64_t K = V * 0x87c37b91114253d5ull;
    K = (K << 31) | (K >> 33);
    K *= 0x4cf5ed432acc62full;
    Hi ^= K;
    Hi = (Hi << 27) | (Hi >> 37);
    Hi = Hi * 5 + 0x52dce729ull;
  }

  void mixString(const std::string &S) {
    mix(S.size());
    size_t I = 0;
    for (; I + 8 <= S.size(); I += 8) {
      uint64_t Word;
      __builtin_memcpy(&Word, S.data() + I, 8);
      mix(Word);
    }
    uint64_t Tail = 0;
    if (I < S.size())
      __builtin_memcpy(&Tail, S.data() + I, S.size() - I);
    mix(Tail);
  }

  void mixFunction(const qir::Function &F) {
    mixString(F.name());
    mix(static_cast<uint64_t>(F.returnType()));
    mix(F.numParams());
    for (qir::Type T : F.paramTypes())
      mix(static_cast<uint64_t>(T));

    for (uint32_t I = 0; I != F.numInsts(); ++I) {
      const qir::Inst &Inst = F.inst(I);
      // Everything except Scratch, packed into two words.
      mix(static_cast<uint64_t>(Inst.Op) |
          (static_cast<uint64_t>(Inst.Ty) << 8) |
          (static_cast<uint64_t>(Inst.Flags) << 16) |
          (static_cast<uint64_t>(Inst.A) << 24));
      mix(static_cast<uint64_t>(Inst.B) |
          (static_cast<uint64_t>(Inst.C) << 32));
      mix(Inst.Imm);
    }
    mix(F.numBlocks());
    for (uint32_t B = 0; B != F.numBlocks(); ++B) {
      mix(F.block(B).Begin);
      mix(F.block(B).End);
    }
    for (const qir::PhiIn &In : F.PhiIns) {
      mix(In.Pred);
      mix(In.Val);
    }
    for (qir::ValueId Arg : F.CallArgs)
      mix(Arg);
    for (const Int128 &C : F.I128Pool) {
      mix(static_cast<uint64_t>(C));
      mix(static_cast<uint64_t>(static_cast<unsigned __int128>(C) >> 64));
    }
  }
};

} // namespace

ModuleFingerprint fingerprintModule(const qir::Module &M) {
  FpState H{0x9e3779b97f4a7c15ull, 0xc2b2ae3d27d4eb4full};
  H.mix(M.functions().size());
  for (const auto &F : M.functions())
    H.mixFunction(*F);
  H.mix(M.numSymbols());
  for (qir::SymbolId S = 0; S != M.numSymbols(); ++S) {
    const qir::RuntimeSig &Sig = M.symbol(S);
    H.mixString(Sig.Name);
    H.mix(static_cast<uint64_t>(Sig.RetType));
    for (qir::Type T : Sig.ParamTypes)
      H.mix(static_cast<uint64_t>(T));
  }
  return {H.Lo, H.Hi};
}

uint64_t hashModule(const qir::Module &M) { return fingerprintModule(M).Lo; }

namespace {

/// Handle that shares ownership of a cached compilation. \p Up, when set,
/// is the pending optimized compile of fast-tier code (see
/// CompiledModule::Optimized). Every L1 hit makes one and its query frees
/// it, so it is a recycled block of the query thread.
class SharedModule : public CompiledModule {
public:
  explicit SharedModule(std::shared_ptr<CompiledModule> Inner,
                        std::shared_ptr<TierUp> Up = nullptr)
      : Inner(std::move(Inner)) {
    Optimized = std::move(Up);
  }
  static void *operator new(size_t Bytes) { return blocks::allocate(Bytes); }
  static void operator delete(void *P, size_t Bytes) {
    blocks::deallocate(P, Bytes);
  }
  void *entry(const std::string &Name) override {
    return Inner->entry(Name);
  }
  bool serialize(std::vector<uint8_t> &Out) const override {
    return Inner->serialize(Out);
  }
  std::vector<tv::TvFunction> tvFunctions() const override {
    return Inner->tvFunctions();
  }

private:
  std::shared_ptr<CompiledModule> Inner;
};

} // namespace

/// The inner compile of one key that missed memory, run on a service
/// worker: it loads the key's blob when the miss left the disk probe to it
/// (\p Probe), and compiles when there is none. It holds the module through
/// \p ModuleOwner, because the query that missed may free its plan before
/// the job runs. The job is owned in turn by the shared handle on it, and
/// by the service until it ends.
class CachingBackend::BackgroundCompile : public Backend {
public:
  BackgroundCompile(CachingBackend &Cache, const ModuleFingerprint &Key,
                    bool Probe, std::shared_ptr<const void> ModuleOwner)
      : Cache(Cache), Key(Key), Probe(Probe), Name(Cache.name()),
        ModuleOwner(std::move(ModuleOwner)) {}

  /// The service's latency histogram for these jobs covers compile,
  /// publish and store. Read after the job retired its entry, when the
  /// cache may be gone.
  std::string name() const override { return Name; }

  using Backend::compile;

  std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                          const CompileOptions &O) override {
    std::shared_ptr<CompiledModule> Compiled =
        Probe ? Cache.load(Key, M, O) : nullptr;
    bool FromDisk = Compiled != nullptr;
    if (!Compiled)
      Compiled = Cache.Inner->compile(M, O);
    Cache.publish(Key, Compiled);
    if (Cache.Disk && !FromDisk)
      Cache.Disk->store(Key, *Cache.Inner, *Compiled, O);
    // The last touch of the cache: its destructor waits only for jobs
    // whose entry is still in flight.
    Cache.retire(Key);
    return std::make_unique<SharedModule>(std::move(Compiled));
  }

private:
  CachingBackend &Cache;
  const ModuleFingerprint Key;
  const bool Probe;
  const std::string Name;
  const std::shared_ptr<const void> ModuleOwner;
};

std::shared_ptr<CompiledModule>
CachingBackend::load(const ModuleFingerprint &Key, const qir::Module &M,
                     const CompileOptions &Opts) {
  std::shared_ptr<CompiledModule> Loaded = Disk->load(Key, *Inner, Opts);
  // Fresh compiles run translation validation inside the back-end; warm
  // loads skip the back-end entirely, so validate the re-patched code
  // here — this is the one layer that re-checks cached blobs against the
  // IR they claim to implement.
  if (Loaded && Opts.Verify.Tv)
    tv::validateOrDie(M, Loaded->tvFunctions(), Opts.Obs.Metrics,
                      "disk cache");
  return Loaded;
}

void CachingBackend::publish(const ModuleFingerprint &Key,
                             const std::shared_ptr<CompiledModule> &Compiled) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Lru.emplace_front(Key, Compiled);
  Map[Key] = Lru.begin();
  if (Capacity && Map.size() > Capacity) {
    Map.erase(Lru.back().first);
    Lru.pop_back();
    Evictions.inc();
  }
}

void CachingBackend::retire(const ModuleFingerprint &Key) {
  std::shared_ptr<InFlight> Retired; // Freed outside the lock.
  std::lock_guard<std::mutex> Lock(Mutex);
  if (auto It = Pending.find(Key); It != Pending.end()) {
    Retired = std::move(It->second);
    Pending.erase(It);
  }
}

void CachingBackend::noteFast(const CompileOptions &Opts, uint64_t StartNs,
                              uint64_t EndNs) {
  FastTier.inc();
  uint64_t DurNs = EndNs - StartNs;
  FastTierCompileNs.observe(DurNs);
  if (obs::TraceSink *Sink = Opts.Obs.Sink)
    Sink->completeEvent("cache.fast_tier", "cache", StartNs, DurNs);
}

std::unique_ptr<CompiledModule>
CachingBackend::compile(const qir::Module &M, const CompileOptions &Opts) {
  ModuleFingerprint Key =
      Opts.Fingerprint ? *Opts.Fingerprint : fingerprintModule(M);
  std::shared_ptr<InFlight> Entry;
  {
    std::shared_ptr<InFlight> Stale; // Freed outside the lock.
    std::unique_lock<std::mutex> Lock(Mutex);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Hits.inc();
      if (obs::TraceSink *Sink = Opts.Obs.Sink)
        Sink->instantEvent("cache.hit", "cache");
      Lru.splice(Lru.begin(), Lru, It->second); // Refresh recency.
      return std::make_unique<SharedModule>(It->second->second);
    }
    auto PIt = Pending.find(Key);
    if (PIt != Pending.end()) {
      // A background compile that ran has retired its entry, and a miss
      // that compiles itself retires it before settling the handle, so a
      // handle that ended here was cancelled before its job started (the
      // service shut down): a miss, and its fast code goes with it.
      if (!PIt->second->Up->pending()) {
        Stale = std::move(PIt->second);
        Pending.erase(PIt);
        PIt = Pending.end();
      }
    }
    if (PIt != Pending.end()) {
      Hits.inc();
      std::shared_ptr<TierUp> Up = PIt->second->Up;
      if (Fast) {
        if (std::shared_ptr<CompiledModule> Shared = PIt->second->FastCode) {
          FastTier.inc();
          Lock.unlock();
          return std::make_unique<SharedModule>(std::move(Shared),
                                                std::move(Up));
        }
        // The miss is still compiling the fast tier: compile it here too
        // rather than wait for it.
        Lock.unlock();
        uint64_t StartNs = nowNs();
        std::unique_ptr<CompiledModule> Code = Fast->compile(M, Opts);
        if (Code)
          Code->Optimized = std::move(Up);
        noteFast(Opts, StartNs, nowNs());
        return Code;
      }
      // In-flight dedup: another thread is already compiling this key.
      // Waiting on its result costs one compile latency at most; starting
      // a second compile would cost the same latency *and* the work. A
      // fired token abandons the wait, not the compile.
      InFlightWaits.inc();
      Lock.unlock();
      uint64_t WaitStartNs = nowNs();
      CompiledModule *Installed = Up->wait(Opts.Cancel);
      if (obs::TraceSink *Sink = Opts.Obs.Sink)
        Sink->completeEvent("cache.inflight_wait", "cache", WaitStartNs,
                            nowNs() - WaitStartNs);
      if (!Installed)
        return nullptr; // Only a fired token ends the wait with no module.
      // The handle keeps the module alive, even once the LRU evicts it.
      return std::make_unique<SharedModule>(
          std::shared_ptr<CompiledModule>(std::move(Up), Installed));
    }
    Misses.inc();
    Entry = std::make_shared<InFlight>();
    // Made before the disk probe, so a lookup of the key shares it at once
    // instead of waiting for the probe or the compile.
    Entry->Up = std::make_shared<TierUp>();
    Pending.emplace(Key, Entry);
  }

  // Compile outside the lock. The Pending entry guarantees no other
  // thread compiles this key concurrently. A warm disk hit rehydrates the
  // stored code (relocation re-patch) without invoking the back-end at
  // all. This thread probes the disk tier when its index may hold the key
  // or when no background job will: a miss that answers with fast-tier
  // code leaves the probe of a key the index does not know to its job,
  // so it never waits on the cache directory for a blob that is not there.
  bool Tiered = Fast && Service;
  bool Probed = Disk && (!Tiered || Disk->mayHold(Key, *Inner));
  std::shared_ptr<CompiledModule> Compiled =
      Probed ? load(Key, M, Opts) : nullptr;
  if (!Compiled && Tiered) {
    // The job compiles the caller's own module when the caller shares its
    // owner (a served plan), else a copy.
    std::shared_ptr<const void> Owner = Opts.ModuleOwner;
    const qir::Module *JobM = &M;
    if (!Owner) {
      auto Copy = std::make_shared<qir::Module>();
      qir::cloneSymbols(M, *Copy);
      for (const auto &F : M.functions())
        qir::cloneFunctionInto(*F, *Copy);
      JobM = Copy.get();
      Owner = std::move(Copy);
    }
    auto Job = std::make_shared<BackgroundCompile>(
        *this, Key, Disk && !Probed, std::move(Owner));
    uint64_t StartNs = nowNs();
    std::unique_ptr<CompiledModule> Code = compileTiered(
        *JobM, *Fast, *Job, *Service, Opts, Job, Entry->Up);
    if (Code) {
      uint64_t EndNs = nowNs();
      // Shared before it is counted, so a lookup that sees the count
      // finds the code.
      std::shared_ptr<TierUp> Up = std::move(Code->Optimized);
      std::shared_ptr<CompiledModule> Shared(std::move(Code));
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        Entry->FastCode = Shared;
      }
      noteFast(Opts, StartNs, EndNs);
      return std::make_unique<SharedModule>(std::move(Shared), std::move(Up));
    }
    // Refused (queue full, fairness share used up, service shut down): the
    // work moves onto this thread instead of blocking it behind the storm.
  }
  if (!Compiled && Disk && !Probed)
    Compiled = load(Key, M, Opts);
  bool FromDisk = Compiled != nullptr;
  if (!Compiled)
    Compiled = Inner->compile(M, Opts);
  // Published and retired before the handle settles, so every lookup
  // either shares the handle or finds the module in memory; the ones that
  // shared it swap to (or, without a fast tier, return) this module. Both
  // happen before the store, so no lookup pays for the write.
  publish(Key, Compiled);
  retire(Key);
  Entry->Up->settle(Compiled);
  if (Disk && !FromDisk)
    Disk->store(Key, *Inner, *Compiled, Opts);
  return std::make_unique<SharedModule>(std::move(Compiled));
}

} // namespace qcf::backend
