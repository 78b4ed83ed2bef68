//===- backend/Backend.h - Execution back-end interface ---------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of all execution back-ends (§III-C): a back-end
/// turns a QIR module into something callable. JIT back-ends hand out raw
/// machine-code entry points; the interpreter hands out trampolines that
/// enter the dispatch loop, so callers never need to distinguish the two.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_BACKEND_H
#define QCF_BACKEND_BACKEND_H

#include "obs/Obs.h"
#include "qir/Function.h"
#include "support/Cancel.h"
#include "support/MemContext.h"
#include "support/TimeTrace.h"
#include "support/VerifyOptions.h"
#include "tv/Tv.h"
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qcf::backend {

class TierUp;

/// 128-bit structural fingerprint of a module, the code caches' key; see
/// fingerprintModule (backend/Cache.h).
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

/// Per-compile options. This is the extension point of the back-end
/// interface: new knobs (observability, verification, allocation mode
/// today; opt level, CPU features, code model tomorrow) are added here
/// instead of growing every Backend::compile override a new parameter.
struct CompileOptions {
  /// Observability consumers (all optional): aggregate timings, metrics
  /// registry, Perfetto trace sink. See obs/Obs.h.
  obs::ObsContext Obs;

  /// Which verification layers run during this compile (IR verifier,
  /// MIR verifier between machine passes, x64 encoding lint). Defaults
  /// to the process-wide QCF_VERIFY / QCF_EXPENSIVE_CHECKS setting; see
  /// support/VerifyOptions.h and DESIGN.md "Verification layers".
  VerifyOptions Verify = VerifyOptions::fromEnv();

  /// How this compile allocates its IR/MIR/scratch memory: each
  /// compile() call creates its own MemContext with this mode, so no two
  /// compiles ever share one. Heap is the paper-faithful default
  /// (per-object allocation, §V-B1); Arena is the production mode
  /// measured by E14. Defaults to QCF_ALLOC; see support/MemContext.h and
  /// DESIGN.md "Compilation memory".
  AllocMode Alloc = allocModeFromEnv();

  /// Cooperative cancellation for the compile *wait*, not the compile
  /// itself: CachingBackend's wait on another thread's compile of the key
  /// (TierUp::wait) returns early, with a null module, at the token's
  /// deadline or within a TierUp::CancelTick of its cancel(). A compile
  /// always runs to completion — emitted code is never torn — and no
  /// CompileService job carries the token (compileTiered strips it).
  const qcf::CancelToken *Cancel = nullptr;

  /// Per-tenant fairness key for CompileService submissions. Non-empty
  /// keys are counted per key; a service configured with a queue share
  /// for the key (setKeyQueueShare) rejects submissions beyond that
  /// share so one tenant cannot monopolize the bounded compile queue.
  /// Borrowed for the call: a queued job keeps its own copy.
  std::string_view FairnessKey;

  /// fingerprintModule() of the module being compiled, when the caller
  /// already has it (db::compileQuery computes it once per lowered plan).
  /// CachingBackend keys by it instead of hashing the module again, so it
  /// must be the fingerprint of exactly the module passed to compile().
  /// Held by value: a queued job copies its options and may outlive the
  /// plan.
  std::optional<ModuleFingerprint> Fingerprint;

  /// Shares ownership of the module passed to compile(), when the caller
  /// holds it in a shared object (a served plan). A compile that outlives
  /// the call, CachingBackend's background compile of a miss, keeps the
  /// module alive through it instead of copying the module. Null = the
  /// module is only borrowed for the call.
  std::shared_ptr<const void> ModuleOwner;

  CompileOptions() = default;
  explicit CompileOptions(obs::ObsContext Obs) : Obs(Obs) {}
  explicit CompileOptions(TimeTrace *Trace) { Obs.Trace = Trace; }
};

/// The result of compiling a module: callable entry points per function.
///
/// Entry points follow the SysV ABI with the QCF runtime restrictions
/// (integer-class parameters only, at most 6 slots; see runtime/Runtime.h),
/// so they can be invoked directly through a casted function pointer and
/// passed to runtime functions as callbacks.
class CompiledModule {
public:
  CompiledModule()
      : CodeId(NextCodeId.fetch_add(1, std::memory_order_relaxed)) {}
  virtual ~CompiledModule() = default;

  /// Names the code entry() hands out, never reused in the process, so
  /// what was found in it may be kept keyed by it (db::PlanBinding). A
  /// handle onto another module's code carries that module's id.
  const uint64_t CodeId;

  /// Entry point of \p Name; null if the function does not exist.
  virtual void *entry(const std::string &Name) = 0;

  /// Convenience typed accessor.
  template <typename FnT> FnT entryAs(const std::string &Name) {
    return reinterpret_cast<FnT>(entry(Name));
  }

  /// Serializes this module into a position-independent byte payload the
  /// owning back-end can later rehydrate via Backend::deserialize —
  /// machine code, the entry-symbol table, and named runtime-call
  /// relocation records instead of baked host addresses. Returns false
  /// when the module cannot be persisted (interpreter trampolines,
  /// modules with unnamed absolute targets); the disk cache then simply
  /// skips the store. The payload format is private to the back-end; the
  /// DiskCodeCache envelope supplies versioning and integrity checks.
  virtual bool serialize(std::vector<uint8_t> &Out) const {
    (void)Out;
    return false;
  }

  /// The emitted machine code of every function, with named runtime-call
  /// relocation records, for translation validation (QCF_VERIFY=tv; see
  /// tv/Tv.h). Pointers reference the module's own executable memory and
  /// stay valid for the module's lifetime. JIT back-ends override this;
  /// the default (interpreter trampolines, external JITs) opts out and tv
  /// skips the module. Works identically for cold-compiled modules and
  /// blobs re-patched in from the disk cache — which is the point: tv is
  /// the only layer that re-checks re-patched code.
  virtual std::vector<tv::TvFunction> tvFunctions() const { return {}; }

  /// For fast-tier code from backend::compileTiered, the optimized compile
  /// of the same module, which db::executeQuery swaps to once it installs.
  std::shared_ptr<TierUp> Optimized;

protected:
  /// A handle on \p Code's code.
  explicit CompiledModule(const CompiledModule *Code) : CodeId(Code->CodeId) {}

private:
  static inline std::atomic<uint64_t> NextCodeId{1};
};

/// A compilation back-end. Implementations: interp, stencil, direct,
/// craneline, mlvm (cheap/opt, 3 instruction selectors), gccjit.
class Backend {
public:
  virtual ~Backend() = default;

  /// Short identifier used in benchmark tables ("DirectEmit", "LLVM-cheap"
  /// style naming mirrors the paper's Table III).
  virtual std::string name() const = 0;

  /// Compiles \p M. Observability is driven by \p Opts.Obs: per-phase
  /// timings are recorded when a consumer asks for them (with the
  /// overhead that implies; §V-B), and every compile lands one count and
  /// one latency point in the metrics registry regardless.
  virtual std::unique_ptr<CompiledModule> compile(const qir::Module &M,
                                                  const CompileOptions &Opts) = 0;

  /// Compiles with default options (structural metrics only).
  std::unique_ptr<CompiledModule> compile(const qir::Module &M) {
    return compile(M, CompileOptions());
  }

  /// Rehydrates a module from a payload produced by
  /// CompiledModule::serialize on a module this same back-end compiled
  /// (same name() and cacheConfig()). Re-patches recorded runtime-call
  /// relocations against the live rt:: symbol table, so the payload may
  /// come from a different process. Returns null when the payload is
  /// malformed or references unknown symbols — callers treat that as a
  /// cache miss and recompile.
  virtual std::unique_ptr<CompiledModule> deserialize(const uint8_t *Data,
                                                      size_t Len) {
    (void)Data;
    (void)Len;
    return nullptr;
  }

  /// A string covering every option that changes generated code, used as
  /// part of the disk-cache key so blobs from one configuration are never
  /// served to another. Back-ends whose name() already encodes all
  /// codegen-relevant options can keep this default.
  virtual std::string cacheConfig() const { return name(); }
};

} // namespace qcf::backend

#endif // QCF_BACKEND_BACKEND_H
