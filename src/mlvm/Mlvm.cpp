//===- mlvm/Mlvm.cpp - MLVM back-end driver --------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "mlvm/Mlvm.h"
#include "mlvm/JitLink.h"
#include "mlvm/Mc.h"
#include "mlvm/MirPasses.h"
#include "mlvm/MirVerify.h"
#include "mlvm/Passes.h"
#include "qir/Verify.h"
#include "support/Compiler.h"
#include "x64/Decode.h"

using namespace qcf;
using namespace qcf::mlvm;

thread_local IselStats MlvmBackend::LastStats;
thread_local uint64_t MlvmBackend::LastIrObjects = 0;
thread_local MlvmBackend::MemPhaseStats MlvmBackend::LastMem;

TargetMachine *mlvm::acquireTargetMachine(bool UseCache) {
  auto Construct = [] {
    auto *TM = new TargetMachine();
    // "Parsing and constructing the architecture description": split a
    // feature string and derive feature bits.
    TM->Triple = "x86_64-unknown-linux-gnu";
    const char *FeatureString =
        "+sse,+sse2,+sse3,+ssse3,+sse4.1,+sse4.2,+popcnt,+crc32,+cx16,"
        "+fxsr,+mmx,+x87,+64bit,+cmov,-avx,-avx2,-avx512f,-amx-tile";
    std::string Cur;
    for (const char *P = FeatureString;; ++P) {
      if (*P == ',' || *P == 0) {
        TM->Features.push_back(Cur);
        TM->FeatureBits =
            TM->FeatureBits * 1099511628211ull ^
            std::hash<std::string>()(Cur);
        Cur.clear();
        if (*P == 0)
          break;
      } else {
        Cur.push_back(*P);
      }
    }
    return TM;
  };
  if (!UseCache)
    return Construct(); // Leaks deliberately avoided by caller in benches.
  // unique_ptr so each thread's instance is reclaimed at thread exit.
  thread_local std::unique_ptr<TargetMachine> Cached;
  if (!Cached)
    Cached.reset(Construct());
  ++Cached->FunctionLevelOverrides; // Simulated per-compilation mutation.
  return Cached.get();
}

std::string MlvmBackend::name() const {
  std::string N = Opts.Optimize ? "MLVM-opt" : "MLVM-cheap";
  if (Opts.Isel == IselKind::Global)
    N += "-gisel";
  else if (Opts.Isel == IselKind::Dag && !Opts.Optimize)
    N += "-seldag";
  else if (Opts.Isel == IselKind::Fast && Opts.Optimize)
    N += "-fastisel";
  if (Opts.Mode == D128Mode::StructPairs)
    N += "-structpairs";
  return N;
}

namespace {

class MlvmModule : public backend::CompiledModule {
public:
  MlvmModule(std::unique_ptr<LinkedImage> Image, std::vector<uint8_t> Object)
      : Image(std::move(Image)), Object(std::move(Object)) {}

  void *entry(const std::string &Name) override {
    return Image->lookup(Name);
  }

  /// MLVM's persistent-cache payload is the pre-link ELF relocatable
  /// object itself: it carries no baked host addresses (externals are
  /// undefined symbols the JIT linker resolves by name), so a warm load
  /// is just a jitLink — the entire middle of the pipeline is skipped.
  bool serialize(std::vector<uint8_t> &Out) const override {
    Out = Object;
    return true;
  }

  /// Function views recovered from the object's symbol and relocation
  /// tables, pointing into the linked image — so the disk-cache warm
  /// path validates the re-linked bytes, not the blob.
  std::vector<tv::TvFunction> tvFunctions() const override {
    return elfTvFunctions(Object, Image->Code.Rx);
  }

private:
  std::unique_ptr<LinkedImage> Image;
  std::vector<uint8_t> Object;
};

} // namespace

namespace {

/// Byte/alloc snapshot of one pool; phase deltas are the difference of
/// two snapshots (pool counters are cumulative and monotonic).
struct PoolMark {
  uint64_t Bytes, Allocs;
  explicit PoolMark(const MemPool &P)
      : Bytes(P.bytesAllocated()), Allocs(P.numAllocs()) {}
  MlvmBackend::MemPhaseStats::Phase deltaTo(const MemPool &P) const {
    return {P.bytesAllocated() - Bytes, P.numAllocs() - Allocs};
  }
};

void accumulate(MlvmBackend::MemPhaseStats::Phase &Into,
                MlvmBackend::MemPhaseStats::Phase Delta) {
  Into.Bytes += Delta.Bytes;
  Into.Allocs += Delta.Allocs;
}

/// Publishes the per-phase allocation volume of one compile as
/// mem.<backend>.<phase>.bytes/allocs counters. Only called when the
/// caller attached a MetricsRegistry: resolving ten counter names per
/// compile is detail-level cost, not always-on cost (the ≤2% envelope).
void publishMemMetrics(obs::MetricsRegistry &Reg, const std::string &Name,
                       AllocMode Mode,
                       const MlvmBackend::MemPhaseStats &S) {
  const std::string Prefix = "mem." + Name + ".";
  auto Pub = [&](const char *Phase,
                 const MlvmBackend::MemPhaseStats::Phase &P) {
    Reg.counter(Prefix + Phase + ".bytes").add(P.Bytes);
    Reg.counter(Prefix + Phase + ".allocs").add(P.Allocs);
  };
  Pub("irgen", S.Irgen);
  Pub("opt", S.Opt);
  Pub("isel", S.Isel);
  Pub("mirpasses", S.MirPasses);
  Pub("mc", S.Mc);
  Reg.counter(Prefix + "compiles." + allocModeName(Mode)).inc();
}

} // namespace

std::unique_ptr<backend::CompiledModule>
MlvmBackend::compile(const qir::Module &M,
                     const backend::CompileOptions &Opts) {
  obs::CompileObs Obs(Opts.Obs, name());
  TimeTrace *Trace = Obs.trace();
  MemContext Mem(Opts.Alloc);
  std::vector<uint8_t> Object = compileToObject(M, Trace, Opts.Verify, &Mem);
  std::unique_ptr<LinkedImage> Image =
      jitLink(Object, Trace, &Mem.scratch());
  if (Opts.Obs.Metrics)
    publishMemMetrics(*Opts.Obs.Metrics, name(), Mem.mode(), LastMem);
  auto Result =
      std::make_unique<MlvmModule>(std::move(Image), std::move(Object));
  if (Opts.Verify.Tv)
    tv::validateOrDie(M, Result->tvFunctions(), Opts.Obs.Metrics, "mlvm");
  return Result;
}

std::unique_ptr<backend::CompiledModule>
MlvmBackend::deserialize(const uint8_t *Data, size_t Len) {
  std::vector<uint8_t> Object(Data, Data + Len);
  std::unique_ptr<LinkedImage> Image = jitLink(Object, nullptr);
  if (!Image)
    return nullptr;
  // The blob crossed a process boundary: audit that every re-patched
  // rel32 call displacement lands on the PLT entry the fresh link built
  // for its symbol. The DiskCodeCache checksum guards against bit-rot,
  // not against relocation records that were wrong when stored — those
  // would relink "successfully" into a wild call. Report and treat as a
  // cache miss.
  if (std::string Err = verifyPltPatches(Object, *Image); !Err.empty()) {
    fprintf(stderr, "%s\n", Err.c_str());
    return nullptr;
  }
  return std::make_unique<MlvmModule>(std::move(Image), std::move(Object));
}

std::vector<uint8_t> MlvmBackend::compileToObject(const qir::Module &M,
                                                  TimeTrace *Trace,
                                                  VerifyOptions Verify,
                                                  MemContext *Mem) {
  // Callers that only want an object file (benches, qcf_lint) may not
  // carry a context; give the compile a private one in the env mode.
  MemContext Local{Mem ? AllocMode::Heap : allocModeFromEnv()};
  if (!Mem)
    Mem = &Local;

  LastStats = IselStats();
  LastIrObjects = 0;
  LastMem = MemPhaseStats();

  if (Verify.Ir)
    qir::verifyOrDie(M, "mlvm");

  TargetMachine *TM;
  {
    TimeTraceScope Scope(Trace, "mlvm.targetmachine");
    TM = acquireTargetMachine(Opts.CacheTargetMachine);
    if (!Opts.CacheTargetMachine) {
      // Fresh construction per compile; release immediately after noting
      // its cost (the cached path keeps one instance per thread).
      delete TM;
      TM = acquireTargetMachine(true);
    }
  }
  (void)TM;

  McModule Mc;
  for (const auto &F : M.functions()) {
    std::unique_ptr<MFunction> IR;
    {
      TimeTraceScope Scope(Trace, "mlvm.irgen");
      PoolMark Mark(Mem->ir());
      IR = translateToMlvm(*F, Opts.Mode, Mem->ir());
      accumulate(LastMem.Irgen, Mark.deltaTo(Mem->ir()));
    }
    LastIrObjects += IR->numObjects();

    {
      PoolMark Mark(Mem->ir());
      if (Opts.Optimize)
        runOptPasses(*IR, Trace, Opts.ReuseAnalyses);
      {
        TimeTraceScope Scope(Trace, "mlvm.prep");
        runCodeGenPrepScans(*IR, Trace);
      }
      accumulate(LastMem.Opt, Mark.deltaTo(Mem->ir()));
    }

    std::unique_ptr<MirFunction> MIR;
    {
      TimeTraceScope Scope(Trace, "mlvm.isel");
      PoolMark Mark(Mem->mir());
      MIR = selectInstructions(*IR, Opts.Isel, Trace, &LastStats, Verify.Mir,
                               &Mem->mir());
      accumulate(LastMem.Isel, Mark.deltaTo(Mem->mir()));
    }
    if (Verify.Mir)
      verifyMirOrDie(*MIR, MirStage::Ssa, "isel");

    PoolMark MirMark(Mem->mir());
    runPhiElimination(*MIR, Trace);
    if (Verify.Mir)
      verifyMirOrDie(*MIR, MirStage::NoPhi, "phi-elim");
    runTwoAddress(*MIR, Trace);
    if (Verify.Mir)
      verifyMirOrDie(*MIR, MirStage::TwoAddr, "two-address");
    MlvmRegAllocResult RA = runRegAlloc(
        *MIR, Opts.Optimize ? RegAllocKind::Greedy : RegAllocKind::Fast,
        Trace);
    if (Verify.Mir)
      verifyMirOrDie(*MIR, MirStage::Allocated, "regalloc", RA.NumSpillSlots);
    FrameLayout Frame = runPrologEpilog(*MIR, RA, Trace);
    if (Verify.Mir)
      verifyMirOrDie(*MIR, MirStage::Final, "prolog-epilog");
    accumulate(LastMem.MirPasses, MirMark.deltaTo(Mem->mir()));

    {
      PoolMark Mark(Mem->scratch());
      printFunction(*MIR, Frame, &Mc, Trace, &Mem->scratch());
      accumulate(LastMem.Mc, Mark.deltaTo(Mem->scratch()));
    }

    {
      // Module destruction is measurably expensive in Heap mode (§V-B1);
      // in Arena mode the destructor walk is skipped and the per-function
      // pools recycle their largest slab instead — the ablated cost.
      TimeTraceScope Scope(Trace, "mlvm.irdestroy");
      IR.reset();
      MIR.reset();
      Mem->clearFunctionMemory();
    }
  }

  if (Verify.Mc) {
    // Lint each function's emitted bytes. Call relocations (rel32,
    // patched by the JIT linker) are passed through so their fields are
    // exempt from the intra-function branch-target check.
    for (const ElfSymbol &S : Mc.Symbols) {
      std::vector<x64::DecodeReloc> Relocs;
      for (const ElfReloc &R : Mc.Relocs)
        if (R.Offset >= S.Offset && R.Offset < S.Offset + S.Size)
          Relocs.push_back({R.Offset - S.Offset, 4});
      x64::lintOrDie(Mc.Text.data() + S.Offset, S.Size, Relocs, S.Name,
                     "mlvm");
    }
  }

  return writeElfObject(Mc, Trace);
}
