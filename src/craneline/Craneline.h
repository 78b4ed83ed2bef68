//===- craneline/Craneline.h - Cranelift-architecture back-end --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Craneline back-end: a reimplementation of the Cranelift compilation
/// pipeline as analyzed in §VI of the paper. Per function (Cranelift
/// compiles one function at a time):
///
///   translate (QIR -> CIR, two passes, hash-map value mapping)
///   -> IRPasses (CFG / dominator tree analysis)
///   -> ISelPrepare (three metadata passes: vreg+regclass assignment,
///      side-effect partitioning, use-count DFS)
///   -> Lowering (backward tree-matching into linear VCode)
///   -> RegAlloc (live ranges, bundle merging, linear scan with one
///      B-tree per physical register)
///   -> Emit (clobber pre-pass, veneer-size estimation, encoding)
///   -> Link (apply hard-wired-address relocations, copy to memory; the
///      x64::CodeImage shared with DirectEmit and Stencil)
///
//===----------------------------------------------------------------------===//

#ifndef QCF_CRANELINE_CRANELINE_H
#define QCF_CRANELINE_CRANELINE_H

#include "backend/ImageModule.h"

namespace qcf::craneline {

/// The optional CIR instruction extensions of §VI-A1 (Table II). With a
/// flag off, the construct lowers to a runtime helper call instead.
struct CranelineOptions {
  bool NativeCrc32 = true;        ///< crc32 instruction vs rt_crc32 call.
  bool NativeOverflowArith = true;///< iadd/isub/imul overflow-trap insts.
  bool NativeMulFull = true;      ///< full 64x64->128 multiply.
};

/// Compiled output. A module whose absolute relocation targets are not
/// all registered runtime symbols links fine but is not persistable.
class CranelineModule final : public backend::ImageModule {};

/// The back-end.
class CranelineBackend : public backend::Backend {
public:
  explicit CranelineBackend(CranelineOptions Opts = CranelineOptions())
      : Opts(Opts) {}

  using backend::Backend::compile;

  std::string name() const override { return "Craneline"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M,
          const backend::CompileOptions &COpts) override;

  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override;

  /// name() is constant, but the CIR instruction-extension flags change
  /// generated code (Table II constructs lower to helper calls with a
  /// flag off), so they must be part of the disk-cache key.
  std::string cacheConfig() const override;

  const CranelineOptions &options() const { return Opts; }

private:
  CranelineOptions Opts;
};

} // namespace qcf::craneline

#endif // QCF_CRANELINE_CRANELINE_H
