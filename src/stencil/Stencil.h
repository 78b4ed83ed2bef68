//===- stencil/Stencil.h - Copy-and-patch x86-64 back-end -------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil back-end: the tier below DirectEmit. Compilation is a
/// single walk over QIR that concatenates pre-encoded binary stencils
/// (see stencil/Stencils.h) and patches their operand fields — no
/// analysis pass, no materialized MIR, no register allocator state beyond
/// a value→frame-slot map. Every SSA value lives in a fixed rbp-relative
/// slot; operation cores run on a fixed register convention and results
/// are stored back immediately (with a one-value forwarding chain that
/// elides the reload when an operation consumes the value just produced).
/// This trades execution quality against DirectEmit for a compile path
/// that is mostly memcpy, in the spirit of Copy-and-Patch (Xu & Kjolstad,
/// 2021) and TPDE (Schwarz, Kamm & Engelke, 2025).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_STENCIL_STENCIL_H
#define QCF_STENCIL_STENCIL_H

#include "backend/ImageModule.h"

namespace qcf::stencil {

/// Machine code produced by the stencil back-end.
class StencilModule final : public backend::ImageModule {};

/// The copy-and-patch back-end.
class StencilBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "Stencil"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;

  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override;
};

} // namespace qcf::stencil

#endif // QCF_STENCIL_STENCIL_H
