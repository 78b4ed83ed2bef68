//===- direct/DirectEmit.h - Single-pass x86-64 back-end --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DirectEmit back-end (§VII, [14]; formerly "Flying Start"): one
/// analysis pass (dominator tree, natural loops, block-granularity
/// liveness) followed by one code generation pass that walks the blocks in
/// layout order and emits x86-64 machine code directly, allocating
/// registers greedily on the fly. Values live across basic blocks get
/// fixed stack homes; block-local values stay in scratch registers with
/// lazy spilling. DWARF-style CFI is written in parallel with code
/// generation (synchronous only). x86-64 only, by design.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DIRECT_DIRECTEMIT_H
#define QCF_DIRECT_DIRECTEMIT_H

#include "backend/ImageModule.h"

namespace qcf::direct {

/// Machine code produced by DirectEmit, plus its CFI side table. Only a
/// cold compile has the table: the disk payload is the image section
/// alone, so a warm-installed module has no CFI.
class DirectModule final : public backend::ImageModule {
public:
  /// The CFI side table (one record per function); exposed for tests.
  const std::vector<uint8_t> &cfiBytes() const { return Cfi; }
  /// \p Name's record offset in cfiBytes(); SIZE_MAX for an unknown
  /// function or a warm-installed module.
  size_t cfiRecordOffset(const std::string &Name) const;

private:
  friend class DirectBackend;
  std::vector<uint8_t> Cfi;
  std::vector<uint64_t> CfiOffsets; ///< Per image function; cold only.
};

/// The DirectEmit back-end.
class DirectBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "DirectEmit"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;

  std::unique_ptr<backend::CompiledModule> deserialize(const uint8_t *Data,
                                                       size_t Len) override;
};

} // namespace qcf::direct

#endif // QCF_DIRECT_DIRECTEMIT_H
