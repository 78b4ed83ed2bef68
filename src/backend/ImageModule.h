//===- backend/ImageModule.h - Compiled module over a CodeImage -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The module type shared by the native back-ends that link through
/// x64::CodeImage (DirectEmit, Stencil, Craneline): entry points,
/// persistence and translation-validation views all come from the image,
/// so a back-end adds only its compiler and, if it has one, an extra
/// payload section.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_BACKEND_IMAGEMODULE_H
#define QCF_BACKEND_IMAGEMODULE_H

#include "backend/Backend.h"
#include "support/ByteIo.h"
#include "x64/CodeImage.h"

namespace qcf::backend {

class ImageModule : public CompiledModule {
public:
  void *entry(const std::string &Name) override { return Image.entry(Name); }

  /// Persists the image section (see x64/CodeImage.h).
  bool serialize(std::vector<uint8_t> &Out) const override {
    ByteWriter W;
    if (!Image.serialize(W))
      return false;
    Out = W.take();
    return true;
  }

  std::vector<tv::TvFunction> tvFunctions() const override {
    return tv::imageFunctions(Image);
  }

  size_t codeSize(const std::string &Name) const {
    return Image.codeSize(Name);
  }

  x64::CodeImage &image() { return Image; }
  const x64::CodeImage &image() const { return Image; }

protected:
  x64::CodeImage Image;
};

/// Backend::deserialize for a payload that is exactly one image section:
/// decodes it, refuses trailing bytes, and warm-installs the result.
template <typename ModuleT>
std::unique_ptr<CompiledModule> installImage(const uint8_t *Data,
                                             size_t Len) {
  ByteReader R(Data, Len);
  x64::CodeImage::Payload P;
  if (!P.decode(R) || R.remaining())
    return nullptr;
  auto M = std::make_unique<ModuleT>();
  M->image().install(std::move(P));
  return M;
}

} // namespace qcf::backend

#endif // QCF_BACKEND_IMAGEMODULE_H
