//===- tests/ImagePayload.h - Editable native-image payloads ----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serialized DirectEmit / Stencil / Craneline payload decoded through
/// the shared codec (x64::CodeImage::Payload), with the code bytes copied
/// out so tests can corrupt them, and any back-end section that follows
/// the image section (DirectEmit's CFI) carried along verbatim.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TESTS_IMAGEPAYLOAD_H
#define QCF_TESTS_IMAGEPAYLOAD_H

#include "support/ByteIo.h"
#include "x64/CodeImage.h"
#include <gtest/gtest.h>
#include <vector>

namespace qcf::test {

struct ImagePayload {
  std::vector<uint8_t> Code;
  x64::CodeImage::Payload Image;
  std::vector<uint8_t> Tail; ///< Bytes after the image section.

  static ImagePayload parse(const std::vector<uint8_t> &Blob) {
    ImagePayload P;
    ByteReader R(Blob.data(), Blob.size());
    EXPECT_TRUE(P.Image.decode(R)) << "image section failed to decode";
    P.Code.assign(P.Image.Code, P.Image.Code + P.Image.CodeLen);
    P.Tail.assign(Blob.end() - static_cast<ptrdiff_t>(R.remaining()),
                  Blob.end());
    return P;
  }

  std::vector<uint8_t> build() {
    Image.Code = Code.data();
    Image.CodeLen = Code.size();
    ByteWriter W;
    Image.encode(W);
    W.raw(Tail.data(), Tail.size());
    return W.take();
  }
};

} // namespace qcf::test

#endif // QCF_TESTS_IMAGEPAYLOAD_H
