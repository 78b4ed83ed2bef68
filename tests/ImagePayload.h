//===- tests/ImagePayload.h - Editable native-image payloads ----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serialized DirectEmit / Stencil / Craneline payload decoded through
/// the shared codec (x64::CodeImage::Payload), with the code bytes copied
/// out so tests can corrupt them.
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

  static ImagePayload parse(const std::vector<uint8_t> &Blob) {
    ImagePayload P;
    ByteReader R(Blob.data(), Blob.size());
    EXPECT_TRUE(P.Image.decode(R)) << "image section failed to decode";
    P.Code.assign(P.Image.Code, P.Image.Code + P.Image.CodeLen);
    EXPECT_EQ(R.remaining(), 0u) << "bytes after the image section";
    return P;
  }

  std::vector<uint8_t> build() {
    Image.Code = Code.data();
    Image.CodeLen = Code.size();
    ByteWriter W;
    Image.encode(W);
    return W.take();
  }
};

} // namespace qcf::test

#endif // QCF_TESTS_IMAGEPAYLOAD_H
