//===- x64/CodeImage.h - Linked, persistable machine-code image -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The installation layer shared by the native x86-64 back-ends
/// (DirectEmit, Stencil, Craneline): everything between "the emitter has
/// final bytes" and "callers get an entry point". A CodeImage holds the
/// function table, the imm64 runtime relocations by symbol name, and the
/// x64::ExecArena block the code lives in, freed with the image. It is
/// filled one of two ways, both into one block of the code heap:
///
///   - link(): the cold-compile path. Functions are concatenated at 16-byte
///     alignment (cheap: "only needs to apply a small number of
///     relocations", §VI-C5 — the emitters have already written every
///     target address).
///   - install(): the warm path from the persistent code cache. The decoded
///     payload is copied in and every relocation is re-patched against the
///     live runtime symbol table, so the payload may come from another
///     process.
///
/// Payload layout (little-endian; see support/ByteIo.h):
///
///   bytes  code                         u64 length + raw bytes
///   u64    function count
///     str    name                       u64 length + raw bytes
///     u64    offset, u64 size           [offset, offset + size) in code
///   u64    relocation count
///     u64    offset                     imm64 at [offset, offset + 8)
///     str    runtime symbol name
///
/// The DirectEmit, Stencil and Craneline payloads are this section alone
/// (backend::installImage refuses trailing bytes). Payloads cross a trust
/// boundary (the disk cache is checksummed, not authenticated), so
/// decoding checks every range without overflow and refuses unknown
/// symbols.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_CODEIMAGE_H
#define QCF_X64_CODEIMAGE_H

#include "x64/ExecArena.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qcf {
class ByteReader;
class ByteWriter;
} // namespace qcf

namespace qcf::x64 {

class CodeImage {
public:
  struct Function {
    std::string Name;
    uint64_t Offset = 0; ///< Start within the image.
    uint64_t Size = 0;   ///< Code bytes; excludes the alignment padding.
  };

  /// The imm64 (of a movabs) at Offset holds the address of the runtime
  /// symbol Symbol. Offsets are image-relative in an image and
  /// function-relative in a Piece.
  struct Reloc {
    uint64_t Offset = 0;
    std::string Symbol;
  };

  /// One function as its emitter finished it: final bytes, with every
  /// imm64 already holding its target's address. A relocation whose target
  /// has no runtime-symbol name carries an empty Symbol.
  struct Piece {
    std::string Name;
    std::vector<uint8_t> Code;
    std::vector<Reloc> Relocs;
  };

  /// The image section of a payload. Code borrows the decoded buffer.
  struct Payload {
    const uint8_t *Code = nullptr;
    size_t CodeLen = 0;
    std::vector<Function> Fns;
    std::vector<Reloc> Relocs;

    void encode(ByteWriter &W) const;
    /// Reads one image section. Returns false on a truncated or
    /// out-of-range field, or on a symbol the runtime does not know.
    bool decode(ByteReader &R);
    /// Writes each relocation's live runtime address into \p Base, the
    /// writable view of a copy of Code.
    void patch(uint8_t *Base) const;
  };

  /// Cold-compile link; see the file comment. Takes the names and
  /// relocations out of \p Pieces and leaves their code to the caller, so
  /// freeing it stays out of the link step. Relocations without a symbol
  /// name are left out of relocs() and make the image non-persistable.
  void link(std::vector<Piece> &Pieces);

  /// Warm install of a decoded payload; see the file comment.
  void install(Payload P);

  /// Appends the image section; false when the image is not persistable.
  bool serialize(ByteWriter &W) const;

  /// Entry point of function \p Name, or null.
  void *entry(const std::string &Name) const;
  /// Code bytes of function \p Name, or 0.
  size_t codeSize(const std::string &Name) const;
  /// Index of function \p Name in functions(), or SIZE_MAX.
  size_t indexOf(const std::string &Name) const;

  const uint8_t *base() const { return Img.Code; }
  size_t codeBytes() const { return Img.CodeLen; }
  const std::vector<Function> &functions() const { return Img.Fns; }
  const std::vector<Reloc> &relocs() const { return Img.Relocs; }
  /// True when every relocation target names a runtime symbol, so the
  /// image can be re-patched in another process.
  bool persistable() const;

private:
  Payload Img;          ///< Img.Code is Mem.Rx.
  ExecArena::Block Mem; ///< Owns the code.
  bool AllTargetsNamed = true;
};

} // namespace qcf::x64

#endif // QCF_X64_CODEIMAGE_H
