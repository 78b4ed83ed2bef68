//===- x64/CodeImage.cpp - Linked, persistable machine-code image ---------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/CodeImage.h"
#include "runtime/Runtime.h"
#include "support/ByteIo.h"
#include "x64/ExecArena.h"
#include <cstring>
#include <tuple>

using namespace qcf;
using namespace qcf::x64;

namespace {

/// [Off, Off + Size) lies within [0, Len), written so no sum can wrap.
bool inRange(uint64_t Off, uint64_t Size, uint64_t Len) {
  return Off <= Len && Size <= Len - Off;
}

size_t alignTo16(size_t N) { return (N + 15) & ~size_t(15); }

} // namespace

void CodeImage::Payload::encode(ByteWriter &W) const {
  W.bytes(Code, CodeLen);
  W.u64(Fns.size());
  for (const Function &Fn : Fns) {
    W.str(Fn.Name);
    W.u64(Fn.Offset);
    W.u64(Fn.Size);
  }
  W.u64(Relocs.size());
  for (const Reloc &Rel : Relocs) {
    W.u64(Rel.Offset);
    W.str(Rel.Symbol);
  }
}

bool CodeImage::Payload::decode(ByteReader &R) {
  std::tie(Code, CodeLen) = R.bytes();
  uint64_t NumFns = R.u64();
  if (!R.ok() || NumFns > R.remaining())
    return false;
  for (uint64_t I = 0; I != NumFns; ++I) {
    Function Fn;
    Fn.Name = R.str();
    Fn.Offset = R.u64();
    Fn.Size = R.u64();
    if (!R.ok() || !inRange(Fn.Offset, Fn.Size, CodeLen))
      return false;
    Fns.push_back(std::move(Fn));
  }
  uint64_t NumRelocs = R.u64();
  if (!R.ok() || NumRelocs > R.remaining())
    return false;
  for (uint64_t I = 0; I != NumRelocs; ++I) {
    Reloc Rel;
    Rel.Offset = R.u64();
    Rel.Symbol = R.str();
    if (!R.ok() || !inRange(Rel.Offset, 8, CodeLen) ||
        !rt::runtimeSymbolAddress(Rel.Symbol))
      return false;
    Relocs.push_back(std::move(Rel));
  }
  return true;
}

void CodeImage::Payload::patch(uint8_t *Base) const {
  for (const Reloc &Rel : Relocs) {
    uint64_t Target =
        reinterpret_cast<uint64_t>(rt::runtimeSymbolAddress(Rel.Symbol));
    std::memcpy(Base + Rel.Offset, &Target, 8);
  }
}

void CodeImage::link(std::vector<Piece> &Pieces) {
  size_t Total = 0;
  for (const Piece &P : Pieces)
    Total = alignTo16(Total) + P.Code.size();
  Mem = ExecArena::global().allocate(Total);
  Img.Fns.reserve(Pieces.size());
  size_t Off = 0;
  for (Piece &P : Pieces) {
    Off = alignTo16(Off);
    std::memcpy(Mem.Rw + Off, P.Code.data(), P.Code.size());
    for (Reloc &Rel : P.Relocs) {
      if (Rel.Symbol.empty())
        AllTargetsNamed = false;
      else
        Img.Relocs.push_back({Off + Rel.Offset, std::move(Rel.Symbol)});
    }
    Img.Fns.push_back({std::move(P.Name), Off, P.Code.size()});
    Off += P.Code.size();
  }
  Mem.seal();
  Img.Code = Mem.Rx;
  Img.CodeLen = Total;
}

void CodeImage::install(Payload P) {
  Mem = ExecArena::global().allocate(P.CodeLen);
  std::memcpy(Mem.Rw, P.Code, P.CodeLen);
  P.patch(Mem.Rw);
  Mem.seal();
  P.Code = Mem.Rx;
  Img = std::move(P);
  AllTargetsNamed = true;
}

bool CodeImage::persistable() const {
  // A target that cannot be re-resolved by name in another process would
  // make every blob of this image one that warm loads reject. Checked
  // here rather than in link() to keep the lookups off the compile path.
  if (!AllTargetsNamed)
    return false;
  for (const Reloc &Rel : Img.Relocs)
    if (!rt::runtimeSymbolAddress(Rel.Symbol))
      return false;
  return true;
}

bool CodeImage::serialize(ByteWriter &W) const {
  if (!persistable())
    return false;
  Img.encode(W);
  return true;
}

size_t CodeImage::indexOf(const std::string &Name) const {
  for (size_t I = 0; I != Img.Fns.size(); ++I)
    if (Img.Fns[I].Name == Name)
      return I;
  return SIZE_MAX;
}

void *CodeImage::entry(const std::string &Name) const {
  size_t I = indexOf(Name);
  return I == SIZE_MAX ? nullptr
                       : const_cast<uint8_t *>(Img.Code) + Img.Fns[I].Offset;
}

size_t CodeImage::codeSize(const std::string &Name) const {
  size_t I = indexOf(Name);
  return I == SIZE_MAX ? 0 : Img.Fns[I].Size;
}
