//===- runtime/StringVal.h - Umbra-style 16-byte string values -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 16-byte string value with small-buffer optimization the paper
/// describes (§III-A): the first four bytes hold the length; strings of at
/// most 12 bytes are stored entirely inline; longer strings keep their
/// 4-byte prefix in bytes 4-7 and a pointer to the data in bytes 8-15.
/// These values are passed *by value* to and from runtime functions — in
/// the SysV ABI that is two general-purpose registers, which is exactly the
/// calling-convention pressure the paper identifies as a FastISel fallback
/// source in LLVM.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_RUNTIME_STRINGVAL_H
#define QCF_RUNTIME_STRINGVAL_H

#include "support/Hash.h"
#include <cstdint>
#include <cstring>
#include <string>

namespace qcf::rt {

class Arena16; // see below

/// 16-byte by-value string. Trivially copyable; classified INTEGER,INTEGER
/// by the SysV x86-64 ABI, so it travels in two GP registers.
struct StringVal {
  static constexpr uint32_t InlineCap = 12;

  uint32_t Len;    ///< Bytes 0-3: length.
  char Prefix[4];  ///< Bytes 4-7: first 4 chars (inline or prefix).
  union {
    char Rest[8];     ///< Bytes 8-15: inline remainder (short strings).
    const char *Data; ///< Bytes 8-15: pointer (long strings).
  };

  bool isInline() const { return Len <= InlineCap; }

  const char *data() const {
    return isInline() ? Prefix : Data;
  }

  /// First min(Len,4) characters, for cheap early-out comparisons.
  uint32_t prefixWord() const {
    uint32_t W;
    std::memcpy(&W, Prefix, 4);
    return W;
  }

  std::string str() const { return std::string(data(), Len); }

  /// Low/high 64-bit lanes for passing through QIR d128 values.
  uint64_t lo() const {
    uint64_t V;
    std::memcpy(&V, this, 8);
    return V;
  }
  uint64_t hi() const {
    uint64_t V;
    std::memcpy(&V, reinterpret_cast<const char *>(this) + 8, 8);
    return V;
  }

  static StringVal fromLanes(uint64_t Lo, uint64_t Hi) {
    StringVal S;
    std::memcpy(&S, &Lo, 8);
    std::memcpy(reinterpret_cast<char *>(&S) + 8, &Hi, 8);
    return S;
  }

  /// Builds a StringVal referencing \p Data (which must outlive the value
  /// if longer than 12 bytes). An inline value's bytes past \p Len are
  /// zero; stringEq relies on it (see there).
  static StringVal makeRef(const char *Bytes, uint32_t Len) {
    StringVal S;
    S.Len = Len;
    if (Len <= InlineCap) {
      std::memset(S.Prefix, 0, 4);
      std::memset(S.Rest, 0, 8);
      std::memcpy(S.Prefix, Bytes, Len); // spills into Rest when Len > 4
    } else {
      std::memcpy(S.Prefix, Bytes, 4);
      S.Data = Bytes;
    }
    return S;
  }
};

static_assert(sizeof(StringVal) == 16, "StringVal must be 16 bytes");

/// Equality contract. makeRef zero-pads an inline string's unused bytes,
/// and every producer (tables, constants, concat, substr, output copies)
/// builds its values through makeRef, so two equal inline strings have
/// equal bytes 0-15. stringEq compares bytes 0-7 (length and prefix) as
/// one word; for an inline string it then compares bytes 8-15 as a second
/// word. Only a long string whose first word matches reaches memcmp, on
/// data bytes 4..Len-1.
inline bool stringEq(const StringVal &A, const StringVal &B) {
  if (A.lo() != B.lo())
    return false;
  if (A.isInline())
    return A.hi() == B.hi();
  return std::memcmp(A.Data + 4, B.Data + 4, A.Len - 4) == 0;
}

inline int stringCmp(const StringVal &A, const StringVal &B) {
  uint32_t MinLen = A.Len < B.Len ? A.Len : B.Len;
  int C = std::memcmp(A.data(), B.data(), MinLen);
  if (C != 0)
    return C;
  return A.Len < B.Len ? -1 : (A.Len > B.Len ? 1 : 0);
}

inline uint64_t stringHash(const StringVal &S) {
  return qcf::hashBytes(S.data(), S.Len);
}

} // namespace qcf::rt

#endif // QCF_RUNTIME_STRINGVAL_H
