//===- qir/Type.h - QIR value types -----------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QIR type system. QIR mirrors the type universe the paper ascribes to
/// Umbra IR (§III): scalar integers up to 128 bits (SQL decimals are
/// int128), doubles, raw pointers, and a 16-byte "data128" value used for
/// Umbra's small-string-optimized string struct, which is passed by value
/// to and from runtime functions.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_TYPE_H
#define QCF_QIR_TYPE_H

#include "support/Compiler.h"
#include <cstdint>

namespace qcf::qir {

/// Value types of QIR. Kept to one byte so instruction records stay small.
enum class Type : uint8_t {
  Void, ///< No value (stores, branches, void calls).
  I1,   ///< Boolean.
  I8,
  I16,
  I32,
  I64,
  I128, ///< SQL decimal representation.
  F64,
  Ptr,  ///< Untyped 64-bit pointer.
  D128, ///< 16-byte data value (string struct), two i64 lanes.
};

inline const char *typeName(Type Ty) {
  switch (Ty) {
  case Type::Void:
    return "void";
  case Type::I1:
    return "i1";
  case Type::I8:
    return "i8";
  case Type::I16:
    return "i16";
  case Type::I32:
    return "i32";
  case Type::I64:
    return "i64";
  case Type::I128:
    return "i128";
  case Type::F64:
    return "f64";
  case Type::Ptr:
    return "ptr";
  case Type::D128:
    return "d128";
  }
  QCF_UNREACHABLE("invalid type");
}

/// Size of a value of this type in memory, in bytes.
inline unsigned typeSize(Type Ty) {
  switch (Ty) {
  case Type::Void:
    return 0;
  case Type::I1:
  case Type::I8:
    return 1;
  case Type::I16:
    return 2;
  case Type::I32:
    return 4;
  case Type::I64:
  case Type::F64:
  case Type::Ptr:
    return 8;
  case Type::I128:
  case Type::D128:
    return 16;
  }
  QCF_UNREACHABLE("invalid type");
}

/// True for the integer types (including i1 and ptr-as-integer is false).
inline bool isIntType(Type Ty) {
  switch (Ty) {
  case Type::I1:
  case Type::I8:
  case Type::I16:
  case Type::I32:
  case Type::I64:
  case Type::I128:
    return true;
  default:
    return false;
  }
}

/// Integer bit width (i1 reports 1).
inline unsigned intBits(Type Ty) {
  switch (Ty) {
  case Type::I1:
    return 1;
  case Type::I8:
    return 8;
  case Type::I16:
    return 16;
  case Type::I32:
    return 32;
  case Type::I64:
    return 64;
  case Type::I128:
    return 128;
  default:
    QCF_UNREACHABLE("not an integer type");
  }
}

/// Mask of the bits a value of this type occupies in its low 64-bit lane.
/// Narrow integers are kept zero-extended (the canonical form), so the
/// bits outside the mask are zero; every other type uses the whole lane.
inline uint64_t typeMask(Type Ty) {
  switch (Ty) {
  case Type::I1:
    return 1;
  case Type::I8:
    return 0xff;
  case Type::I16:
    return 0xffff;
  case Type::I32:
    return 0xffffffffull;
  default:
    return ~0ull;
  }
}

/// Sign-extends the low lane \p V of a value of type \p Ty to 64 bits
/// (i64 and wider reinterpret the lane).
inline int64_t sext(uint64_t V, Type Ty) {
  switch (Ty) {
  case Type::I1:
    return (V & 1) ? -1 : 0;
  case Type::I8:
    return static_cast<int8_t>(V);
  case Type::I16:
    return static_cast<int16_t>(V);
  case Type::I32:
    return static_cast<int32_t>(V);
  default:
    return static_cast<int64_t>(V);
  }
}

/// True for types that occupy two 64-bit lanes (two machine registers).
inline bool isTwoLane(Type Ty) {
  return Ty == Type::I128 || Ty == Type::D128;
}

} // namespace qcf::qir

#endif // QCF_QIR_TYPE_H
