//===- db/Table.h - Columnar tables -----------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Columnar storage for the query engine: each column is a dense typed
/// array; strings are 16-byte StringVals whose long payloads live in a
/// per-table arena. Generated code scans columns through raw base
/// pointers.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_TABLE_H
#define QCF_DB_TABLE_H

#include "runtime/StringVal.h"
#include "support/Arena.h"
#include "support/Int128.h"
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace qcf::db {

/// SQL-ish column types.
enum class ColType : uint8_t {
  I32,
  I64,
  Date,    ///< int32 days since epoch.
  Decimal, ///< int128 with an implied scale of 100 (two decimals).
  F64,
  Str, ///< 16-byte StringVal.
};

/// Element size in the column array.
inline unsigned colElemSize(ColType Ty) {
  switch (Ty) {
  case ColType::I32:
  case ColType::Date:
    return 4;
  case ColType::I64:
  case ColType::F64:
    return 8;
  case ColType::Decimal:
  case ColType::Str:
    return 16;
  }
  QCF_UNREACHABLE("invalid column type");
}

/// One column: raw bytes plus its type.
class Column {
public:
  Column(std::string Name, ColType Ty) : Name(std::move(Name)), Ty(Ty) {}

  std::string Name;
  ColType Ty;
  std::vector<uint8_t> Data;

  size_t size() const { return Data.size() / colElemSize(Ty); }
  const void *raw() const { return Data.data(); }

  void pushI32(int32_t V) { pushBytes(&V, 4); }
  void pushI64(int64_t V) { pushBytes(&V, 8); }
  void pushDecimal(Int128 V) { pushBytes(&V, 16); }
  void pushStr(rt::StringVal V) { pushBytes(&V, 16); }

  int32_t i32At(size_t I) const { return at<int32_t>(I); }
  int64_t i64At(size_t I) const { return at<int64_t>(I); }
  Int128 decimalAt(size_t I) const { return at<Int128>(I); }
  rt::StringVal strAt(size_t I) const { return at<rt::StringVal>(I); }

private:
  void pushBytes(const void *P, size_t N) {
    const uint8_t *B = static_cast<const uint8_t *>(P);
    Data.insert(Data.end(), B, B + N);
  }
  template <typename T> T at(size_t I) const {
    T V;
    __builtin_memcpy(&V, Data.data() + I * sizeof(T), sizeof(T));
    return V;
  }
};

/// A table: named columns of equal length plus the string arena.
class Table {
public:
  explicit Table(std::string Name) : Name(std::move(Name)) {}

  std::string Name;
  std::deque<Column> Columns; // Stable references across addColumn.
  Arena StringArena;

  Column &addColumn(const std::string &ColName, ColType Ty) {
    Columns.emplace_back(ColName, Ty);
    return Columns.back();
  }

  size_t numRows() const {
    return Columns.empty() ? 0 : Columns.front().size();
  }

  const Column *column(const std::string &ColName) const {
    for (const Column &C : Columns)
      if (C.Name == ColName)
        return &C;
    return nullptr;
  }

  /// Interns a string into the table's arena (long strings only).
  rt::StringVal makeString(const std::string &S) {
    if (S.size() <= rt::StringVal::InlineCap)
      return rt::StringVal::makeRef(S.data(),
                                    static_cast<uint32_t>(S.size()));
    const char *Copy = StringArena.copyString(S.data(), S.size());
    return rt::StringVal::makeRef(Copy, static_cast<uint32_t>(S.size()));
  }
};

/// A set of tables.
class Catalog {
public:
  Table &create(const std::string &Name) {
    Tables.push_back(std::make_unique<Table>(Name));
    return *Tables.back();
  }

  Table *find(const std::string &Name) const {
    for (const auto &T : Tables)
      if (T->Name == Name)
        return T.get();
    return nullptr;
  }

private:
  std::vector<std::unique_ptr<Table>> Tables;
};

/// Decimal helpers (scale 100).
inline Int128 decimalFromCents(int64_t Cents) { return Cents; }
inline double decimalToDouble(Int128 V) {
  return static_cast<double>(static_cast<__int128>(V)) / 100.0;
}

} // namespace qcf::db

#endif // QCF_DB_TABLE_H
