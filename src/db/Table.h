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
#include <algorithm>
#include <atomic>
#include <cstring>
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

/// A catalog's epoch: a number no other catalog state in the process has
/// had. Creating a table or a column moves it, and so does growing a
/// column, the one place its data moves. Nothing else can change what
/// codegen reads (names and types are const, columns and data private),
/// so a plan lowered at epoch E matches its catalog while it reads E.
struct CatalogEpoch {
  CatalogEpoch() { bump(); }
  void bump() { V = Next++; }

  std::atomic<uint64_t> V;
  static inline std::atomic<uint64_t> Next{1};
};

/// One column: raw bytes plus its type.
class Column {
public:
  Column(std::string Name, ColType Ty, CatalogEpoch &Epoch)
      : Name(std::move(Name)), Ty(Ty), Epoch(Epoch) { Epoch.bump(); }

  const std::string Name;
  const ColType Ty;

  size_t size() const { return Size / colElemSize(Ty); }
  const void *raw() const { return Data.get(); }

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
    if (Size + N > Cap) [[unlikely]]
      grow(Size + N);
    std::memcpy(Data.get() + Size, P, N);
    Size += N;
  }
  /// Moves the data, so code lowered against the old data must not run.
  [[gnu::noinline]] void grow(size_t Bytes) {
    Cap = std::max<size_t>({Bytes, 2 * Cap, 64});
    auto New = std::make_unique_for_overwrite<uint8_t[]>(Cap);
    if (Size)
      std::memcpy(New.get(), Data.get(), Size);
    Data = std::move(New);
    Epoch.bump();
  }
  template <typename T> T at(size_t I) const {
    T V;
    __builtin_memcpy(&V, Data.get() + I * sizeof(T), sizeof(T));
    return V;
  }

  std::unique_ptr<uint8_t[]> Data;
  size_t Size = 0, Cap = 0; ///< In bytes.
  CatalogEpoch &Epoch;
};

/// A table: named columns of equal length plus the string arena.
class Table {
public:
  Table(std::string Name, CatalogEpoch &Epoch)
      : Name(std::move(Name)), Epoch(Epoch) { Epoch.bump(); }

  const std::string Name;
  Arena StringArena;

  Column &addColumn(const std::string &ColName, ColType Ty) {
    Columns.emplace_back(ColName, Ty, Epoch);
    return Columns.back();
  }

  /// Every column, in creation order.
  const std::deque<Column> &columns() const { return Columns; }

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

private:
  std::deque<Column> Columns; // Stable references across addColumn.
  CatalogEpoch &Epoch;
};

/// A set of tables.
class Catalog {
public:
  Table &create(const std::string &Name) {
    Tables.push_back(std::make_unique<Table>(Name, *Epoch));
    return *Tables.back();
  }

  Table *find(const std::string &Name) const {
    for (const auto &T : Tables)
      if (T->Name == Name)
        return T.get();
    return nullptr;
  }

  uint64_t epoch() const { return Epoch->V; }

private:
  /// On the heap, so the catalog can move while its tables point at it.
  std::unique_ptr<CatalogEpoch> Epoch = std::make_unique<CatalogEpoch>();
  std::vector<std::unique_ptr<Table>> Tables;
};

/// Decimal helpers (scale 100).
inline Int128 decimalFromCents(int64_t Cents) { return Cents; }
inline double decimalToDouble(Int128 V) {
  return static_cast<double>(static_cast<__int128>(V)) / 100.0;
}

} // namespace qcf::db

#endif // QCF_DB_TABLE_H
