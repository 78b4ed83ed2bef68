//===- runtime/Runtime.h - Runtime functions callable from QIR --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C-linkage runtime surface that compiled queries call into: string
/// operations on by-value 16-byte strings, hash table build/probe, sorting
/// with a callback into generated code, arena allocation, output
/// materialization, date helpers, and the trap.
///
/// ABI contract (shared by every back-end and the interpreter FFI):
///  * all parameters are integer class — i64-sized slots, with d128/i128
///    occupying two consecutive slots; f64 values are bitcast to i64;
///  * at most six slots (the SysV GP argument registers);
///  * return is void, one GP register, or a two-register pair (d128/i128).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_RUNTIME_RUNTIME_H
#define QCF_RUNTIME_RUNTIME_H

#include "qir/Function.h"
#include "runtime/HashTable.h"
#include "runtime/StringVal.h"
#include "runtime/Trap.h"
#include "support/Arena.h"
#include "support/Int128.h"
#include <string>
#include <vector>

namespace qcf::rt {

/// A materialized query result: rows of typed cells. The final pipeline of
/// every query appends its output here through rt_out_* calls, which gives
/// the differential tests a canonical value to compare across back-ends.
class OutputBuffer {
public:
  enum class CellKind : uint8_t { I64, I128, F64, Str, Null };

  struct Cell {
    CellKind Kind;
    union {
      int64_t I64V;
      double F64V;
      StringVal StrV;
    };
    Int128 I128V; // kept outside the union for alignment simplicity
  };

  /// Starts a new row.
  void beginRow() { RowStarts.push_back(Cells.size()); }

  void appendI64(int64_t V) {
    Cell C{};
    C.Kind = CellKind::I64;
    C.I64V = V;
    Cells.push_back(C);
  }
  void appendI128(Int128 V) {
    Cell C{};
    C.Kind = CellKind::I128;
    C.I128V = V;
    Cells.push_back(C);
  }
  void appendF64(double V) {
    Cell C{};
    C.Kind = CellKind::F64;
    C.F64V = V;
    Cells.push_back(C);
  }
  /// Copies the string bytes into the buffer's own arena.
  void appendStr(StringVal S);

  size_t numRows() const { return RowStarts.size(); }

  /// Cells of row \p Row.
  const Cell *row(size_t Row, size_t *NumCells) const;

  /// Renders the buffer as text (one row per line, pipe-separated). I64
  /// and I128 cells print in decimal, F64 cells as printf("%.6f") would,
  /// in full.
  std::string toText() const;

  /// Row-order-insensitive digest for cross-back-end result comparison:
  /// the sum over rows of the hash of the row's toText() cell text, each
  /// cell followed by '|', plus a term for the row count.
  uint64_t unorderedDigest() const;

  /// Exact (ordered) comparison.
  bool equals(const OutputBuffer &Other) const;

  void clear() {
    Cells.clear();
    RowStarts.clear();
    Strings.reset();
  }

private:
  std::vector<Cell> Cells;
  std::vector<size_t> RowStarts;
  Arena Strings;
};

/// Looks up a runtime function's host address by name (nullptr if unknown).
/// Back-ends use this to resolve external symbols when linking.
void *runtimeSymbolAddress(const std::string &Name);

/// Reverse lookup: the runtime symbol name of \p Address, or nullptr when
/// the address is not a registered rt_* entry point. The persistent code
/// cache uses this to turn baked-in absolute call targets back into named
/// relocation records, so a blob loaded in a later process (different
/// ASLR layout) can be re-patched against the live symbol table.
const char *runtimeSymbolName(const void *Address);

/// The runtime symbols a QIR module can call, declared into \p M.
/// Codegen keeps this struct around instead of re-looking-up names.
struct RuntimeSyms {
  qir::SymbolId Trap;
  qir::SymbolId StrEq, StrCmp, StrContains, StrPrefix, StrHash, StrLike;
  qir::SymbolId StrConcat, StrSubstr;
  qir::SymbolId HtInsert, HtInsertAtomic, HtLookup, HtNext, HtCount, HtEntry;
  qir::SymbolId ArenaAlloc;
  qir::SymbolId OutRow, OutI64, OutI128, OutF64Bits, OutStr;
  qir::SymbolId DateYear, DateMonth;
  qir::SymbolId Sort;
  qir::SymbolId Mul128Ovf;
};

/// Declares every runtime symbol in \p M (with resolved addresses) and
/// returns their ids.
RuntimeSyms declareRuntime(qir::Module &M);

/// Days-since-epoch (1970-01-01) to calendar helpers.
int64_t dateYear(int64_t Days);
int64_t dateMonth(int64_t Days);
/// Builds days-since-epoch from a calendar date.
int64_t dateFromYmd(int Year, unsigned Month, unsigned Day);

} // namespace qcf::rt

// --- C-linkage runtime surface (callable from generated code) -------------

extern "C" {

// Strings. StringVal is passed/returned by value (two GP registers).
uint64_t rt_str_eq(qcf::rt::StringVal A, qcf::rt::StringVal B);
int64_t rt_str_cmp(qcf::rt::StringVal A, qcf::rt::StringVal B);
uint64_t rt_str_contains(qcf::rt::StringVal Hay, qcf::rt::StringVal Needle);
uint64_t rt_str_prefix(qcf::rt::StringVal S, qcf::rt::StringVal Prefix);
uint64_t rt_str_hash(qcf::rt::StringVal S);
/// SQL LIKE with % and _ wildcards.
uint64_t rt_str_like(qcf::rt::StringVal S, qcf::rt::StringVal Pattern);
qcf::rt::StringVal rt_str_concat(void *Arena, qcf::rt::StringVal A,
                                 qcf::rt::StringVal B);
qcf::rt::StringVal rt_str_substr(void *Arena, qcf::rt::StringVal S,
                                 uint64_t Start, uint64_t Len);

// Hash tables.
void *rt_ht_insert(void *Ht, uint64_t Hash);
void *rt_ht_insert_atomic(void *Ht, uint64_t Hash);
void *rt_ht_lookup(void *Ht, uint64_t Hash);
void *rt_ht_next(void *Entry, uint64_t Hash);
uint64_t rt_ht_count(void *Ht);
void *rt_ht_entry(void *Ht, uint64_t Index);

// Memory.
void *rt_arena_alloc(void *Arena, uint64_t Bytes);

// Output materialization.
void rt_out_row(void *Out);
void rt_out_i64(void *Out, int64_t V);
void rt_out_i128(void *Out, __int128 V);
void rt_out_f64bits(void *Out, uint64_t Bits);
void rt_out_str(void *Out, qcf::rt::StringVal S);

// Dates (days since epoch).
int64_t rt_date_year(int64_t Days);
int64_t rt_date_month(int64_t Days);

// Sorting; Cmp is a generated function i64(ptr, ptr) returning <0/0/>0.
void rt_sort(void *Base, uint64_t Count, uint64_t ElemSize, void *Cmp);

// Checked 128-bit multiplication helper (traps on overflow). Used by
// back-ends that call out instead of expanding inline (§V-A1, §VI-A1).
__int128 rt_mul128_ovf(__int128 A, __int128 B);

// 128-bit "libcalls". Divisions trap on zero divisors / overflow; shifts
// mask the amount to 0..127. These play the role of compiler-rt's
// __divti3/__ashlti3 family: every native back-end lowers the QIR i128
// division and shift operations to calls.
__int128 rt_sdiv128(__int128 A, __int128 B);
__int128 rt_udiv128(__int128 A, __int128 B);
__int128 rt_srem128(__int128 A, __int128 B);
__int128 rt_shl128(__int128 A, uint64_t Amount);
__int128 rt_lshr128(__int128 A, uint64_t Amount);
__int128 rt_ashr128(__int128 A, uint64_t Amount);

// Helper-call implementations of operations the Craneline back-end lacks
// native CIR instructions for unless its extensions are enabled (§VI-A1,
// Table II). 32-bit variants take/return canonically zero-extended lanes.
uint64_t rt_crc32(uint64_t Seed, uint64_t Value);
uint64_t rt_sadd32_ovf(uint64_t A, uint64_t B);
uint64_t rt_ssub32_ovf(uint64_t A, uint64_t B);
uint64_t rt_smul32_ovf(uint64_t A, uint64_t B);
uint64_t rt_sadd64_ovf(uint64_t A, uint64_t B);
uint64_t rt_ssub64_ovf(uint64_t A, uint64_t B);
uint64_t rt_smul64_ovf(uint64_t A, uint64_t B);
__int128 rt_add128_ovf(__int128 A, __int128 B);
__int128 rt_sub128_ovf(__int128 A, __int128 B);

} // extern "C"

#endif // QCF_RUNTIME_RUNTIME_H
