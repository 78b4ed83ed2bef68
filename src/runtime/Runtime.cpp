//===- runtime/Runtime.cpp - Runtime function implementations -------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "qir/Semantics.h"
#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <iterator>
#include <string_view>
#include <unordered_map>

using namespace qcf;
using namespace qcf::rt;
using qcf::qir::Type;

// --- Trap -------------------------------------------------------------------

thread_local detail::TrapFrame *detail::CurrentTrapFrame = nullptr;

const char *qcf::rt::trapCodeName(TrapCode Code) {
  switch (Code) {
  case TrapCode::None:
    return "none";
  case TrapCode::Overflow:
    return "overflow";
  case TrapCode::DivByZero:
    return "division by zero";
  }
  return "unknown";
}

extern "C" void rt_trap(uint64_t Code) {
  detail::TrapFrame *Frame = detail::CurrentTrapFrame;
  if (!Frame)
    reportFatalError("query trap raised outside any trap guard");
  std::longjmp(Frame->Buf, static_cast<int>(Code));
}

// --- Strings ------------------------------------------------------------------

extern "C" uint64_t rt_str_eq(StringVal A, StringVal B) {
  return stringEq(A, B);
}

extern "C" int64_t rt_str_cmp(StringVal A, StringVal B) {
  return stringCmp(A, B);
}

extern "C" uint64_t rt_str_contains(StringVal Hay, StringVal Needle) {
  if (Needle.Len == 0)
    return 1;
  if (Needle.Len > Hay.Len)
    return 0;
  const char *H = Hay.data();
  const char *N = Needle.data();
  for (uint32_t I = 0; I + Needle.Len <= Hay.Len; ++I)
    if (std::memcmp(H + I, N, Needle.Len) == 0)
      return 1;
  return 0;
}

extern "C" uint64_t rt_str_prefix(StringVal S, StringVal Prefix) {
  if (Prefix.Len > S.Len)
    return 0;
  // Both values hold their first min(Len, 4) bytes in the prefix word.
  if (Prefix.Len <= 4) {
    uint32_t Mask = Prefix.Len ? ~uint32_t(0) >> (8 * (4 - Prefix.Len)) : 0;
    return ((S.prefixWord() ^ Prefix.prefixWord()) & Mask) == 0;
  }
  return S.prefixWord() == Prefix.prefixWord() &&
         std::memcmp(S.data() + 4, Prefix.data() + 4, Prefix.Len - 4) == 0;
}

extern "C" uint64_t rt_str_hash(StringVal S) { return stringHash(S); }

namespace {

/// Recursive LIKE matcher over % (any run) and _ (any single char).
bool likeMatch(const char *S, uint32_t SLen, const char *P, uint32_t PLen) {
  while (PLen) {
    if (*P == '%') {
      // Collapse consecutive %.
      while (PLen && *P == '%') {
        ++P;
        --PLen;
      }
      if (!PLen)
        return true;
      for (uint32_t I = 0; I <= SLen; ++I)
        if (likeMatch(S + I, SLen - I, P, PLen))
          return true;
      return false;
    }
    if (!SLen)
      return false;
    if (*P != '_' && *P != *S)
      return false;
    ++S;
    --SLen;
    ++P;
    --PLen;
  }
  return SLen == 0;
}

} // namespace

extern "C" uint64_t rt_str_like(StringVal S, StringVal Pattern) {
  return likeMatch(S.data(), S.Len, Pattern.data(), Pattern.Len);
}

extern "C" StringVal rt_str_concat(void *ArenaPtr, StringVal A, StringVal B) {
  uint32_t Len = A.Len + B.Len;
  if (Len <= StringVal::InlineCap) {
    char Buf[12] = {};
    std::memcpy(Buf, A.data(), A.Len);
    std::memcpy(Buf + A.Len, B.data(), B.Len);
    return StringVal::makeRef(Buf, Len);
  }
  auto *Ar = static_cast<Arena *>(ArenaPtr);
  char *Mem = Ar->allocateArray<char>(Len);
  std::memcpy(Mem, A.data(), A.Len);
  std::memcpy(Mem + A.Len, B.data(), B.Len);
  return StringVal::makeRef(Mem, Len);
}

extern "C" StringVal rt_str_substr(void *ArenaPtr, StringVal S,
                                   uint64_t Start, uint64_t Len) {
  if (Start >= S.Len)
    return StringVal::makeRef("", 0);
  uint64_t Avail = S.Len - Start;
  uint32_t N = static_cast<uint32_t>(Len < Avail ? Len : Avail);
  if (N <= StringVal::InlineCap)
    return StringVal::makeRef(S.data() + Start, N);
  // Long substrings can alias the original data: string storage is
  // immutable for the lifetime of a query.
  (void)ArenaPtr;
  return StringVal::makeRef(S.data() + Start, N);
}

// --- Hash tables ----------------------------------------------------------

extern "C" void *rt_ht_insert(void *Ht, uint64_t Hash) {
  return static_cast<HashTable *>(Ht)->insert(Hash);
}

extern "C" void *rt_ht_insert_atomic(void *Ht, uint64_t Hash) {
  return static_cast<HashTable *>(Ht)->insertAtomic(Hash);
}

extern "C" void *rt_ht_lookup(void *Ht, uint64_t Hash) {
  return static_cast<HashTable *>(Ht)->lookup(Hash);
}

extern "C" void *rt_ht_next(void *Entry, uint64_t Hash) {
  return HashTable::nextMatch(Entry, Hash);
}

extern "C" uint64_t rt_ht_count(void *Ht) {
  return static_cast<HashTable *>(Ht)->count();
}

extern "C" void *rt_ht_entry(void *Ht, uint64_t Index) {
  return static_cast<HashTable *>(Ht)->entryAt(Index);
}

// --- Memory / output --------------------------------------------------------

extern "C" void *rt_arena_alloc(void *ArenaPtr, uint64_t Bytes) {
  return static_cast<Arena *>(ArenaPtr)->allocate(Bytes, 16);
}

extern "C" void rt_out_row(void *Out) {
  static_cast<OutputBuffer *>(Out)->beginRow();
}

extern "C" void rt_out_i64(void *Out, int64_t V) {
  static_cast<OutputBuffer *>(Out)->appendI64(V);
}

extern "C" void rt_out_i128(void *Out, __int128 V) {
  static_cast<OutputBuffer *>(Out)->appendI128(V);
}

extern "C" void rt_out_f64bits(void *Out, uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  static_cast<OutputBuffer *>(Out)->appendF64(D);
}

extern "C" void rt_out_str(void *Out, StringVal S) {
  static_cast<OutputBuffer *>(Out)->appendStr(S);
}

// --- Dates --------------------------------------------------------------------

namespace {

/// Civil-from-days (Howard Hinnant's algorithm, public domain).
void civilFromDays(int64_t Z, int64_t *Y, unsigned *M, unsigned *D) {
  Z += 719468;
  int64_t Era = (Z >= 0 ? Z : Z - 146096) / 146097;
  uint64_t Doe = static_cast<uint64_t>(Z - Era * 146097);
  uint64_t Yoe = (Doe - Doe / 1460 + Doe / 36524 - Doe / 146096) / 365;
  int64_t Yr = static_cast<int64_t>(Yoe) + Era * 400;
  uint64_t Doy = Doe - (365 * Yoe + Yoe / 4 - Yoe / 100);
  uint64_t Mp = (5 * Doy + 2) / 153;
  uint64_t Dy = Doy - (153 * Mp + 2) / 5 + 1;
  uint64_t Mo = Mp < 10 ? Mp + 3 : Mp - 9;
  *Y = Yr + (Mo <= 2);
  *M = static_cast<unsigned>(Mo);
  *D = static_cast<unsigned>(Dy);
}

} // namespace

int64_t qcf::rt::dateYear(int64_t Days) {
  int64_t Y;
  unsigned M, D;
  civilFromDays(Days, &Y, &M, &D);
  return Y;
}

int64_t qcf::rt::dateMonth(int64_t Days) {
  int64_t Y;
  unsigned M, D;
  civilFromDays(Days, &Y, &M, &D);
  return M;
}

int64_t qcf::rt::dateFromYmd(int Year, unsigned Month, unsigned Day) {
  // days_from_civil, same source.
  int64_t Y = Year - (Month <= 2);
  int64_t Era = (Y >= 0 ? Y : Y - 399) / 400;
  uint64_t Yoe = static_cast<uint64_t>(Y - Era * 400);
  uint64_t Doy = (153 * (Month > 2 ? Month - 3 : Month + 9) + 2) / 5 + Day - 1;
  uint64_t Doe = Yoe * 365 + Yoe / 4 - Yoe / 100 + Doy;
  return Era * 146097 + static_cast<int64_t>(Doe) - 719468;
}

extern "C" int64_t rt_date_year(int64_t Days) { return dateYear(Days); }
extern "C" int64_t rt_date_month(int64_t Days) { return dateMonth(Days); }

// --- Sort ---------------------------------------------------------------------

namespace {
struct SortCtx {
  uint64_t ElemSize;
  int64_t (*Cmp)(const void *, const void *);
};
} // namespace

extern "C" void rt_sort(void *Base, uint64_t Count, uint64_t ElemSize,
                        void *Cmp) {
  // Index sort + permute: keeps the comparator a plain two-pointer call,
  // which is the callback-into-generated-code shape the paper describes
  // for sort operators (§III-A).
  if (Count == 0)
    return; // An empty buffer may be null, and memcpy must not see null.
  auto *CmpFn = reinterpret_cast<int64_t (*)(const void *, const void *)>(Cmp);
  char *Bytes = static_cast<char *>(Base);
  std::vector<uint64_t> Index(Count);
  for (uint64_t I = 0; I != Count; ++I)
    Index[I] = I;
  std::stable_sort(Index.begin(), Index.end(), [&](uint64_t A, uint64_t B) {
    return CmpFn(Bytes + A * ElemSize, Bytes + B * ElemSize) < 0;
  });
  std::vector<char> Tmp(Count * ElemSize);
  for (uint64_t I = 0; I != Count; ++I)
    std::memcpy(Tmp.data() + I * ElemSize, Bytes + Index[I] * ElemSize,
                ElemSize);
  std::memcpy(Bytes, Tmp.data(), Count * ElemSize);
}

// --- Checked arithmetic helpers -----------------------------------------------
//
// Back-ends lower trapping and 128-bit QIR arithmetic to these calls; each
// evaluates the QIR opcode it stands for through qir/Semantics.h.

namespace {

template <qir::Opcode Op>
qir::Lanes evalOrTrap(Type Ty, qir::Lanes A, qir::Lanes B) {
  qir::Lanes R;
  TrapCode Code = qir::evalBinary<Op>(Ty, A, B, R);
  if (Code != TrapCode::None)
    rt_trap(static_cast<uint64_t>(Code));
  return R;
}

template <qir::Opcode Op> __int128 eval128(__int128 A, qir::Lanes B) {
  return qir::toI128(evalOrTrap<Op>(Type::I128, qir::fromI128(A), B));
}

template <qir::Opcode Op> uint64_t eval64(Type Ty, uint64_t A, uint64_t B) {
  return evalOrTrap<Op>(Ty, {A, 0}, {B, 0}).Lo;
}

} // namespace

extern "C" __int128 rt_mul128_ovf(__int128 A, __int128 B) {
  return eval128<qir::Opcode::SMulTrap>(A, qir::fromI128(B));
}

extern "C" __int128 rt_sdiv128(__int128 A, __int128 B) {
  return eval128<qir::Opcode::SDiv>(A, qir::fromI128(B));
}

extern "C" __int128 rt_udiv128(__int128 A, __int128 B) {
  return eval128<qir::Opcode::UDiv>(A, qir::fromI128(B));
}

extern "C" __int128 rt_srem128(__int128 A, __int128 B) {
  return eval128<qir::Opcode::SRem>(A, qir::fromI128(B));
}

extern "C" __int128 rt_shl128(__int128 A, uint64_t Amount) {
  return eval128<qir::Opcode::Shl>(A, {Amount, 0});
}

extern "C" __int128 rt_lshr128(__int128 A, uint64_t Amount) {
  return eval128<qir::Opcode::LShr>(A, {Amount, 0});
}

extern "C" __int128 rt_ashr128(__int128 A, uint64_t Amount) {
  return eval128<qir::Opcode::AShr>(A, {Amount, 0});
}

extern "C" uint64_t rt_crc32(uint64_t Seed, uint64_t Value) {
  return crc32u64(Seed, Value);
}

extern "C" uint64_t rt_sadd32_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SAddTrap>(Type::I32, A, B);
}

extern "C" uint64_t rt_ssub32_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SSubTrap>(Type::I32, A, B);
}

extern "C" uint64_t rt_smul32_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SMulTrap>(Type::I32, A, B);
}

extern "C" uint64_t rt_sadd64_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SAddTrap>(Type::I64, A, B);
}

extern "C" uint64_t rt_ssub64_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SSubTrap>(Type::I64, A, B);
}

extern "C" uint64_t rt_smul64_ovf(uint64_t A, uint64_t B) {
  return eval64<qir::Opcode::SMulTrap>(Type::I64, A, B);
}

extern "C" __int128 rt_add128_ovf(__int128 A, __int128 B) {
  return eval128<qir::Opcode::SAddTrap>(A, qir::fromI128(B));
}

extern "C" __int128 rt_sub128_ovf(__int128 A, __int128 B) {
  return eval128<qir::Opcode::SSubTrap>(A, qir::fromI128(B));
}

// --- OutputBuffer --------------------------------------------------------------

void OutputBuffer::appendStr(StringVal S) {
  Cell C{};
  C.Kind = CellKind::Str;
  if (S.isInline()) {
    C.StrV = S;
  } else {
    const char *Copy =
        static_cast<const char *>(Strings.allocate(S.Len, 1));
    std::memcpy(const_cast<char *>(Copy), S.data(), S.Len);
    C.StrV = StringVal::makeRef(Copy, S.Len);
  }
  Cells.push_back(C);
}

const OutputBuffer::Cell *OutputBuffer::row(size_t Row,
                                            size_t *NumCells) const {
  assert(Row < RowStarts.size() && "row index out of range");
  size_t Begin = RowStarts[Row];
  size_t End = Row + 1 < RowStarts.size() ? RowStarts[Row + 1] : Cells.size();
  *NumCells = End - Begin;
  return Cells.data() + Begin;
}

namespace {

void renderCell(std::string &Out, const OutputBuffer::Cell &C) {
  // Fits the longest "%.6f" text of a double: -DBL_MAX is 317 characters.
  char Buf[320];
  switch (C.Kind) {
  case OutputBuffer::CellKind::I64:
    Out.append(Buf, std::to_chars(Buf, std::end(Buf), C.I64V).ptr);
    break;
  case OutputBuffer::CellKind::I128: {
    // Render via repeated division (no 128-bit printf).
    Int128 V = C.I128V;
    bool Neg = V < 0;
    UInt128 U = Neg ? static_cast<UInt128>(-(V + 1)) + 1
                    : static_cast<UInt128>(V);
    char Digits[48];
    int N = 0;
    do {
      Digits[N++] = static_cast<char>('0' + static_cast<int>(U % 10));
      U /= 10;
    } while (U);
    if (Neg)
      Out += '-';
    while (N)
      Out += Digits[--N];
    break;
  }
  case OutputBuffer::CellKind::F64: {
    // The standard defines this as printf("%.6f") text in the "C" locale.
    std::to_chars_result R = std::to_chars(Buf, std::end(Buf), C.F64V,
                                           std::chars_format::fixed, 6);
    assert(R.ec == std::errc() && "F64 text longer than its buffer");
    Out.append(Buf, R.ptr);
    break;
  }
  case OutputBuffer::CellKind::Str:
    Out.append(C.StrV.data(), C.StrV.Len);
    break;
  case OutputBuffer::CellKind::Null:
    Out += "NULL";
    break;
  }
}

} // namespace

std::string OutputBuffer::toText() const {
  std::string Out;
  for (size_t R = 0; R != numRows(); ++R) {
    size_t N;
    const Cell *Row = row(R, &N);
    for (size_t I = 0; I != N; ++I) {
      if (I)
        Out += '|';
      renderCell(Out, Row[I]);
    }
    Out += '\n';
  }
  return Out;
}

uint64_t OutputBuffer::unorderedDigest() const {
  // Sum of per-row hashes: commutative, so row order does not matter.
  uint64_t Sum = 0;
  std::string Repr; // One buffer for every row.
  for (size_t R = 0; R != numRows(); ++R) {
    size_t N;
    const Cell *Row = row(R, &N);
    Repr.clear();
    for (size_t I = 0; I != N; ++I) {
      renderCell(Repr, Row[I]);
      Repr += '|';
    }
    Sum += hashBytes(Repr.data(), Repr.size());
  }
  return Sum ^ (numRows() * 0x9e3779b97f4a7c15ull);
}

bool OutputBuffer::equals(const OutputBuffer &Other) const {
  if (numRows() != Other.numRows() || Cells.size() != Other.Cells.size())
    return false;
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Cell &A = Cells[I];
    const Cell &B = Other.Cells[I];
    if (A.Kind != B.Kind)
      return false;
    switch (A.Kind) {
    case CellKind::I64:
      if (A.I64V != B.I64V)
        return false;
      break;
    case CellKind::I128:
      if (A.I128V != B.I128V)
        return false;
      break;
    case CellKind::F64: {
      double Diff = A.F64V - B.F64V;
      double Mag = __builtin_fabs(A.F64V) + __builtin_fabs(B.F64V) + 1e-30;
      if (__builtin_fabs(Diff) / Mag > 1e-9)
        return false;
      break;
    }
    case CellKind::Str:
      if (!stringEq(A.StrV, B.StrV))
        return false;
      break;
    case CellKind::Null:
      break;
    }
  }
  return true;
}

// --- Symbol registry -----------------------------------------------------------

namespace {

struct SymbolEntry {
  const char *Name;
  void *Address;
};

const SymbolEntry SymbolTable[] = {
    {"rt_trap", reinterpret_cast<void *>(&rt_trap)},
    {"rt_str_eq", reinterpret_cast<void *>(&rt_str_eq)},
    {"rt_str_cmp", reinterpret_cast<void *>(&rt_str_cmp)},
    {"rt_str_contains", reinterpret_cast<void *>(&rt_str_contains)},
    {"rt_str_prefix", reinterpret_cast<void *>(&rt_str_prefix)},
    {"rt_str_hash", reinterpret_cast<void *>(&rt_str_hash)},
    {"rt_str_like", reinterpret_cast<void *>(&rt_str_like)},
    {"rt_str_concat", reinterpret_cast<void *>(&rt_str_concat)},
    {"rt_str_substr", reinterpret_cast<void *>(&rt_str_substr)},
    {"rt_ht_insert", reinterpret_cast<void *>(&rt_ht_insert)},
    {"rt_ht_insert_atomic", reinterpret_cast<void *>(&rt_ht_insert_atomic)},
    {"rt_ht_lookup", reinterpret_cast<void *>(&rt_ht_lookup)},
    {"rt_ht_next", reinterpret_cast<void *>(&rt_ht_next)},
    {"rt_ht_count", reinterpret_cast<void *>(&rt_ht_count)},
    {"rt_ht_entry", reinterpret_cast<void *>(&rt_ht_entry)},
    {"rt_arena_alloc", reinterpret_cast<void *>(&rt_arena_alloc)},
    {"rt_out_row", reinterpret_cast<void *>(&rt_out_row)},
    {"rt_out_i64", reinterpret_cast<void *>(&rt_out_i64)},
    {"rt_out_i128", reinterpret_cast<void *>(&rt_out_i128)},
    {"rt_out_f64bits", reinterpret_cast<void *>(&rt_out_f64bits)},
    {"rt_out_str", reinterpret_cast<void *>(&rt_out_str)},
    {"rt_date_year", reinterpret_cast<void *>(&rt_date_year)},
    {"rt_date_month", reinterpret_cast<void *>(&rt_date_month)},
    {"rt_sort", reinterpret_cast<void *>(&rt_sort)},
    {"rt_mul128_ovf", reinterpret_cast<void *>(&rt_mul128_ovf)},
    {"rt_sdiv128", reinterpret_cast<void *>(&rt_sdiv128)},
    {"rt_udiv128", reinterpret_cast<void *>(&rt_udiv128)},
    {"rt_srem128", reinterpret_cast<void *>(&rt_srem128)},
    {"rt_shl128", reinterpret_cast<void *>(&rt_shl128)},
    {"rt_lshr128", reinterpret_cast<void *>(&rt_lshr128)},
    {"rt_ashr128", reinterpret_cast<void *>(&rt_ashr128)},
    {"rt_crc32", reinterpret_cast<void *>(&rt_crc32)},
    {"rt_sadd32_ovf", reinterpret_cast<void *>(&rt_sadd32_ovf)},
    {"rt_ssub32_ovf", reinterpret_cast<void *>(&rt_ssub32_ovf)},
    {"rt_smul32_ovf", reinterpret_cast<void *>(&rt_smul32_ovf)},
    {"rt_sadd64_ovf", reinterpret_cast<void *>(&rt_sadd64_ovf)},
    {"rt_ssub64_ovf", reinterpret_cast<void *>(&rt_ssub64_ovf)},
    {"rt_smul64_ovf", reinterpret_cast<void *>(&rt_smul64_ovf)},
    {"rt_add128_ovf", reinterpret_cast<void *>(&rt_add128_ovf)},
    {"rt_sub128_ovf", reinterpret_cast<void *>(&rt_sub128_ovf)},
};

} // namespace

void *qcf::rt::runtimeSymbolAddress(const std::string &Name) {
  // Built once, read forever: warm-restart installs patch every recorded
  // call site through this lookup, so it must be O(1), not a table scan.
  static const std::unordered_map<std::string_view, void *> Index = [] {
    std::unordered_map<std::string_view, void *> M;
    for (const SymbolEntry &E : SymbolTable)
      M.emplace(E.Name, E.Address);
    return M;
  }();
  auto It = Index.find(Name);
  return It == Index.end() ? nullptr : It->second;
}

const char *qcf::rt::runtimeSymbolName(const void *Address) {
  for (const SymbolEntry &E : SymbolTable)
    if (Address == E.Address)
      return E.Name;
  return nullptr;
}

RuntimeSyms qcf::rt::declareRuntime(qir::Module &M) {
  auto Declare = [&](const char *Name, Type Ret,
                     std::vector<Type> Params) -> qir::SymbolId {
    void *Addr = runtimeSymbolAddress(Name);
    assert(Addr && "runtime symbol missing from table");
    return M.declareRuntime(Name, Ret, std::move(Params), Addr);
  };

  RuntimeSyms S;
  S.Trap = Declare("rt_trap", Type::Void, {Type::I64});
  S.StrEq = Declare("rt_str_eq", Type::I64, {Type::D128, Type::D128});
  S.StrCmp = Declare("rt_str_cmp", Type::I64, {Type::D128, Type::D128});
  S.StrContains =
      Declare("rt_str_contains", Type::I64, {Type::D128, Type::D128});
  S.StrPrefix = Declare("rt_str_prefix", Type::I64, {Type::D128, Type::D128});
  S.StrHash = Declare("rt_str_hash", Type::I64, {Type::D128});
  S.StrLike = Declare("rt_str_like", Type::I64, {Type::D128, Type::D128});
  S.StrConcat = Declare("rt_str_concat", Type::D128,
                        {Type::Ptr, Type::D128, Type::D128});
  S.StrSubstr = Declare("rt_str_substr", Type::D128,
                        {Type::Ptr, Type::D128, Type::I64, Type::I64});
  S.HtInsert = Declare("rt_ht_insert", Type::Ptr, {Type::Ptr, Type::I64});
  S.HtInsertAtomic =
      Declare("rt_ht_insert_atomic", Type::Ptr, {Type::Ptr, Type::I64});
  S.HtLookup = Declare("rt_ht_lookup", Type::Ptr, {Type::Ptr, Type::I64});
  S.HtNext = Declare("rt_ht_next", Type::Ptr, {Type::Ptr, Type::I64});
  S.HtCount = Declare("rt_ht_count", Type::I64, {Type::Ptr});
  S.HtEntry = Declare("rt_ht_entry", Type::Ptr, {Type::Ptr, Type::I64});
  S.ArenaAlloc = Declare("rt_arena_alloc", Type::Ptr, {Type::Ptr, Type::I64});
  S.OutRow = Declare("rt_out_row", Type::Void, {Type::Ptr});
  S.OutI64 = Declare("rt_out_i64", Type::Void, {Type::Ptr, Type::I64});
  S.OutI128 = Declare("rt_out_i128", Type::Void, {Type::Ptr, Type::I128});
  S.OutF64Bits =
      Declare("rt_out_f64bits", Type::Void, {Type::Ptr, Type::I64});
  S.OutStr = Declare("rt_out_str", Type::Void, {Type::Ptr, Type::D128});
  S.DateYear = Declare("rt_date_year", Type::I64, {Type::I64});
  S.DateMonth = Declare("rt_date_month", Type::I64, {Type::I64});
  S.Sort = Declare("rt_sort", Type::Void,
                   {Type::Ptr, Type::I64, Type::I64, Type::Ptr});
  S.Mul128Ovf = Declare("rt_mul128_ovf", Type::I128, {Type::I128, Type::I128});
  return S;
}
