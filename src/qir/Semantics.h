//===- qir/Semantics.h - The definition of QIR scalar semantics -*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every scalar QIR opcode computes, written down once. The reference
/// evaluators — the interpreter, translation validation's QIR stepper and
/// term folder, and the MLVM-IR evaluator — and the runtime's checked
/// arithmetic helpers all evaluate through these functions. Back-ends'
/// code generation is not derived from them: it is tested against them.
///
/// Values are canonical: integers narrower than 64 bits live zero-extended
/// in the low lane (see typeMask/sext in qir/Type.h), i128 and d128 use
/// both lanes, f64 is its IEEE bit pattern in the low lane, and the high
/// lane of every one-lane value is zero. Every function expects canonical
/// operands and returns a canonical result.
///
/// The edge cases, per the paper's SQL semantics (§III-A):
///  - add/sub/mul/neg wrap at the type width; saddtrap/ssubtrap/smultrap
///    trap Overflow when the exact result does not fit (i32, i64, i128).
///  - sdiv, udiv and srem trap DivByZero on a zero divisor; sdiv INT_MIN,
///    -1 traps Overflow; srem x, -1 is 0 for every x.
///  - Shift and rotate amounts are masked to width - 1 (QIR leaves larger
///    amounts undefined, so this is just the value chosen here); rotr by
///    0 is the identity.
///  - icmp on i1 compares the values as unsigned 0/1 whatever the
///    predicate's signedness.
///  - fptosi follows x86 cvttsd2si: NaN and values outside [-2^63, 2^63)
///    give INT64_MIN, which is then truncated to the destination width.
///  - fadd/fsub/fmul/fdiv follow x86 SSE on NaN operands: a NaN first
///    operand is the result, quieted; otherwise a NaN second operand is.
///    Spelled out, because a host compiler may commute the C++ operation.
///
/// Trapping evaluations return the rt::TrapCode instead of trapping, so
/// each caller keeps its own trap mechanism. The per-opcode entries are
/// templates on a constant opcode for the interpreter's dispatch loop;
/// evalScalar is the one run-time-opcode wrapper for everything else.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_SEMANTICS_H
#define QCF_QIR_SEMANTICS_H

#include "qir/Opcode.h"
#include "qir/Type.h"
#include "runtime/Trap.h"
#include "support/Hash.h"
#include "support/Int128.h"
#include <cstring>

namespace qcf::qir {

/// A scalar value as its two 64-bit lanes.
struct Lanes {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
};

inline Int128 toI128(Lanes V) { return makeInt128(V.Lo, V.Hi); }
inline UInt128 toU128(Lanes V) { return static_cast<UInt128>(toI128(V)); }
inline Lanes fromI128(Int128 V) { return {lo64(V), hi64(V)}; }
inline Lanes fromU128(UInt128 V) { return fromI128(static_cast<Int128>(V)); }

inline double toF64(Lanes V) {
  double D;
  std::memcpy(&D, &V.Lo, sizeof(D));
  return D;
}

inline Lanes fromF64(double D) {
  Lanes V;
  std::memcpy(&V.Lo, &D, sizeof(D));
  return V;
}

/// x86 SSE arithmetic on \p A and \p B: a NaN operand is the result,
/// quieted, the first operand's winning when both are NaN.
template <typename OpFn> inline Lanes fbinary(Lanes A, Lanes B, OpFn Op) {
  constexpr uint64_t QuietBit = uint64_t(1) << 51;
  double X = toF64(A), Y = toF64(B);
  if (X != X)
    return {A.Lo | QuietBit, 0};
  if (Y != Y)
    return {B.Lo | QuietBit, 0};
  return fromF64(Op(X, Y));
}

/// x86 cvttsd2si: NaN and values outside [-2^63, 2^63) give INT64_MIN.
inline int64_t fptosi(double D) {
  if (!(D >= -9.2233720368547758e18 && D < 9.2233720368547758e18))
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

/// icmp \p P on operands of type \p OpTy.
inline bool icmp(CmpPred P, Type OpTy, Lanes A, Lanes B) {
  if (OpTy == Type::I128) {
    Int128 X = toI128(A), Y = toI128(B);
    UInt128 UX = toU128(A), UY = toU128(B);
    switch (P) {
    case CmpPred::Eq:
      return X == Y;
    case CmpPred::Ne:
      return X != Y;
    case CmpPred::SLt:
      return X < Y;
    case CmpPred::SLe:
      return X <= Y;
    case CmpPred::SGt:
      return X > Y;
    case CmpPred::SGe:
      return X >= Y;
    case CmpPred::ULt:
      return UX < UY;
    case CmpPred::ULe:
      return UX <= UY;
    case CmpPred::UGt:
      return UX > UY;
    case CmpPred::UGe:
      return UX >= UY;
    }
    QCF_UNREACHABLE("invalid predicate");
  }
  // i1 values compare as unsigned 0/1 regardless of predicate signedness.
  int64_t SX = OpTy == Type::I1 ? static_cast<int64_t>(A.Lo & 1)
                                : sext(A.Lo, OpTy);
  int64_t SY = OpTy == Type::I1 ? static_cast<int64_t>(B.Lo & 1)
                                : sext(B.Lo, OpTy);
  uint64_t UX = A.Lo, UY = B.Lo;
  switch (P) {
  case CmpPred::Eq:
    return UX == UY;
  case CmpPred::Ne:
    return UX != UY;
  case CmpPred::SLt:
    return SX < SY;
  case CmpPred::SLe:
    return SX <= SY;
  case CmpPred::SGt:
    return SX > SY;
  case CmpPred::SGe:
    return SX >= SY;
  case CmpPred::ULt:
    return UX < UY;
  case CmpPred::ULe:
    return UX <= UY;
  case CmpPred::UGt:
    return UX > UY;
  case CmpPred::UGe:
    return UX >= UY;
  }
  QCF_UNREACHABLE("invalid predicate");
}

/// fcmp \p P; signed and unsigned predicates mean the same ordered compare.
inline bool fcmp(CmpPred P, double A, double B) {
  switch (P) {
  case CmpPred::Eq:
    return A == B;
  case CmpPred::Ne:
    return A != B;
  case CmpPred::SLt:
  case CmpPred::ULt:
    return A < B;
  case CmpPred::SLe:
  case CmpPred::ULe:
    return A <= B;
  case CmpPred::SGt:
  case CmpPred::UGt:
    return A > B;
  case CmpPred::SGe:
  case CmpPred::UGe:
    return A >= B;
  }
  QCF_UNREACHABLE("invalid predicate");
}

namespace detail {

/// Exact signed add/sub/mul of \p X and \p Y into \p R; true on overflow.
template <Opcode Op, typename T>
QCF_ALWAYS_INLINE bool overflows(T X, T Y, T *R) {
  if constexpr (sizeof(T) == 16) {
    if constexpr (Op == Opcode::SAddTrap)
      return addOverflow128(X, Y, R);
    else if constexpr (Op == Opcode::SSubTrap)
      return subOverflow128(X, Y, R);
    else
      return mulOverflow128(X, Y, R);
  } else if constexpr (Op == Opcode::SAddTrap) {
    return __builtin_add_overflow(X, Y, R);
  } else if constexpr (Op == Opcode::SSubTrap) {
    return __builtin_sub_overflow(X, Y, R);
  } else {
    return __builtin_mul_overflow(X, Y, R);
  }
}

} // namespace detail

// X-macro lists of the scalar opcodes, by evaluation entry.
#define QIR_SCALAR_BINARY_OPS(X)                                              \
  X(Add) X(Sub) X(Mul) X(SDiv) X(UDiv) X(SRem) X(And) X(Or) X(Xor) X(Shl)     \
  X(LShr) X(AShr) X(RotR) X(SAddTrap) X(SSubTrap) X(SMulTrap) X(Crc32)        \
  X(LongMulFold) X(FAdd) X(FSub) X(FMul) X(FDiv) X(PackD128) X(PackI128)
#define QIR_SCALAR_UNARY_OPS(X)                                               \
  X(Neg) X(Not) X(FNeg) X(ZExt) X(SExt) X(Trunc) X(SIToFP) X(FPToSI)          \
  X(Bitcast) X(ExtractLo) X(ExtractHi)

/// Evaluates two-operand opcode \p Op at result type \p Ty into \p Out.
/// \returns the trap the operation raises (\p Out is then untouched), or
/// TrapCode::None.
template <Opcode Op>
QCF_ALWAYS_INLINE rt::TrapCode evalBinary(Type Ty, Lanes A, Lanes B,
                                          Lanes &Out) {
  using rt::TrapCode;
  const bool Wide = Ty == Type::I128;
  if constexpr (Op == Opcode::Add || Op == Opcode::Sub ||
                Op == Opcode::Mul) {
    auto Apply = [](auto X, auto Y) {
      return Op == Opcode::Add ? X + Y : Op == Opcode::Sub ? X - Y : X * Y;
    };
    Out = Wide ? fromU128(Apply(toU128(A), toU128(B)))
               : Lanes{Apply(A.Lo, B.Lo) & typeMask(Ty), 0};
  } else if constexpr (Op == Opcode::SDiv || Op == Opcode::SRem) {
    if (Wide) {
      Int128 X = toI128(A), Y = toI128(B), Q;
      if (Y == 0)
        return TrapCode::DivByZero;
      if constexpr (Op == Opcode::SRem)
        Out = fromI128(Y == -1 ? 0 : X % Y);
      else if (divOverflow128(X, Y, &Q))
        return TrapCode::Overflow;
      else
        Out = fromI128(Q);
    } else {
      int64_t X = sext(A.Lo, Ty), Y = sext(B.Lo, Ty);
      if (Y == 0)
        return TrapCode::DivByZero;
      if constexpr (Op == Opcode::SRem)
        Out = {Y == -1 ? 0 : static_cast<uint64_t>(X % Y) & typeMask(Ty), 0};
      else if (Y == -1 && X == sext(1ull << (intBits(Ty) - 1), Ty))
        return TrapCode::Overflow;
      else
        Out = {static_cast<uint64_t>(X / Y) & typeMask(Ty), 0};
    }
  } else if constexpr (Op == Opcode::UDiv) {
    if (Wide) {
      if (toU128(B) == 0)
        return TrapCode::DivByZero;
      Out = fromU128(toU128(A) / toU128(B));
    } else {
      if (B.Lo == 0)
        return TrapCode::DivByZero;
      Out = {A.Lo / B.Lo, 0};
    }
  } else if constexpr (Op == Opcode::And) {
    Out = {A.Lo & B.Lo, A.Hi & B.Hi};
  } else if constexpr (Op == Opcode::Or) {
    Out = {A.Lo | B.Lo, A.Hi | B.Hi};
  } else if constexpr (Op == Opcode::Xor) {
    Out = {A.Lo ^ B.Lo, A.Hi ^ B.Hi};
  } else if constexpr (Op == Opcode::Shl || Op == Opcode::LShr ||
                       Op == Opcode::AShr || Op == Opcode::RotR) {
    unsigned W = Wide ? 128 : intBits(Ty);
    unsigned S = static_cast<unsigned>(B.Lo) & (W - 1);
    if (Wide) {
      UInt128 X = toU128(A);
      if constexpr (Op == Opcode::Shl)
        Out = fromU128(X << S);
      else if constexpr (Op == Opcode::LShr)
        Out = fromU128(X >> S);
      else if constexpr (Op == Opcode::AShr)
        Out = fromI128(toI128(A) >> S);
      else
        Out = fromU128(S == 0 ? X : (X >> S) | (X << (W - S)));
    } else {
      uint64_t M = typeMask(Ty), X = A.Lo;
      if constexpr (Op == Opcode::Shl)
        Out = {(X << S) & M, 0};
      else if constexpr (Op == Opcode::LShr)
        Out = {X >> S, 0};
      else if constexpr (Op == Opcode::AShr)
        Out = {static_cast<uint64_t>(sext(X, Ty) >> S) & M, 0};
      else
        Out = {S == 0 ? X : ((X >> S) | (X << (W - S))) & M, 0};
    }
  } else if constexpr (Op == Opcode::SAddTrap || Op == Opcode::SSubTrap ||
                       Op == Opcode::SMulTrap) {
    if (Wide) {
      Int128 R;
      if (detail::overflows<Op>(toI128(A), toI128(B), &R))
        return TrapCode::Overflow;
      Out = fromI128(R);
    } else if (Ty == Type::I32) {
      int32_t R;
      if (detail::overflows<Op>(static_cast<int32_t>(A.Lo),
                                static_cast<int32_t>(B.Lo), &R))
        return TrapCode::Overflow;
      Out = {static_cast<uint32_t>(R), 0};
    } else {
      int64_t R;
      if (detail::overflows<Op>(sext(A.Lo, Ty), sext(B.Lo, Ty), &R))
        return TrapCode::Overflow;
      Out = {static_cast<uint64_t>(R) & typeMask(Ty), 0};
    }
  } else if constexpr (Op == Opcode::Crc32) {
    Out = {crc32u64(A.Lo, B.Lo), 0};
  } else if constexpr (Op == Opcode::LongMulFold) {
    Out = {longMulFold(A.Lo, B.Lo), 0};
  } else if constexpr (Op == Opcode::FAdd) {
    Out = fbinary(A, B, [](double X, double Y) { return X + Y; });
  } else if constexpr (Op == Opcode::FSub) {
    Out = fbinary(A, B, [](double X, double Y) { return X - Y; });
  } else if constexpr (Op == Opcode::FMul) {
    Out = fbinary(A, B, [](double X, double Y) { return X * Y; });
  } else if constexpr (Op == Opcode::FDiv) {
    Out = fbinary(A, B, [](double X, double Y) { return X / Y; });
  } else {
    static_assert(Op == Opcode::PackD128 || Op == Opcode::PackI128,
                  "not a two-operand scalar opcode");
    Out = {A.Lo, B.Lo};
  }
  return rt::TrapCode::None;
}

/// Evaluates one-operand opcode \p Op from operand type \p SrcTy to result
/// type \p Ty. None of these trap.
template <Opcode Op>
QCF_ALWAYS_INLINE Lanes evalUnary(Type Ty, Type SrcTy, Lanes A) {
  if constexpr (Op == Opcode::Neg) {
    if (Ty == Type::I128)
      return fromU128(0 - toU128(A));
    return {(0 - A.Lo) & typeMask(Ty), 0};
  } else if constexpr (Op == Opcode::Not) {
    return {~A.Lo & typeMask(Ty), Ty == Type::I128 ? ~A.Hi : 0};
  } else if constexpr (Op == Opcode::FNeg) {
    return fromF64(-toF64(A));
  } else if constexpr (Op == Opcode::SExt) {
    int64_t V = sext(A.Lo, SrcTy);
    if (Ty == Type::I128)
      return fromI128(V);
    return {static_cast<uint64_t>(V) & typeMask(Ty), 0};
  } else if constexpr (Op == Opcode::Trunc) {
    return {A.Lo & typeMask(Ty), 0};
  } else if constexpr (Op == Opcode::SIToFP) {
    return fromF64(SrcTy == Type::I128
                       ? static_cast<double>(toI128(A))
                       : static_cast<double>(sext(A.Lo, SrcTy)));
  } else if constexpr (Op == Opcode::FPToSI) {
    return {static_cast<uint64_t>(fptosi(toF64(A))) & typeMask(Ty), 0};
  } else if constexpr (Op == Opcode::ExtractHi) {
    return {A.Hi, 0};
  } else {
    // zext keeps the canonical low lane; bitcast and extract.lo move it.
    static_assert(Op == Opcode::ZExt || Op == Opcode::Bitcast ||
                      Op == Opcode::ExtractLo,
                  "not a one-operand scalar opcode");
    return {A.Lo, 0};
  }
}

/// Evaluates scalar opcode \p Op chosen at run time. \p SrcTy is the type
/// of operand A (read by sext, sitofp, icmp), \p Pred the predicate of a
/// compare; \p B is ignored by one-operand opcodes. \returns as
/// evalBinary. \pre \p Op is in one of the lists above, or icmp/fcmp.
inline rt::TrapCode evalScalar(Opcode Op, Type Ty, Type SrcTy, CmpPred Pred,
                               Lanes A, Lanes B, Lanes &Out) {
  switch (Op) {
#define QIR_SCALAR_CASE(OP)                                                   \
  case Opcode::OP:                                                            \
    return evalBinary<Opcode::OP>(Ty, A, B, Out);
    QIR_SCALAR_BINARY_OPS(QIR_SCALAR_CASE)
#undef QIR_SCALAR_CASE
#define QIR_SCALAR_CASE(OP)                                                   \
  case Opcode::OP:                                                            \
    Out = evalUnary<Opcode::OP>(Ty, SrcTy, A);                                \
    return rt::TrapCode::None;
    QIR_SCALAR_UNARY_OPS(QIR_SCALAR_CASE)
#undef QIR_SCALAR_CASE
  case Opcode::ICmp:
    Out = {icmp(Pred, SrcTy, A, B), 0};
    return rt::TrapCode::None;
  case Opcode::FCmp:
    Out = {fcmp(Pred, toF64(A), toF64(B)), 0};
    return rt::TrapCode::None;
  default:
    QCF_UNREACHABLE("not a scalar opcode");
  }
}

} // namespace qcf::qir

#endif // QCF_QIR_SEMANTICS_H
