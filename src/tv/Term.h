//===- tv/Term.h - Hash-consed bitvector terms ------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic layer of the translation validator: a hash-consed arena of
/// bitvector terms with constant folding at construction time and a bounded
/// known-bits / unsigned-range abstract domain computed bottom-up. No
/// external SMT dependency — terms exist so a mismatch report can show *how*
/// each side computed the differing value (the term diff), and so tests can
/// query the abstract domain; the equivalence check itself is driven by the
/// concrete co-simulation in Check.cpp.
///
/// Leaves are Const, Param (function argument lane), CallRet (lane of the
/// result of the N-th uninterpreted runtime call) and OracleLoad (a read of
/// unwritten global memory, which both sides model with the same
/// deterministic oracle). Every node carries its result width in bits; all
/// values are kept masked to that width. Constant operands fold through
/// qir/Semantics.h, the definition the interpreter evaluates by.
///
/// The arena is capped (QCF_TV_MAX_TERMS): once saturated, constructors
/// return NO_TERM and reports degrade to concrete witnesses only. NO_TERM
/// propagates through operands, so saturation can never produce a wrong
/// term, only a missing one.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TV_TERM_H
#define QCF_TV_TERM_H

#include "qir/Opcode.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace qcf::tv {

using TermRef = uint32_t;
inline constexpr TermRef NO_TERM = 0xffffffffu;

enum class TermOp : uint8_t {
  // Leaves.
  Const,      ///< Imm = value (masked to Bits).
  Param,      ///< Imm = flattened argument slot index.
  CallRet,    ///< Imm = (CallIdx << 1) | Lane.
  OracleLoad, ///< Imm = byte address; Bits = load width.
  // Integer arithmetic (two operands unless noted).
  Add, Sub, Mul, UDiv, SDiv, SRem,
  And, Or, Xor, Shl, LShr, AShr, RotR,
  Not, Neg, ///< One operand.
  // Comparisons (result Bits == 1).
  CmpEq, CmpNe, CmpSLt, CmpSLe, CmpSGt, CmpSGe,
  CmpULt, CmpULe, CmpUGt, CmpUGe,
  // Width changes: A is the source; Bits is the destination width.
  ZExt, SExt, Trunc,
  Select, ///< A = condition, B = true value, C = false value.
  // Hash/fold helpers mirroring support/Hash.h.
  Crc32, LMulFold,
  // IEEE double ops on 64-bit payloads (bits of a double).
  FAdd, FSub, FMul, FDiv, FNeg,
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe, ///< Result Bits == 1.
  SIToFP, FPToSI,
};

const char *termOpName(TermOp Op);

/// The QIR opcode term operator \p Op stands for and, for a compare, its
/// predicate; the folder evaluates through qir/Semantics.h with them.
/// \returns false for the leaves and Select.
bool termOpSemantics(TermOp Op, qir::Opcode &QOp, qir::CmpPred &Pred);

/// The term operator recording QIR opcode \p Op (with predicate \p Pred
/// for a compare). Trapping arithmetic records its wrapping form: the
/// trap is an event, not part of the value. \returns false for opcodes
/// without one.
bool termOpFor(qir::Opcode Op, qir::CmpPred Pred, TermOp &Out);

struct TermNode {
  TermOp Op;
  uint8_t Bits; ///< Result width in bits: 1, 8, 16, 32 or 64.
  TermRef A = NO_TERM;
  TermRef B = NO_TERM;
  TermRef C = NO_TERM;
  uint64_t Imm = 0;
};

/// Known-bits plus unsigned range for one term, computed bottom-up.
/// Invariants: (Zero & One) == 0; bits above the width are in Zero;
/// Lo <= Hi; every concrete value V of the term satisfies
/// (V & Zero) == 0, (V & One) == One and Lo <= V <= Hi.
struct KnownBits {
  uint64_t Zero = 0; ///< Mask of bits known to be 0.
  uint64_t One = 0;  ///< Mask of bits known to be 1.
  uint64_t Lo = 0;   ///< Unsigned lower bound.
  uint64_t Hi = ~0ull; ///< Unsigned upper bound.

  bool isConst() const { return (Zero | One) == ~0ull; }
  uint64_t constVal() const { return One; }
};

class TermArena {
public:
  explicit TermArena(size_t MaxTerms) : MaxTerms(MaxTerms) {}

  TermRef constant(uint64_t V, unsigned Bits = 64);
  TermRef param(unsigned SlotIdx);
  TermRef callRet(unsigned CallIdx, unsigned Lane);
  TermRef oracleLoad(uint64_t Addr, unsigned Bits);
  /// Not/Neg/FNeg/SIToFP/FPToSI and the width changes ZExt/SExt/Trunc
  /// (Bits = destination width).
  TermRef unary(TermOp Op, TermRef A, unsigned Bits);
  TermRef binary(TermOp Op, TermRef A, TermRef B, unsigned Bits);
  TermRef select(TermRef Cond, TermRef TrueV, TermRef FalseV, unsigned Bits);

  size_t size() const { return Nodes.size(); }
  bool saturated() const { return Saturated; }

  /// Null for NO_TERM or out-of-range refs.
  const TermNode *node(TermRef R) const {
    return R < Nodes.size() ? &Nodes[R] : nullptr;
  }

  /// Bottom-up abstract value; memoized. Top-of-width for NO_TERM.
  KnownBits known(TermRef R) const;

  /// Human-readable rendering, depth-bounded. "?" for NO_TERM.
  std::string str(TermRef R) const;

private:
  TermRef intern(const TermNode &N);

  size_t MaxTerms;
  bool Saturated = false;
  std::vector<TermNode> Nodes;
  std::unordered_map<uint64_t, std::vector<TermRef>> Buckets;
  mutable std::vector<KnownBits> KnownCache;
  mutable std::vector<uint8_t> KnownValid;
};

} // namespace qcf::tv

#endif // QCF_TV_TERM_H
