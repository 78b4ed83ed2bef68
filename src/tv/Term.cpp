//===- tv/Term.cpp - Hash-consed bitvector terms ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "tv/Term.h"
#include "qir/Semantics.h"
#include <algorithm>

using namespace qcf;
using namespace qcf::tv;

namespace {

uint64_t maskBits(unsigned Bits) {
  return Bits >= 64 ? ~0ull : (1ull << Bits) - 1;
}

struct TermOpDef {
  TermOp T;
  qir::Opcode Op;
  qir::CmpPred Pred = qir::CmpPred::Eq;
};

// Lookups take the first match, so each operator's own opcode precedes
// the opcodes recorded as it: fcmp's unsigned predicates (the same ordered
// compares) and the trapping arithmetic.
constexpr TermOpDef TermOpDefs[] = {
    {TermOp::Add, qir::Opcode::Add},
    {TermOp::Sub, qir::Opcode::Sub},
    {TermOp::Mul, qir::Opcode::Mul},
    {TermOp::UDiv, qir::Opcode::UDiv},
    {TermOp::SDiv, qir::Opcode::SDiv},
    {TermOp::SRem, qir::Opcode::SRem},
    {TermOp::And, qir::Opcode::And},
    {TermOp::Or, qir::Opcode::Or},
    {TermOp::Xor, qir::Opcode::Xor},
    {TermOp::Shl, qir::Opcode::Shl},
    {TermOp::LShr, qir::Opcode::LShr},
    {TermOp::AShr, qir::Opcode::AShr},
    {TermOp::RotR, qir::Opcode::RotR},
    {TermOp::Not, qir::Opcode::Not},
    {TermOp::Neg, qir::Opcode::Neg},
    {TermOp::CmpEq, qir::Opcode::ICmp, qir::CmpPred::Eq},
    {TermOp::CmpNe, qir::Opcode::ICmp, qir::CmpPred::Ne},
    {TermOp::CmpSLt, qir::Opcode::ICmp, qir::CmpPred::SLt},
    {TermOp::CmpSLe, qir::Opcode::ICmp, qir::CmpPred::SLe},
    {TermOp::CmpSGt, qir::Opcode::ICmp, qir::CmpPred::SGt},
    {TermOp::CmpSGe, qir::Opcode::ICmp, qir::CmpPred::SGe},
    {TermOp::CmpULt, qir::Opcode::ICmp, qir::CmpPred::ULt},
    {TermOp::CmpULe, qir::Opcode::ICmp, qir::CmpPred::ULe},
    {TermOp::CmpUGt, qir::Opcode::ICmp, qir::CmpPred::UGt},
    {TermOp::CmpUGe, qir::Opcode::ICmp, qir::CmpPred::UGe},
    {TermOp::ZExt, qir::Opcode::ZExt},
    {TermOp::SExt, qir::Opcode::SExt},
    {TermOp::Trunc, qir::Opcode::Trunc},
    {TermOp::Crc32, qir::Opcode::Crc32},
    {TermOp::LMulFold, qir::Opcode::LongMulFold},
    {TermOp::FAdd, qir::Opcode::FAdd},
    {TermOp::FSub, qir::Opcode::FSub},
    {TermOp::FMul, qir::Opcode::FMul},
    {TermOp::FDiv, qir::Opcode::FDiv},
    {TermOp::FNeg, qir::Opcode::FNeg},
    {TermOp::FCmpEq, qir::Opcode::FCmp, qir::CmpPred::Eq},
    {TermOp::FCmpNe, qir::Opcode::FCmp, qir::CmpPred::Ne},
    {TermOp::FCmpLt, qir::Opcode::FCmp, qir::CmpPred::SLt},
    {TermOp::FCmpLe, qir::Opcode::FCmp, qir::CmpPred::SLe},
    {TermOp::FCmpGt, qir::Opcode::FCmp, qir::CmpPred::SGt},
    {TermOp::FCmpGe, qir::Opcode::FCmp, qir::CmpPred::SGe},
    {TermOp::SIToFP, qir::Opcode::SIToFP},
    {TermOp::FPToSI, qir::Opcode::FPToSI},
    // Recorded as operators listed above.
    {TermOp::FCmpLt, qir::Opcode::FCmp, qir::CmpPred::ULt},
    {TermOp::FCmpLe, qir::Opcode::FCmp, qir::CmpPred::ULe},
    {TermOp::FCmpGt, qir::Opcode::FCmp, qir::CmpPred::UGt},
    {TermOp::FCmpGe, qir::Opcode::FCmp, qir::CmpPred::UGe},
    {TermOp::Add, qir::Opcode::SAddTrap},
    {TermOp::Sub, qir::Opcode::SSubTrap},
    {TermOp::Mul, qir::Opcode::SMulTrap},
};

/// The integer type of a term width; false for widths QIR has none for.
bool typeOfBits(unsigned Bits, qir::Type &Ty) {
  switch (Bits) {
  case 1:
    Ty = qir::Type::I1;
    return true;
  case 8:
    Ty = qir::Type::I8;
    return true;
  case 16:
    Ty = qir::Type::I16;
    return true;
  case 32:
    Ty = qir::Type::I32;
    return true;
  case 64:
    Ty = qir::Type::I64;
    return true;
  default:
    return false;
  }
}

/// Folds \p Op over constant operands through qir/Semantics.h: \p A has
/// width \p SrcBits, \p B and the result width \p Bits (a compare's
/// operand width). An operation that would trap is not folded.
bool fold(TermOp Op, uint64_t A, uint64_t B, unsigned SrcBits, unsigned Bits,
          uint64_t &Out) {
  qir::Opcode QOp;
  qir::CmpPred Pred;
  qir::Type Ty, SrcTy;
  if (!termOpSemantics(Op, QOp, Pred) || !typeOfBits(Bits, Ty) ||
      !typeOfBits(SrcBits, SrcTy))
    return false;
  qir::Lanes R;
  if (qir::evalScalar(QOp, Ty, SrcTy, Pred, {A & qir::typeMask(SrcTy), 0},
                      {B & qir::typeMask(Ty), 0},
                      R) != rt::TrapCode::None)
    return false;
  Out = R.Lo;
  return true;
}

uint64_t hashNode(const TermNode &N) {
  uint64_t H = hashU64(static_cast<uint64_t>(N.Op) | (uint64_t(N.Bits) << 8));
  H = hashU64(H ^ N.A);
  H = hashU64(H ^ N.B);
  H = hashU64(H ^ N.C);
  return hashU64(H ^ N.Imm);
}

bool sameNode(const TermNode &X, const TermNode &Y) {
  return X.Op == Y.Op && X.Bits == Y.Bits && X.A == Y.A && X.B == Y.B &&
         X.C == Y.C && X.Imm == Y.Imm;
}

} // namespace

const char *tv::termOpName(TermOp Op) {
  switch (Op) {
  case TermOp::Const: return "const";
  case TermOp::Param: return "arg";
  case TermOp::CallRet: return "callret";
  case TermOp::OracleLoad: return "mem";
  case TermOp::Add: return "add";
  case TermOp::Sub: return "sub";
  case TermOp::Mul: return "mul";
  case TermOp::UDiv: return "udiv";
  case TermOp::SDiv: return "sdiv";
  case TermOp::SRem: return "srem";
  case TermOp::And: return "and";
  case TermOp::Or: return "or";
  case TermOp::Xor: return "xor";
  case TermOp::Shl: return "shl";
  case TermOp::LShr: return "lshr";
  case TermOp::AShr: return "ashr";
  case TermOp::RotR: return "rotr";
  case TermOp::Not: return "not";
  case TermOp::Neg: return "neg";
  case TermOp::CmpEq: return "eq";
  case TermOp::CmpNe: return "ne";
  case TermOp::CmpSLt: return "slt";
  case TermOp::CmpSLe: return "sle";
  case TermOp::CmpSGt: return "sgt";
  case TermOp::CmpSGe: return "sge";
  case TermOp::CmpULt: return "ult";
  case TermOp::CmpULe: return "ule";
  case TermOp::CmpUGt: return "ugt";
  case TermOp::CmpUGe: return "uge";
  case TermOp::ZExt: return "zext";
  case TermOp::SExt: return "sext";
  case TermOp::Trunc: return "trunc";
  case TermOp::Select: return "select";
  case TermOp::Crc32: return "crc32";
  case TermOp::LMulFold: return "lmulfold";
  case TermOp::FAdd: return "fadd";
  case TermOp::FSub: return "fsub";
  case TermOp::FMul: return "fmul";
  case TermOp::FDiv: return "fdiv";
  case TermOp::FNeg: return "fneg";
  case TermOp::FCmpEq: return "feq";
  case TermOp::FCmpNe: return "fne";
  case TermOp::FCmpLt: return "flt";
  case TermOp::FCmpLe: return "fle";
  case TermOp::FCmpGt: return "fgt";
  case TermOp::FCmpGe: return "fge";
  case TermOp::SIToFP: return "sitofp";
  case TermOp::FPToSI: return "fptosi";
  }
  return "?";
}

bool tv::termOpSemantics(TermOp Op, qir::Opcode &QOp, qir::CmpPred &Pred) {
  for (const TermOpDef &D : TermOpDefs)
    if (D.T == Op) {
      QOp = D.Op;
      Pred = D.Pred;
      return true;
    }
  return false;
}

bool tv::termOpFor(qir::Opcode Op, qir::CmpPred Pred, TermOp &Out) {
  bool IsCmp = qir::opcodeKind(Op) == qir::OpKind::Cmp;
  for (const TermOpDef &D : TermOpDefs)
    if (D.Op == Op && (!IsCmp || D.Pred == Pred)) {
      Out = D.T;
      return true;
    }
  return false;
}

TermRef TermArena::intern(const TermNode &N) {
  if (Saturated)
    return NO_TERM;
  uint64_t H = hashNode(N);
  std::vector<TermRef> &Bucket = Buckets[H];
  for (TermRef R : Bucket)
    if (sameNode(Nodes[R], N))
      return R;
  if (Nodes.size() >= MaxTerms) {
    Saturated = true;
    return NO_TERM;
  }
  TermRef R = static_cast<TermRef>(Nodes.size());
  Nodes.push_back(N);
  Bucket.push_back(R);
  return R;
}

TermRef TermArena::constant(uint64_t V, unsigned Bits) {
  TermNode N;
  N.Op = TermOp::Const;
  N.Bits = static_cast<uint8_t>(Bits);
  N.Imm = V & maskBits(Bits);
  return intern(N);
}

TermRef TermArena::param(unsigned SlotIdx) {
  TermNode N;
  N.Op = TermOp::Param;
  N.Bits = 64;
  N.Imm = SlotIdx;
  return intern(N);
}

TermRef TermArena::callRet(unsigned CallIdx, unsigned Lane) {
  TermNode N;
  N.Op = TermOp::CallRet;
  N.Bits = 64;
  N.Imm = (uint64_t(CallIdx) << 1) | (Lane & 1);
  return intern(N);
}

TermRef TermArena::oracleLoad(uint64_t Addr, unsigned Bits) {
  TermNode N;
  N.Op = TermOp::OracleLoad;
  N.Bits = static_cast<uint8_t>(Bits);
  N.Imm = Addr;
  return intern(N);
}

TermRef TermArena::unary(TermOp Op, TermRef A, unsigned Bits) {
  const TermNode *NA = node(A);
  if (!NA)
    return NO_TERM;
  if (NA->Op == TermOp::Const) {
    uint64_t Out;
    if (fold(Op, NA->Imm, 0, NA->Bits, Bits, Out))
      return constant(Out, Bits);
  }
  // zext/trunc of a same-width value is the value itself.
  if ((Op == TermOp::ZExt || Op == TermOp::Trunc || Op == TermOp::SExt) &&
      NA->Bits == Bits)
    return A;
  TermNode N;
  N.Op = Op;
  N.Bits = static_cast<uint8_t>(Bits);
  N.A = A;
  return intern(N);
}

TermRef TermArena::binary(TermOp Op, TermRef A, TermRef B, unsigned Bits) {
  const TermNode *NA = node(A), *NB = node(B);
  if (!NA || !NB)
    return NO_TERM;
  if (NA->Op == TermOp::Const && NB->Op == TermOp::Const) {
    uint64_t Out;
    if (fold(Op, NA->Imm, NB->Imm, Bits, Bits, Out)) {
      bool IsCmp = (Op >= TermOp::CmpEq && Op <= TermOp::CmpUGe) ||
                   (Op >= TermOp::FCmpEq && Op <= TermOp::FCmpGe);
      return constant(Out, IsCmp ? 1 : Bits);
    }
  }
  // A few unit/zero identities keep traces readable.
  if (NB->Op == TermOp::Const && NB->Imm == 0 &&
      (Op == TermOp::Add || Op == TermOp::Sub || Op == TermOp::Or ||
       Op == TermOp::Xor || Op == TermOp::Shl || Op == TermOp::LShr ||
       Op == TermOp::AShr))
    return A;
  if (NA->Op == TermOp::Const && NA->Imm == 0 &&
      (Op == TermOp::Add || Op == TermOp::Or || Op == TermOp::Xor))
    return B;
  TermNode N;
  N.Op = Op;
  N.Bits = static_cast<uint8_t>(Bits);
  N.A = A;
  N.B = B;
  return intern(N);
}

TermRef TermArena::select(TermRef Cond, TermRef TrueV, TermRef FalseV,
                          unsigned Bits) {
  const TermNode *NC = node(Cond);
  if (!NC || TrueV == NO_TERM || FalseV == NO_TERM)
    return NO_TERM;
  if (NC->Op == TermOp::Const)
    return (NC->Imm & 1) ? TrueV : FalseV;
  if (TrueV == FalseV)
    return TrueV;
  TermNode N;
  N.Op = TermOp::Select;
  N.Bits = static_cast<uint8_t>(Bits);
  N.A = Cond;
  N.B = TrueV;
  N.C = FalseV;
  return intern(N);
}

KnownBits TermArena::known(TermRef R) const {
  const TermNode *N = node(R);
  if (!N)
    return {};
  if (KnownValid.size() < Nodes.size()) {
    KnownValid.resize(Nodes.size(), 0);
    KnownCache.resize(Nodes.size());
  }
  if (KnownValid[R])
    return KnownCache[R];

  uint64_t M = maskBits(N->Bits);
  KnownBits K;
  K.Zero = ~M; // Bits above the width are always zero.
  K.Hi = M;
  KnownBits A = N->A != NO_TERM ? known(N->A) : KnownBits{};
  KnownBits B = N->B != NO_TERM ? known(N->B) : KnownBits{};

  auto boolRange = [&K] { K.Zero = ~1ull; K.Hi = 1; };
  switch (N->Op) {
  case TermOp::Const:
    K.One = N->Imm;
    K.Zero = ~N->Imm;
    K.Lo = K.Hi = N->Imm;
    break;
  case TermOp::And:
    K.Zero |= A.Zero | B.Zero;
    K.One = A.One & B.One & M;
    K.Hi = std::min({K.Hi, A.Hi, B.Hi});
    break;
  case TermOp::Or:
    K.One = (A.One | B.One) & M;
    K.Zero |= A.Zero & B.Zero;
    K.Lo = std::max(A.Lo, B.Lo);
    break;
  case TermOp::Xor:
    K.One = ((A.One & B.Zero) | (A.Zero & B.One)) & M;
    K.Zero |= (A.Zero & B.Zero) | (A.One & B.One);
    break;
  case TermOp::Add:
    // Carry-free low bits stay known; ranges add when they cannot wrap.
    if (A.Hi <= M && B.Hi <= M && A.Hi + B.Hi >= A.Hi &&
        A.Hi + B.Hi <= M) {
      K.Lo = A.Lo + B.Lo;
      K.Hi = A.Hi + B.Hi;
    }
    break;
  case TermOp::ZExt:
    K.Zero |= A.Zero;
    K.One = A.One & M;
    K.Lo = A.Lo;
    K.Hi = std::min(K.Hi, A.Hi);
    break;
  case TermOp::Trunc:
    K.Zero |= A.Zero & M;
    K.One = A.One & M;
    break;
  case TermOp::Shl:
    if (B.isConst()) {
      unsigned S = static_cast<unsigned>(B.constVal()) & (N->Bits - 1);
      K.One = (A.One << S) & M;
      K.Zero |= maskBits(S) | ((A.Zero << S) & M);
    }
    break;
  case TermOp::LShr:
    if (B.isConst()) {
      unsigned S = static_cast<unsigned>(B.constVal()) & (N->Bits - 1);
      K.One = (A.One & M) >> S;
      K.Zero |= ~(M >> S);
      K.Hi = std::min(K.Hi, (A.Hi & M) >> S);
    }
    break;
  case TermOp::CmpEq: case TermOp::CmpNe:
  case TermOp::CmpSLt: case TermOp::CmpSLe:
  case TermOp::CmpSGt: case TermOp::CmpSGe:
  case TermOp::CmpULt: case TermOp::CmpULe:
  case TermOp::CmpUGt: case TermOp::CmpUGe:
  case TermOp::FCmpEq: case TermOp::FCmpNe:
  case TermOp::FCmpLt: case TermOp::FCmpLe:
  case TermOp::FCmpGt: case TermOp::FCmpGe:
    boolRange();
    break;
  case TermOp::UDiv:
    K.Hi = std::min(K.Hi, A.Hi);
    break;
  case TermOp::Select: {
    KnownBits T = known(N->B), F = known(N->C);
    K.Zero = (T.Zero & F.Zero) | ~M;
    K.One = T.One & F.One & M;
    K.Lo = std::min(T.Lo, F.Lo);
    K.Hi = std::min(K.Hi, std::max(T.Hi, F.Hi));
    break;
  }
  default:
    break;
  }
  // Tighten the range from the bit masks.
  K.Lo = std::max(K.Lo, K.One);
  K.Hi = std::min(K.Hi, ~K.Zero);
  if (K.Lo > K.Hi) { // Inconsistent refinement; fall back to masks only.
    K.Lo = K.One;
    K.Hi = ~K.Zero;
  }
  KnownCache[R] = K;
  KnownValid[R] = 1;
  return K;
}

namespace {
void strRec(const TermArena &A, TermRef R, unsigned Depth, std::string &Out) {
  const TermNode *N = A.node(R);
  if (!N) {
    Out += "?";
    return;
  }
  char Buf[64];
  switch (N->Op) {
  case TermOp::Const:
    std::snprintf(Buf, sizeof(Buf),
                  N->Imm > 0xffff ? "0x%llx" : "%llu",
                  static_cast<unsigned long long>(N->Imm));
    Out += Buf;
    return;
  case TermOp::Param:
    std::snprintf(Buf, sizeof(Buf), "arg%llu",
                  static_cast<unsigned long long>(N->Imm));
    Out += Buf;
    return;
  case TermOp::CallRet:
    std::snprintf(Buf, sizeof(Buf), "call%llu.%llu",
                  static_cast<unsigned long long>(N->Imm >> 1),
                  static_cast<unsigned long long>(N->Imm & 1));
    Out += Buf;
    return;
  case TermOp::OracleLoad:
    std::snprintf(Buf, sizeof(Buf), "mem%u[0x%llx]", N->Bits,
                  static_cast<unsigned long long>(N->Imm));
    Out += Buf;
    return;
  default:
    break;
  }
  if (Depth == 0) {
    Out += "...";
    return;
  }
  Out += termOpName(N->Op);
  if (N->Op == TermOp::ZExt || N->Op == TermOp::SExt ||
      N->Op == TermOp::Trunc) {
    std::snprintf(Buf, sizeof(Buf), "%u", N->Bits);
    Out += Buf;
  }
  Out += "(";
  strRec(A, N->A, Depth - 1, Out);
  if (N->B != NO_TERM) {
    Out += ", ";
    strRec(A, N->B, Depth - 1, Out);
  }
  if (N->C != NO_TERM) {
    Out += ", ";
    strRec(A, N->C, Depth - 1, Out);
  }
  Out += ")";
}
} // namespace

std::string TermArena::str(TermRef R) const {
  std::string Out;
  strRec(*this, R, 6, Out);
  return Out;
}
