//===- qir/Builder.h - QIR construction -------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The QIR builder. Generation is strictly block-at-a-time: blocks can be
/// *created* (given an id) at any point, but instructions are appended to
/// the most recently *started* block, so the instruction array stays in
/// basic-block layout order and every block is one contiguous range — the
/// linear-traversal property Umbra IR is designed around. Phi incomings may
/// be filled in after creation to support loop-carried values.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_BUILDER_H
#define QCF_QIR_BUILDER_H

#include "qir/Function.h"
#include <initializer_list>
#include <utility>

namespace qcf::qir {

/// Builds a Function's instruction stream.
class Builder {
public:
  /// Creates the entry block, starts it, and materializes Param
  /// instructions for every function parameter.
  explicit Builder(Function *F) : F(F) {
    BlockId Entry = createBlock();
    startBlock(Entry);
    for (unsigned I = 0, E = F->numParams(); I != E; ++I) {
      Inst P{};
      P.Op = Opcode::Param;
      P.Ty = F->paramTypes()[I];
      P.A = I;
      append(P);
    }
  }

  Function *function() const { return F; }
  BlockId entryBlock() const { return 0; }
  BlockId currentBlock() const { return CurBB; }

  /// Creates a new (not yet started) block and returns its id.
  BlockId createBlock() {
    F->Blocks.push_back(Block{});
    return static_cast<BlockId>(F->Blocks.size() - 1);
  }

  /// Begins appending to \p B. The previously started block must have been
  /// terminated.
  void startBlock(BlockId B) {
    assert(!F->block(B).Started && "block already populated");
    assert((CurBB == INVALID_BLOCK || isTerminated(CurBB)) &&
           "previous block not terminated");
    Block &Blk = F->block(B);
    Blk.Begin = Blk.End = F->numInsts();
    Blk.Started = true;
    CurBB = B;
  }

  /// True once \p B ends in a terminator.
  bool isTerminated(BlockId B) const {
    const Block &Blk = F->block(B);
    return Blk.End > Blk.Begin && isTerminator(F->Insts[Blk.End - 1].Op);
  }

  // --- Constants ---------------------------------------------------------

  ValueId constInt(Type Ty, int64_t V) {
    assert((isIntType(Ty) && Ty != Type::I128) && "use constI128 for i128");
    Inst I{};
    I.Op = Opcode::ConstInt;
    I.Ty = Ty;
    I.Imm = static_cast<uint64_t>(V);
    return append(I);
  }

  ValueId constBool(bool V) { return constInt(Type::I1, V); }

  ValueId constI128(Int128 V) {
    Inst I{};
    I.Op = Opcode::ConstI128;
    I.Ty = Type::I128;
    I.A = static_cast<uint32_t>(F->I128Pool.size());
    F->I128Pool.push_back(V);
    return append(I);
  }

  ValueId constF64(double V) {
    Inst I{};
    I.Op = Opcode::ConstF64;
    I.Ty = Type::F64;
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(V));
    __builtin_memcpy(&Bits, &V, sizeof(Bits));
    I.Imm = Bits;
    return append(I);
  }

  ValueId constPtr(const void *P) {
    Inst I{};
    I.Op = Opcode::ConstPtr;
    I.Ty = Type::Ptr;
    I.Imm = reinterpret_cast<uint64_t>(P);
    return append(I);
  }

  // --- Arithmetic --------------------------------------------------------

  ValueId binary(Opcode Op, ValueId A, ValueId B) {
    assert(opcodeKind(Op) == OpKind::Binary && "not a binary opcode");
#ifndef NDEBUG
    if (!(F->valueType(A) == F->valueType(B) || Op == Opcode::Shl ||
          Op == Opcode::LShr || Op == Opcode::AShr || Op == Opcode::RotR))
      std::fprintf(stderr, "binary %s: %s vs %s\n", opcodeName(Op),
                   typeName(F->valueType(A)), typeName(F->valueType(B)));
#endif
    assert(F->valueType(A) == F->valueType(B) ||
           Op == Opcode::Shl || Op == Opcode::LShr || Op == Opcode::AShr ||
           Op == Opcode::RotR);
    Inst I{};
    I.Op = Op;
    I.Ty = resultTypeOfBinary(Op, F->valueType(A));
    I.A = A;
    I.B = B;
    return append(I);
  }

  ValueId add(ValueId A, ValueId B) { return binary(Opcode::Add, A, B); }
  ValueId sub(ValueId A, ValueId B) { return binary(Opcode::Sub, A, B); }
  ValueId mul(ValueId A, ValueId B) { return binary(Opcode::Mul, A, B); }
  ValueId sdiv(ValueId A, ValueId B) { return binary(Opcode::SDiv, A, B); }
  ValueId udiv(ValueId A, ValueId B) { return binary(Opcode::UDiv, A, B); }
  ValueId srem(ValueId A, ValueId B) { return binary(Opcode::SRem, A, B); }
  ValueId and_(ValueId A, ValueId B) { return binary(Opcode::And, A, B); }
  ValueId or_(ValueId A, ValueId B) { return binary(Opcode::Or, A, B); }
  ValueId xor_(ValueId A, ValueId B) { return binary(Opcode::Xor, A, B); }
  ValueId shl(ValueId A, ValueId B) { return binary(Opcode::Shl, A, B); }
  ValueId lshr(ValueId A, ValueId B) { return binary(Opcode::LShr, A, B); }
  ValueId ashr(ValueId A, ValueId B) { return binary(Opcode::AShr, A, B); }
  ValueId rotr(ValueId A, ValueId B) { return binary(Opcode::RotR, A, B); }
  ValueId saddTrap(ValueId A, ValueId B) {
    return binary(Opcode::SAddTrap, A, B);
  }
  ValueId ssubTrap(ValueId A, ValueId B) {
    return binary(Opcode::SSubTrap, A, B);
  }
  ValueId smulTrap(ValueId A, ValueId B) {
    return binary(Opcode::SMulTrap, A, B);
  }
  ValueId crc32(ValueId Seed, ValueId V) {
    return binary(Opcode::Crc32, Seed, V);
  }
  ValueId longMulFold(ValueId A, ValueId B) {
    return binary(Opcode::LongMulFold, A, B);
  }
  ValueId fadd(ValueId A, ValueId B) { return binary(Opcode::FAdd, A, B); }
  ValueId fsub(ValueId A, ValueId B) { return binary(Opcode::FSub, A, B); }
  ValueId fmul(ValueId A, ValueId B) { return binary(Opcode::FMul, A, B); }
  ValueId fdiv(ValueId A, ValueId B) { return binary(Opcode::FDiv, A, B); }

  ValueId neg(ValueId A) { return unary(Opcode::Neg, A, F->valueType(A)); }
  ValueId not_(ValueId A) { return unary(Opcode::Not, A, F->valueType(A)); }
  ValueId fneg(ValueId A) { return unary(Opcode::FNeg, A, Type::F64); }

  // --- Comparison / select -----------------------------------------------

  ValueId icmp(CmpPred P, ValueId A, ValueId B) {
    assert(F->valueType(A) == F->valueType(B) && "icmp operand mismatch");
    Inst I{};
    I.Op = Opcode::ICmp;
    I.Ty = Type::I1;
    I.Flags = static_cast<uint8_t>(P);
    I.A = A;
    I.B = B;
    return append(I);
  }

  ValueId fcmp(CmpPred P, ValueId A, ValueId B) {
    Inst I{};
    I.Op = Opcode::FCmp;
    I.Ty = Type::I1;
    I.Flags = static_cast<uint8_t>(P);
    I.A = A;
    I.B = B;
    return append(I);
  }

  ValueId select(ValueId Cond, ValueId A, ValueId B) {
    assert(F->valueType(Cond) == Type::I1 && "select condition must be i1");
    assert(F->valueType(A) == F->valueType(B) && "select operand mismatch");
    Inst I{};
    I.Op = Opcode::Select;
    I.Ty = F->valueType(A);
    I.A = Cond;
    I.B = A;
    I.C = B;
    return append(I);
  }

  // --- Conversions -------------------------------------------------------

  ValueId zext(Type To, ValueId A) { return unary(Opcode::ZExt, A, To); }
  ValueId sext(Type To, ValueId A) { return unary(Opcode::SExt, A, To); }
  ValueId trunc(Type To, ValueId A) { return unary(Opcode::Trunc, A, To); }
  ValueId sitofp(ValueId A) { return unary(Opcode::SIToFP, A, Type::F64); }
  ValueId fptosi(Type To, ValueId A) { return unary(Opcode::FPToSI, A, To); }
  ValueId bitcast(Type To, ValueId A) { return unary(Opcode::Bitcast, A, To); }

  // --- Two-lane values ---------------------------------------------------

  ValueId packD128(ValueId Lo, ValueId Hi) {
    Inst I{};
    I.Op = Opcode::PackD128;
    I.Ty = Type::D128;
    I.A = Lo;
    I.B = Hi;
    return append(I);
  }

  ValueId packI128(ValueId Lo, ValueId Hi) {
    Inst I{};
    I.Op = Opcode::PackI128;
    I.Ty = Type::I128;
    I.A = Lo;
    I.B = Hi;
    return append(I);
  }

  ValueId extractLo(ValueId V) { return unary(Opcode::ExtractLo, V, Type::I64); }
  ValueId extractHi(ValueId V) { return unary(Opcode::ExtractHi, V, Type::I64); }

  // --- Memory ------------------------------------------------------------

  ValueId load(Type Ty, ValueId Ptr) {
    assert(F->valueType(Ptr) == Type::Ptr && "load address must be ptr");
    Inst I{};
    I.Op = Opcode::Load;
    I.Ty = Ty;
    I.A = Ptr;
    return append(I);
  }

  void store(ValueId Val, ValueId Ptr) {
    assert(F->valueType(Ptr) == Type::Ptr && "store address must be ptr");
    Inst I{};
    I.Op = Opcode::Store;
    I.Ty = F->valueType(Val);
    I.A = Ptr;
    I.B = Val;
    append(I);
  }

  /// ptr + Offset.
  ValueId gep(ValueId Base, int64_t Offset) {
    Inst I{};
    I.Op = Opcode::Gep;
    I.Ty = Type::Ptr;
    I.A = Base;
    I.B = INVALID_VALUE;
    I.C = 0;
    I.Imm = static_cast<uint64_t>(Offset);
    return append(I);
  }

  /// ptr + Index * Scale + Offset.
  ValueId gepIndexed(ValueId Base, ValueId Index, uint32_t Scale,
                     int64_t Offset = 0) {
    assert(F->valueType(Index) == Type::I64 && "gep index must be i64");
    Inst I{};
    I.Op = Opcode::Gep;
    I.Ty = Type::Ptr;
    I.A = Base;
    I.B = Index;
    I.C = Scale;
    I.Imm = static_cast<uint64_t>(Offset);
    return append(I);
  }

  ValueId stackSlot(uint64_t Size) {
    Inst I{};
    I.Op = Opcode::StackSlot;
    I.Ty = Type::Ptr;
    I.Imm = Size;
    return append(I);
  }

  ValueId atomicAdd(ValueId Ptr, ValueId Val) {
    Inst I{};
    I.Op = Opcode::AtomicAdd;
    I.Ty = F->valueType(Val);
    I.A = Ptr;
    I.B = Val;
    return append(I);
  }

  // --- Calls / phis ------------------------------------------------------

  ValueId call(SymbolId Callee, std::initializer_list<ValueId> Args) {
    return call(Callee, Args.begin(), static_cast<unsigned>(Args.size()));
  }

  ValueId call(SymbolId Callee, const ValueId *Args, unsigned NumArgs) {
    const RuntimeSig &Sig = std::as_const(*F->parent()).symbol(Callee);
    assert(Sig.ParamTypes.size() == NumArgs && "call arity mismatch");
    Inst I{};
    I.Op = Opcode::Call;
    I.Ty = Sig.RetType;
    I.A = static_cast<uint32_t>(F->CallArgs.size());
    I.B = NumArgs;
    I.Imm = Callee;
    for (unsigned K = 0; K != NumArgs; ++K) {
      assert(F->valueType(Args[K]) == Sig.ParamTypes[K] &&
             "call argument type mismatch");
      F->CallArgs.push_back(Args[K]);
    }
    return append(I);
  }

  /// Creates a phi with \p NumIncomings reserved (unfilled) slots.
  ValueId phi(Type Ty, unsigned NumIncomings) {
    Inst I{};
    I.Op = Opcode::Phi;
    I.Ty = Ty;
    I.A = static_cast<uint32_t>(F->PhiIns.size());
    I.B = NumIncomings;
    F->PhiIns.resize(F->PhiIns.size() + NumIncomings);
    return append(I);
  }

  /// Fills incoming slot \p Slot of \p PhiVal; may be called after the
  /// incoming value is defined (loop back edges).
  void setPhiIncoming(ValueId PhiVal, unsigned Slot, BlockId Pred,
                      ValueId Val) {
    Inst &I = F->inst(PhiVal);
    assert(I.Op == Opcode::Phi && "not a phi");
    assert(Slot < I.B && "phi incoming slot out of range");
    F->PhiIns[I.A + Slot] = {Pred, Val};
  }

  // --- Terminators -------------------------------------------------------

  void br(BlockId Target) {
    Inst I{};
    I.Op = Opcode::Br;
    I.A = Target;
    append(I);
  }

  void condBr(ValueId Cond, BlockId TrueB, BlockId FalseB) {
    assert(F->valueType(Cond) == Type::I1 && "branch condition must be i1");
    Inst I{};
    I.Op = Opcode::CondBr;
    I.A = Cond;
    I.B = TrueB;
    I.C = FalseB;
    append(I);
  }

  void ret(ValueId V = INVALID_VALUE) {
    assert((V == INVALID_VALUE ? F->returnType() == Type::Void
                               : F->valueType(V) == F->returnType()) &&
           "return value type mismatch");
    Inst I{};
    I.Op = Opcode::Ret;
    I.A = V;
    append(I);
  }

  void unreachable() {
    Inst I{};
    I.Op = Opcode::Unreachable;
    append(I);
  }

private:
  static Type resultTypeOfBinary(Opcode Op, Type OperandTy) {
    switch (Op) {
    case Opcode::Crc32:
    case Opcode::LongMulFold:
      return Type::I64;
    default:
      return OperandTy;
    }
  }

  ValueId unary(Opcode Op, ValueId A, Type ResultTy) {
    Inst I{};
    I.Op = Op;
    I.Ty = ResultTy;
    I.A = A;
    return append(I);
  }

  ValueId append(const Inst &I) {
    assert(CurBB != INVALID_BLOCK && "no block started");
    assert(!isTerminated(CurBB) && "appending after terminator");
    Block &Blk = F->block(CurBB);
    assert(Blk.End == F->numInsts() &&
           "current block is not at the end of the instruction stream");
    F->Insts.push_back(I);
    ++Blk.End;
    return static_cast<ValueId>(F->numInsts() - 1);
  }

  Function *F;
  BlockId CurBB = INVALID_BLOCK;
};

} // namespace qcf::qir

#endif // QCF_QIR_BUILDER_H
