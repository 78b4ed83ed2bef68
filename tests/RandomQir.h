//===- tests/RandomQir.h - Random QIR function generator --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random, verified, always-terminating QIR functions for
/// property-based differential testing: every back-end must produce the
/// interpreter's exact result (or trap exactly like it) on random inputs.
/// Functions take (i64, i64) and return i64; control flow is structured
/// (nested counted loops and diamonds), so termination is guaranteed.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_TESTS_RANDOMQIR_H
#define QCF_TESTS_RANDOMQIR_H

#include "qir/Builder.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "support/Rng.h"
#include <optional>
#include <vector>

namespace qcf::test {

class RandomFnBuilder {
public:
  RandomFnBuilder(qir::Module &M, Rng &R) : M(M), R(R) {}

  qir::Function *build(const std::string &Name) {
    using namespace qir;
    for (auto &P : Pool)
      P.clear();
    LoopBodyBegin = 0;
    F = M.createFunction(Name, {Type::I64, Type::I64}, Type::I64);
    B.emplace(F);

    // Seed pools from the parameters.
    addValue(Type::I64, F->paramValue(0));
    addValue(Type::I64, F->paramValue(1));
    addValue(Type::I64, B->xor_(F->paramValue(0), F->paramValue(1)));
    addValue(Type::I32, B->trunc(Type::I32, F->paramValue(0)));
    addValue(Type::I32, B->trunc(Type::I32, F->paramValue(1)));
    addValue(Type::I16, B->trunc(Type::I16, F->paramValue(0)));
    addValue(Type::I8, B->trunc(Type::I8, F->paramValue(1)));
    addValue(Type::I128, B->sext(Type::I128, F->paramValue(0)));
    addValue(Type::F64, B->sitofp(F->paramValue(1)));
    addValue(Type::I1, B->icmp(CmpPred::SLt, F->paramValue(0),
                               F->paramValue(1)));
    // A truncation feeds full-width garbage through a narrow type.
    addValue(Type::I1, B->trunc(Type::I1, F->paramValue(0)));
    for (int I = 0; I != 3; ++I)
      addValue(Type::I64,
               B->constInt(Type::I64, static_cast<int64_t>(R.next())));
    addValue(Type::I32,
             B->constInt(Type::I32, static_cast<int32_t>(R.next())));
    addValue(Type::I128, B->constI128(makeInt128(R.next(), R.next() >> 32)));
    addValue(Type::F64, B->constF64(static_cast<double>(R.nextRange(-1000, 1000)) / 8.0));

    // A fully initialized 32-byte scratch slot for random memory traffic
    // (uninitialized reads would be frame-layout-dependent).
    Slot = B->stackSlot(32);
    B->store(B->sext(Type::I128, F->paramValue(0)), Slot);
    B->store(B->sext(Type::I128, F->paramValue(1)), B->gep(Slot, 16));
    Crc32Sym = M.declareRuntime("rt_crc32", Type::I64,
                                {Type::I64, Type::I64},
                                rt::runtimeSymbolAddress("rt_crc32"));

    unsigned NumRegions = 1 + static_cast<unsigned>(R.nextBounded(3));
    for (unsigned I = 0; I != NumRegions; ++I) {
      emitStraightLine(3 + static_cast<unsigned>(R.nextBounded(6)));
      switch (R.nextBounded(3)) {
      case 0:
        emitDiamond();
        break;
      case 1:
        emitCountedLoop();
        break;
      default:
        break; // straight-line only
      }
    }
    emitStraightLine(2 + static_cast<unsigned>(R.nextBounded(4)));

    // Fold a handful of values into the i64 result.
    qir::ValueId Acc = pick(qir::Type::I64);
    for (int I = 0; I != 4; ++I) {
      qir::ValueId V = toI64(pickAnyType());
      Acc = B->xor_(B->rotr(Acc, B->constInt(qir::Type::I64, 7)), V);
    }
    B->ret(Acc);
    return F;
  }

private:
  using Type = qir::Type;
  using ValueId = qir::ValueId;
  using CmpPred = qir::CmpPred;

  static constexpr Type ScalarTypes[] = {Type::I8,  Type::I16, Type::I32,
                                         Type::I64, Type::I128};

  void addValue(Type Ty, ValueId V) { Pool[typeIdx(Ty)].push_back(V); }

  static unsigned typeIdx(Type Ty) {
    switch (Ty) {
    case Type::I1:
      return 0;
    case Type::I8:
      return 1;
    case Type::I16:
      return 2;
    case Type::I32:
      return 3;
    case Type::I64:
      return 4;
    case Type::I128:
      return 5;
    case Type::F64:
      return 6;
    default:
      QCF_UNREACHABLE("unsupported type in random generator");
    }
  }

  ValueId pick(Type Ty) {
    auto &P = Pool[typeIdx(Ty)];
    assert(!P.empty() && "empty value pool");
    return P[R.nextBounded(P.size())];
  }

  Type pickAnyType() {
    static constexpr Type All[] = {Type::I1,  Type::I8,   Type::I16,
                                   Type::I32, Type::I64,  Type::I128,
                                   Type::F64};
    for (;;) {
      Type Ty = All[R.nextBounded(7)];
      if (!Pool[typeIdx(Ty)].empty())
        return Ty;
    }
  }

  ValueId toI64(Type Ty) {
    ValueId V = pick(Ty);
    switch (Ty) {
    case Type::I64:
      return V;
    case Type::I128:
      return B->extractLo(V);
    case Type::F64:
      return B->bitcast(Type::I64, V);
    default:
      return R.nextBool() ? B->zext(Type::I64, V) : B->sext(Type::I64, V);
    }
  }

  /// Emits one random value-producing instruction.
  void emitRandomOp() {
    using qir::Opcode;
    Type Ty = ScalarTypes[R.nextBounded(5)];
    unsigned Kind = static_cast<unsigned>(R.nextBounded(100));

    if (Kind < 38) {
      // Plain binary arithmetic.
      static constexpr Opcode Ops[] = {Opcode::Add,  Opcode::Sub,
                                       Opcode::Mul,  Opcode::And,
                                       Opcode::Or,   Opcode::Xor};
      addValue(Ty, B->binary(Ops[R.nextBounded(6)], pick(Ty), pick(Ty)));
    } else if (Kind < 45) {
      // Memory traffic through the scratch slot. Offsets keep every
      // access inside the 32 initialized bytes; type-punning reads are
      // fine (all back-ends see the same bytes).
      int64_t Off = static_cast<int64_t>(R.nextBounded(2)) * 16;
      ValueId P = B->gep(Slot, Off);
      switch (R.nextBounded(3)) {
      case 0:
        B->store(pick(Ty), P);
        addValue(Ty, B->load(Ty, P));
        break;
      case 1:
        addValue(Ty, B->load(Ty, P));
        break;
      default:
        addValue(Type::I64, B->atomicAdd(P, pick(Type::I64)));
        break;
      }
    } else if (Kind < 55) {
      // Shifts / rotates (rotate only for one-lane types).
      static constexpr Opcode Ops[] = {Opcode::Shl, Opcode::LShr,
                                       Opcode::AShr, Opcode::RotR};
      Opcode Op = Ops[R.nextBounded(Ty == Type::I128 ? 3 : 4)];
      // Amounts >= the bit width are undefined (see Opcode.h), so keep
      // generated amounts in range.
      ValueId Amount = B->constInt(
          Type::I64, static_cast<int64_t>(R.nextBounded(intBits(Ty))));
      // Shift amounts are i64 in QIR regardless of the operand type; the
      // builder's assert allows mismatched RHS width for shifts.
      addValue(Ty, B->binary(Op, pick(Ty),
                             Ty == Type::I128 || Ty == Type::I64
                                 ? Amount
                                 : adjustWidth(Amount, Ty)));
    } else if (Kind < 63) {
      // Comparisons.
      static constexpr CmpPred Preds[] = {
          CmpPred::Eq,  CmpPred::Ne,  CmpPred::SLt, CmpPred::SLe,
          CmpPred::SGt, CmpPred::SGe, CmpPred::ULt, CmpPred::ULe,
          CmpPred::UGt, CmpPred::UGe};
      addValue(Type::I1, B->icmp(Preds[R.nextBounded(10)], pick(Ty),
                                 pick(Ty)));
    } else if (Kind < 70) {
      // Select.
      addValue(Ty, B->select(pick(Type::I1), pick(Ty), pick(Ty)));
    } else if (Kind < 76) {
      // Trapping arithmetic (i32/i64/i128 only). Multiplications mask
      // their operands so overflow traps stay rare and most seeds test
      // full functions; add/sub overflow naturally stays rare.
      Type TT = Ty == Type::I8 || Ty == Type::I16 ? Type::I32 : Ty;
      if (R.nextBounded(3) == 0) {
        ValueId MA = B->binary(Opcode::And, pick(TT), smallMask(TT));
        ValueId MB = B->binary(Opcode::And, pick(TT), smallMask(TT));
        addValue(TT, B->smulTrap(MA, MB));
      } else {
        addValue(TT, R.nextBool() ? B->saddTrap(pick(TT), pick(TT))
                                  : B->ssubTrap(pick(TT), pick(TT)));
      }
    } else if (Kind < 80 && Ty != Type::I128) {
      // Division (may trap on zero/overflow — both sides must agree).
      static constexpr Opcode Ops[] = {Opcode::SDiv, Opcode::UDiv,
                                       Opcode::SRem};
      addValue(Ty, B->binary(Ops[R.nextBounded(3)], pick(Ty), pick(Ty)));
    } else if (Kind < 85) {
      // Hash primitives, sometimes through the runtime-call ABI.
      switch (R.nextBounded(3)) {
      case 0:
        addValue(Type::I64, B->crc32(pick(Type::I64), pick(Type::I64)));
        break;
      case 1:
        addValue(Type::I64,
                 B->longMulFold(pick(Type::I64), pick(Type::I64)));
        break;
      default:
        addValue(Type::I64,
                 B->call(Crc32Sym, {pick(Type::I64), pick(Type::I64)}));
        break;
      }
    } else if (Kind < 92) {
      // Conversions.
      emitRandomConversion();
    } else if (Kind < 96) {
      // Float arithmetic.
      static constexpr Opcode Ops[] = {Opcode::FAdd, Opcode::FSub,
                                       Opcode::FMul, Opcode::FDiv};
      addValue(Type::F64, B->binary(Ops[R.nextBounded(4)], pick(Type::F64),
                                    pick(Type::F64)));
      addValue(Type::I1, B->fcmp(CmpPred::SLt, pick(Type::F64),
                                 pick(Type::F64)));
    } else {
      // Unary ops.
      if (R.nextBool())
        addValue(Ty, B->neg(pick(Ty)));
      else
        addValue(Ty, B->not_(pick(Ty)));
    }
  }

  ValueId adjustWidth(ValueId I64Val, Type To) {
    return B->trunc(To, I64Val);
  }

  /// A mask constant keeping values small enough that products cannot
  /// overflow the type.
  ValueId smallMask(Type Ty) {
    if (Ty == Type::I128)
      return B->constI128(0xffffffff);
    return B->constInt(Ty, Ty == Type::I32 ? 0x7fff : 0x7fffffff);
  }

  void emitRandomConversion() {
    switch (R.nextBounded(6)) {
    case 0:
      addValue(Type::I64, B->zext(Type::I64, pick(Type::I32)));
      break;
    case 1:
      addValue(Type::I128, B->sext(Type::I128, pick(Type::I64)));
      break;
    case 2:
      addValue(Type::I16, B->trunc(Type::I16, pick(Type::I64)));
      break;
    case 3:
      addValue(Type::F64, B->sitofp(pick(Type::I32)));
      break;
    case 4:
      addValue(Type::I64, B->fptosi(Type::I64, pick(Type::F64)));
      break;
    default:
      addValue(Type::I64, B->extractHi(pick(Type::I128)));
      break;
    }
  }

  void emitStraightLine(unsigned N) {
    for (unsigned I = 0; I != N; ++I)
      emitRandomOp();
  }

  /// cond ? (ops...) : (ops...); merges one phi per branch-computed value.
  void emitDiamond() {
    using qir::BlockId;
    BlockId T = B->createBlock(), E = B->createBlock(), J = B->createBlock();
    ValueId Cond = pick(Type::I1);
    B->condBr(Cond, T, E);

    B->startBlock(T);
    Type Ty = ScalarTypes[R.nextBounded(5)];
    ValueId VT = B->binary(qir::Opcode::Add, pick(Ty), pick(Ty));
    B->br(J);

    B->startBlock(E);
    ValueId VE = B->binary(qir::Opcode::Xor, pick(Ty), pick(Ty));
    B->br(J);

    B->startBlock(J);
    ValueId P = B->phi(Ty, 2);
    B->setPhiIncoming(P, 0, T, VT);
    B->setPhiIncoming(P, 1, E, VE);
    addValue(Ty, P);
  }

  /// A counted loop with a loop-carried accumulator.
  void emitCountedLoop() {
    using qir::BlockId;
    BlockId Pre = B->currentBlock();
    BlockId H = B->createBlock(), Body = B->createBlock(),
            Exit = B->createBlock();
    Type Ty = R.nextBool() ? Type::I64 : Type::I32;
    ValueId Init = pick(Ty);
    ValueId Zero = B->constInt(Type::I64, 0);
    ValueId Limit = B->constInt(
        Type::I64, static_cast<int64_t>(1 + R.nextBounded(9)));
    B->br(H);

    B->startBlock(H);
    ValueId I = B->phi(Type::I64, 2);
    ValueId Acc = B->phi(Ty, 2);
    ValueId Cond = B->icmp(CmpPred::SLt, I, Limit);
    B->condBr(Cond, Body, Exit);

    B->startBlock(Body);
    LoopBodyBegin = F->numInsts();
    addValue(Ty, Acc);
    // A couple of random ops inside the loop (they can use Acc).
    emitStraightLine(1 + static_cast<unsigned>(R.nextBounded(3)));
    ValueId Step = B->binary(qir::Opcode::Add, Acc, pick(Ty));
    ValueId Rot = B->rotr(Acc, B->constInt(Type::I64, 9));
    ValueId Next = B->xor_(Step, Rot);
    ValueId INext = B->add(I, B->constInt(Type::I64, 1));
    B->br(H);

    B->startBlock(Exit);
    B->setPhiIncoming(I, 0, Pre, Zero);
    B->setPhiIncoming(I, 1, Body, INext);
    B->setPhiIncoming(Acc, 0, Pre, Init);
    B->setPhiIncoming(Acc, 1, Body, Next);
    addValue(Ty, Acc);
    // Values created inside the loop must not leak into later pools (they
    // do not dominate code after the loop) — handled by popping them.
    // See pruneToDominating() below.
    pruneLoopLocals();
  }

  /// Values defined inside the most recent loop body do not dominate the
  /// exit; remove them from the pools. We conservatively keep only values
  /// defined before the loop header plus the loop phis (which dominate the
  /// exit block).
  void pruneLoopLocals() {
    // Rebuild pools keeping only values defined before the loop body
    // start, plus header phis. The body range is [BodyBegin, BodyEnd).
    const qir::Function &Fn = *F;
    for (auto &P : Pool) {
      std::vector<ValueId> Kept;
      for (ValueId V : P) {
        // Header phis and everything before them dominate the exit.
        if (Fn.inst(V).Op == qir::Opcode::Phi || V < LoopBodyBegin)
          Kept.push_back(V);
      }
      P = std::move(Kept);
    }
  }

  qir::Module &M;
  Rng &R;
  qir::Function *F = nullptr;
  qir::ValueId Slot = qir::INVALID_VALUE;
  qir::SymbolId Crc32Sym = 0;
  std::optional<qir::Builder> B;
  std::vector<ValueId> Pool[7];
  ValueId LoopBodyBegin = 0;
};

} // namespace qcf::test

#endif // QCF_TESTS_RANDOMQIR_H
