//===- qir/Verify.cpp - QIR verifier --------------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "qir/Verify.h"
#include "qir/Cfg.h"
#include <algorithm>
#include <cstdio>
#include <span>

using namespace qcf;
using namespace qcf::qir;

namespace {

/// The verifier's analyses, reused across the functions of a module.
struct VerifyScratch {
  CfgInfo Cfg;
  DomTree DT;
  std::vector<BlockId> DefBlock;
};

class Verifier {
public:
  Verifier(const Function &F, VerifyScratch &S)
      : F(F), Cfg(S.Cfg), DT(S.DT), DefBlock(S.DefBlock) {}

  std::optional<std::string> run() {
    if (F.numBlocks() == 0)
      return fail("function has no blocks");
    if (auto Err = checkBlockStructure())
      return Err;

    Cfg.compute(F);
    DT.compute(F, Cfg);

    for (BlockId B : Cfg.rpo())
      if (auto Err = checkBlock(B))
        return Err;
    return std::nullopt;
  }

private:
  std::optional<std::string> fail(const std::string &Msg) {
    return "verify(" + F.name() + "): " + Msg;
  }

  std::optional<std::string> failAt(ValueId V, const std::string &Msg) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), " (at %%%u %s)", V,
                  opcodeName(F.inst(V).Op));
    return fail(Msg + Buf);
  }

  /// Also records each instruction's block in DefBlock: the blocks tile
  /// the instructions once this passes.
  std::optional<std::string> checkBlockStructure() {
    DefBlock.resize(F.numInsts());
    uint32_t Expected = 0;
    for (BlockId B = 0; B != F.numBlocks(); ++B) {
      const Block &Blk = F.block(B);
      if (!Blk.Started)
        return fail("block b" + std::to_string(B) + " never started");
      if (Blk.Begin != Expected)
        return fail("block b" + std::to_string(B) +
                    " is not contiguous with its predecessor in layout");
      if (Blk.End <= Blk.Begin)
        return fail("block b" + std::to_string(B) + " is empty");
      if (Blk.End > F.numInsts())
        return fail("block b" + std::to_string(B) +
                    " ends past the last instruction");
      for (uint32_t I = Blk.Begin; I != Blk.End; ++I) {
        DefBlock[I] = B;
        bool IsTerm = isTerminator(F.Insts[I].Op);
        bool IsLast = I + 1 == Blk.End;
        if (IsTerm != IsLast)
          return fail("block b" + std::to_string(B) +
                      (IsTerm ? " has a terminator in the middle"
                              : " does not end in a terminator"));
      }
      // The CFG analyses follow branch targets, so they are checked here.
      const Inst &Term = F.Insts[Blk.End - 1];
      for (unsigned S = 0, E = F.numSuccessors(Term); S != E; ++S)
        if (F.successor(Term, S) >= F.numBlocks())
          return failAt(Blk.End - 1, "branch target out of range");
      Expected = Blk.End;
    }
    if (Expected != F.numInsts())
      return fail("instructions outside any block");
    return std::nullopt;
  }

  /// Checks that the definition of \p Op is available at instruction \p At
  /// in block \p B (strict dominance, or earlier in the same block).
  std::optional<std::string> checkUse(ValueId At, BlockId B, ValueId Op) {
    if (Op >= F.numInsts())
      return failAt(At, "operand id out of range");
    Type Ty = F.valueType(Op);
    if (Ty == Type::Void)
      return failAt(At, "operand has void type");
    if (F.inst(Op).Op == Opcode::Store)
      return failAt(At, "operand is a store");
    BlockId DefB = DefBlock[Op];
    if (DefB == B)
      return Op < At ? std::nullopt
                     : failAt(At, "use before def in the same block");
    if (!DT.dominates(DefB, B))
      return failAt(At, "definition does not dominate use");
    return std::nullopt;
  }

  std::optional<std::string> checkBlock(BlockId B) {
    const Block &Blk = F.block(B);
    bool SeenNonPhi = false;
    for (uint32_t I = Blk.Begin; I != Blk.End; ++I) {
      const Inst &Ins = F.Insts[I];
      if (Ins.Op == Opcode::Phi) {
        if (SeenNonPhi)
          return failAt(I, "phi after non-phi instruction");
      } else if (Ins.Op != Opcode::Param) {
        SeenNonPhi = true;
      }
      if (auto Err = checkInst(I, B, Ins))
        return Err;
    }
    return std::nullopt;
  }

  std::optional<std::string> checkInst(ValueId V, BlockId B, const Inst &I) {
    switch (opcodeKind(I.Op)) {
    case OpKind::Const:
      return checkConst(V, I);
    case OpKind::Unary:
      return checkUnary(V, B, I);
    case OpKind::Binary:
      return checkBinary(V, B, I);
    case OpKind::Cmp: {
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (auto Err = checkUse(V, B, I.B))
        return Err;
      if (F.valueType(I.A) != F.valueType(I.B))
        return failAt(V, "cmp operand type mismatch");
      if (I.Ty != Type::I1)
        return failAt(V, "cmp result must be i1");
      return std::nullopt;
    }
    case OpKind::Select: {
      for (ValueId Op : {I.A, I.B, I.C})
        if (auto Err = checkUse(V, B, Op))
          return Err;
      if (F.valueType(I.A) != Type::I1)
        return failAt(V, "select condition must be i1");
      if (F.valueType(I.B) != I.Ty || F.valueType(I.C) != I.Ty)
        return failAt(V, "select arm type mismatch");
      return std::nullopt;
    }
    case OpKind::Mem:
      return checkMem(V, B, I);
    case OpKind::Call:
      return checkCall(V, B, I);
    case OpKind::Phi:
      return checkPhi(V, B, I);
    case OpKind::Term:
      return checkTerm(V, B, I);
    case OpKind::Other:
      return checkOther(V, B, I);
    }
    QCF_UNREACHABLE("invalid opcode kind");
  }

  std::optional<std::string> checkConst(ValueId V, const Inst &I) {
    switch (I.Op) {
    case Opcode::ConstInt:
      if (!isIntType(I.Ty) || I.Ty == Type::I128)
        return failAt(V, "const has non-(small-)integer type");
      return std::nullopt;
    case Opcode::ConstI128:
      if (I.A >= F.I128Pool.size())
        return failAt(V, "i128 pool index out of range");
      return std::nullopt;
    case Opcode::ConstF64:
    case Opcode::ConstPtr:
      return std::nullopt;
    default:
      QCF_UNREACHABLE("unexpected const opcode");
    }
  }

  std::optional<std::string> checkUnary(ValueId V, BlockId B, const Inst &I) {
    if (auto Err = checkUse(V, B, I.A))
      return Err;
    Type In = F.valueType(I.A);
    switch (I.Op) {
    case Opcode::Neg:
    case Opcode::Not:
      if (!isIntType(In) || In != I.Ty)
        return failAt(V, "neg/not type mismatch");
      return std::nullopt;
    case Opcode::FNeg:
      if (In != Type::F64)
        return failAt(V, "fneg requires f64");
      return std::nullopt;
    case Opcode::ZExt:
    case Opcode::SExt:
      if (!isIntType(In) || !isIntType(I.Ty) || intBits(I.Ty) <= intBits(In))
        return failAt(V, "ext must widen an integer");
      return std::nullopt;
    case Opcode::Trunc:
      if (!isIntType(In) || !isIntType(I.Ty) || intBits(I.Ty) >= intBits(In))
        return failAt(V, "trunc must narrow an integer");
      return std::nullopt;
    case Opcode::SIToFP:
      if (!isIntType(In) || In == Type::I128 || I.Ty != Type::F64)
        return failAt(V, "sitofp requires small int -> f64");
      return std::nullopt;
    case Opcode::FPToSI:
      if (In != Type::F64 || !isIntType(I.Ty) || I.Ty == Type::I128)
        return failAt(V, "fptosi requires f64 -> small int");
      return std::nullopt;
    case Opcode::Bitcast: {
      bool Ok = (In == Type::I64 && I.Ty == Type::F64) ||
                (In == Type::F64 && I.Ty == Type::I64) ||
                (In == Type::Ptr && I.Ty == Type::I64) ||
                (In == Type::I64 && I.Ty == Type::Ptr);
      return Ok ? std::nullopt : failAt(V, "unsupported bitcast");
    }
    case Opcode::ExtractLo:
    case Opcode::ExtractHi:
      if (!isTwoLane(In) || I.Ty != Type::I64)
        return failAt(V, "extract requires a two-lane operand");
      return std::nullopt;
    default:
      QCF_UNREACHABLE("unexpected unary opcode");
    }
  }

  std::optional<std::string> checkBinary(ValueId V, BlockId B, const Inst &I) {
    if (auto Err = checkUse(V, B, I.A))
      return Err;
    if (auto Err = checkUse(V, B, I.B))
      return Err;
    Type LHS = F.valueType(I.A), RHS = F.valueType(I.B);
    switch (I.Op) {
    case Opcode::FAdd:
    case Opcode::FSub:
    case Opcode::FMul:
    case Opcode::FDiv:
      if (LHS != Type::F64 || RHS != Type::F64 || I.Ty != Type::F64)
        return failAt(V, "float op requires f64 operands");
      return std::nullopt;
    case Opcode::Crc32:
    case Opcode::LongMulFold:
      if (LHS != Type::I64 || RHS != Type::I64 || I.Ty != Type::I64)
        return failAt(V, "hash primitive requires i64 operands");
      return std::nullopt;
    case Opcode::PackD128:
      if (LHS != Type::I64 || RHS != Type::I64 || I.Ty != Type::D128)
        return failAt(V, "pack.d128 requires two i64 lanes");
      return std::nullopt;
    case Opcode::PackI128:
      if (LHS != Type::I64 || RHS != Type::I64 || I.Ty != Type::I128)
        return failAt(V, "pack.i128 requires two i64 lanes");
      return std::nullopt;
    case Opcode::RotR:
      // No back-end (or the interpreter) implements a two-lane rotate;
      // reject it here rather than let each lowering mis-handle it.
      if (LHS == Type::I128)
        return failAt(V, "rotr is not defined for i128");
      [[fallthrough]];
    case Opcode::Shl:
    case Opcode::LShr:
    case Opcode::AShr:
      if (!isIntType(LHS) || LHS != I.Ty || !isIntType(RHS))
        return failAt(V, "shift type mismatch");
      return std::nullopt;
    case Opcode::SAddTrap:
    case Opcode::SSubTrap:
    case Opcode::SMulTrap:
      if (I.Ty != Type::I32 && I.Ty != Type::I64 && I.Ty != Type::I128)
        return failAt(V, "trapping arithmetic requires i32/i64/i128");
      [[fallthrough]];
    default:
      if (!isIntType(LHS) || LHS != RHS || LHS != I.Ty)
        return failAt(V, "integer op type mismatch");
      return std::nullopt;
    }
  }

  std::optional<std::string> checkMem(ValueId V, BlockId B, const Inst &I) {
    switch (I.Op) {
    case Opcode::Load:
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (F.valueType(I.A) != Type::Ptr)
        return failAt(V, "load address must be ptr");
      if (I.Ty == Type::Void)
        return failAt(V, "load of void");
      return std::nullopt;
    case Opcode::Store:
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (auto Err = checkUse(V, B, I.B))
        return Err;
      if (F.valueType(I.A) != Type::Ptr)
        return failAt(V, "store address must be ptr");
      if (F.valueType(I.B) != I.Ty)
        return failAt(V, "store value type mismatch");
      return std::nullopt;
    case Opcode::Gep:
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (F.valueType(I.A) != Type::Ptr)
        return failAt(V, "gep base must be ptr");
      if (I.B != INVALID_VALUE) {
        if (auto Err = checkUse(V, B, I.B))
          return Err;
        if (F.valueType(I.B) != Type::I64)
          return failAt(V, "gep index must be i64");
      }
      return std::nullopt;
    case Opcode::AtomicAdd:
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (auto Err = checkUse(V, B, I.B))
        return Err;
      if (F.valueType(I.A) != Type::Ptr)
        return failAt(V, "atomicadd address must be ptr");
      if (I.Ty != Type::I32 && I.Ty != Type::I64)
        return failAt(V, "atomicadd requires i32/i64");
      if (F.valueType(I.B) != I.Ty)
        return failAt(V, "atomicadd operand type mismatch");
      return std::nullopt;
    default:
      QCF_UNREACHABLE("unexpected mem opcode");
    }
  }

  std::optional<std::string> checkCall(ValueId V, BlockId B, const Inst &I) {
    const Module *M = F.parent();
    if (I.Imm >= M->numSymbols())
      return failAt(V, "callee symbol id out of range");
    const RuntimeSig &Sig = M->symbol(static_cast<SymbolId>(I.Imm));
    if (Sig.RetType != I.Ty)
      return failAt(V, "call result type mismatch");
    if (I.B != Sig.ParamTypes.size())
      return failAt(V, "call arity mismatch");
    if (static_cast<size_t>(I.A) + I.B > F.CallArgs.size())
      return failAt(V, "call args out of pool range");
    unsigned Slots = 0;
    for (unsigned K = 0; K != I.B; ++K) {
      ValueId Arg = F.CallArgs[I.A + K];
      if (auto Err = checkUse(V, B, Arg))
        return Err;
      if (Sig.ParamTypes[K] == Type::Void)
        return failAt(V, "call parameter of void type");
      if (F.valueType(Arg) != Sig.ParamTypes[K])
        return failAt(V, "call argument type mismatch");
      Slots += isTwoLane(Sig.ParamTypes[K]) ? 2 : 1;
    }
    // The runtime ABI passes every argument in integer registers; two-lane
    // values take two slots and there are six (see runtime/Runtime.h).
    if (Slots > 6)
      return failAt(V, "call exceeds the 6 argument slots of the runtime ABI");
    return std::nullopt;
  }

  std::optional<std::string> checkPhi(ValueId V, BlockId B, const Inst &I) {
    if (static_cast<size_t>(I.A) + I.B > F.PhiIns.size())
      return failAt(V, "phi incomings out of pool range");
    std::span<const BlockId> Preds = Cfg.preds(B);
    if (I.B != Preds.size())
      return failAt(V, "phi incoming count does not match predecessors");
    for (unsigned K = 0; K != I.B; ++K) {
      const PhiIn &In = F.PhiIns[I.A + K];
      if (In.Pred == INVALID_BLOCK || In.Val == INVALID_VALUE)
        return failAt(V, "phi incoming slot left unfilled");
      if (In.Pred >= F.numBlocks())
        return failAt(V, "phi incoming block out of range");
      if (std::find(Preds.begin(), Preds.end(), In.Pred) == Preds.end())
        return failAt(V, "phi incoming from a non-predecessor");
      for (unsigned J = 0; J != K; ++J)
        if (F.PhiIns[I.A + J].Pred == In.Pred)
          return failAt(V, "duplicate phi incoming block");
      if (In.Val >= F.numInsts())
        return failAt(V, "phi incoming value out of range");
      if (F.valueType(In.Val) != I.Ty)
        return failAt(V, "phi incoming type mismatch");
      // The incoming def must dominate the end of the incoming block.
      BlockId DefB = DefBlock[In.Val];
      if (DefB != In.Pred && !DT.dominates(DefB, In.Pred))
        return failAt(V, "phi incoming does not dominate incoming edge");
    }
    return std::nullopt;
  }

  std::optional<std::string> checkTerm(ValueId V, BlockId B, const Inst &I) {
    switch (I.Op) {
    case Opcode::Br: // Targets are checked with the block structure.
      return std::nullopt;
    case Opcode::CondBr:
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (F.valueType(I.A) != Type::I1)
        return failAt(V, "branch condition must be i1");
      return std::nullopt;
    case Opcode::Ret:
      if (F.returnType() == Type::Void) {
        if (I.A != INVALID_VALUE)
          return failAt(V, "void function returns a value");
        return std::nullopt;
      }
      if (I.A == INVALID_VALUE)
        return failAt(V, "non-void function returns no value");
      if (auto Err = checkUse(V, B, I.A))
        return Err;
      if (F.valueType(I.A) != F.returnType())
        return failAt(V, "return value type mismatch");
      return std::nullopt;
    case Opcode::Unreachable:
      return std::nullopt;
    default:
      QCF_UNREACHABLE("unexpected terminator opcode");
    }
  }

  std::optional<std::string> checkOther(ValueId V, BlockId B, const Inst &I) {
    switch (I.Op) {
    case Opcode::Param:
      if (B != 0 || V != I.A || I.A >= F.numParams())
        return failAt(V, "param instruction out of place");
      if (I.Ty != F.paramTypes()[I.A])
        return failAt(V, "param type mismatch");
      return std::nullopt;
    case Opcode::StackSlot:
      if (I.Ty != Type::Ptr)
        return failAt(V, "stackslot must yield ptr");
      if (I.Imm == 0 || I.Imm > (1u << 20))
        return failAt(V, "stackslot size unreasonable");
      return std::nullopt;
    default:
      QCF_UNREACHABLE("unexpected other opcode");
    }
  }

  const Function &F;
  CfgInfo &Cfg;
  DomTree &DT;
  std::vector<BlockId> &DefBlock;
};

} // namespace

std::optional<std::string> qir::verify(const Function &F) {
  VerifyScratch S;
  return Verifier(F, S).run();
}

std::optional<std::string> qir::verify(const Module &M) {
  VerifyScratch S;
  for (const auto &F : M.functions())
    if (auto Err = Verifier(*F, S).run())
      return Err;
  return std::nullopt;
}

void qir::verifyOrDie(const Module &M, const char *Who) {
  std::optional<std::string> Err = verify(M);
  if (!Err)
    return;
  fprintf(stderr, "%s\n", Err->c_str());
  reportFatalError(
      ("QIR verification failed (" + std::string(Who) + ")").c_str());
}
