//===- tests/QirTest.cpp - QIR unit tests ---------------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "qir/Builder.h"
#include "qir/Cfg.h"
#include "qir/Print.h"
#include "qir/Verify.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::qir;

namespace {

/// Builds a straight-line arithmetic function: i64 f(i64 a, i64 b).
Function *buildArith(Module &M) {
  Function *F = M.createFunction("arith", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId A = F->paramValue(0);
  ValueId Bv = F->paramValue(1);
  ValueId Sum = B.add(A, Bv);
  ValueId Prod = B.mul(Sum, A);
  ValueId Shifted = B.shl(Prod, B.constInt(Type::I64, 3));
  B.ret(Shifted);
  return F;
}

} // namespace

TEST(QirBuilder, StraightLineFunctionVerifies) {
  Module M;
  Function *F = buildArith(M);
  EXPECT_EQ(verify(*F), std::nullopt) << verify(*F).value_or("");
  EXPECT_EQ(F->numBlocks(), 1u);
  EXPECT_EQ(F->numParams(), 2u);
}

TEST(QirBuilder, InstRecordIs32Bytes) { EXPECT_EQ(sizeof(Inst), 32u); }

TEST(QirBuilder, ParamValuesAreLeadingInsts) {
  Module M;
  Function *F = buildArith(M);
  EXPECT_EQ(F->inst(F->paramValue(0)).Op, Opcode::Param);
  EXPECT_EQ(F->inst(F->paramValue(1)).Op, Opcode::Param);
  EXPECT_EQ(F->valueType(F->paramValue(0)), Type::I64);
}

TEST(QirBuilder, LoopWithPhisVerifies) {
  Module M;
  Function *F = M.createFunction("loop", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId N = F->paramValue(0);

  BlockId Header = B.createBlock();
  BlockId Body = B.createBlock();
  BlockId Exit = B.createBlock();

  ValueId Zero = B.constInt(Type::I64, 0);
  B.br(Header);

  B.startBlock(Header);
  ValueId I = B.phi(Type::I64, 2);
  ValueId Acc = B.phi(Type::I64, 2);
  ValueId Cond = B.icmp(CmpPred::SLt, I, N);
  B.condBr(Cond, Body, Exit);

  B.startBlock(Body);
  ValueId AccNext = B.add(Acc, I);
  ValueId One = B.constInt(Type::I64, 1);
  ValueId INext = B.add(I, One);
  B.br(Header);

  B.startBlock(Exit);
  B.ret(Acc);

  B.setPhiIncoming(I, 0, B.entryBlock(), Zero);
  B.setPhiIncoming(I, 1, Body, INext);
  B.setPhiIncoming(Acc, 0, B.entryBlock(), Zero);
  B.setPhiIncoming(Acc, 1, Body, AccNext);

  auto Err = verify(*F);
  EXPECT_EQ(Err, std::nullopt) << Err.value_or("");
}

TEST(QirVerifier, RejectsUnfilledPhi) {
  Module M;
  Function *F = M.createFunction("badphi", {}, Type::I64);
  Builder B(F);
  BlockId Next = B.createBlock();
  B.br(Next);
  B.startBlock(Next);
  B.phi(Type::I64, 1); // never filled
  B.ret(B.constInt(Type::I64, 0));
  auto Err = verify(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("phi"), std::string::npos);
}

TEST(QirVerifier, RejectsTypeMismatchedStore) {
  Module M;
  Function *F = M.createFunction("badstore", {Type::Ptr}, Type::Void);
  Builder B(F);
  ValueId P = F->paramValue(0);
  ValueId V = B.constInt(Type::I32, 1);
  B.store(V, P);
  // Corrupt the store's recorded type.
  F->Insts[F->numInsts() - 1].Ty = Type::I64;
  B.ret();
  auto Err = verify(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("store"), std::string::npos);
}

TEST(QirVerifier, RejectsUseBeforeDef) {
  Module M;
  Function *F = M.createFunction("usebeforedef", {}, Type::I64);
  Builder B(F);
  ValueId C = B.constInt(Type::I64, 1);
  B.ret(C);
  // Manually corrupt: make the ret reference a later (nonexistent-at-use)
  // instruction by swapping the operand to itself + 1.
  F->Insts[F->numInsts() - 1].A = F->numInsts() - 1;
  auto Err = verify(*F);
  ASSERT_TRUE(Err.has_value());
}

TEST(QirVerifier, RejectsMissingTerminator) {
  Module M;
  Function *F = M.createFunction("noterm", {}, Type::Void);
  Builder B(F);
  B.constInt(Type::I64, 1);
  auto Err = verify(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("terminator"), std::string::npos);
}

TEST(QirVerifier, OutOfRangeIdsAreErrorsNotAborts) {
  // verify() is total: ids a corrupt function carries come back as
  // errors, whichever check reaches them first.
  auto Build = [](Module &M) {
    Function *F = M.createFunction("ids", {Type::I64}, Type::I64);
    Builder B(F);
    ValueId P = F->paramValue(0);
    BlockId Next = B.createBlock();
    B.br(Next);
    B.startBlock(Next);
    B.ret(P);
    return F;
  };
  {
    Module M;
    Function *F = Build(M);
    F->Insts[1].A = 7; // br to a block the function lacks
    auto Err = verify(*F);
    ASSERT_TRUE(Err.has_value());
    EXPECT_NE(Err->find("branch target out of range"), std::string::npos);
  }
  {
    Module M;
    Function *F = Build(M);
    F->Insts[2].A = 99; // ret of a value the function lacks
    auto Err = verify(*F);
    ASSERT_TRUE(Err.has_value());
    EXPECT_NE(Err->find("operand id out of range"), std::string::npos);
  }
  {
    Module M;
    Function *F = Build(M);
    F->Blocks.back().End = 40; // a block running past the instructions
    auto Err = verify(*F);
    ASSERT_TRUE(Err.has_value());
    EXPECT_NE(Err->find("ends past the last instruction"), std::string::npos);
  }
}

TEST(QirVerifier, RejectsStoreAsOperand) {
  // A store carries the stored value's type but defines no value.
  Module M;
  Function *F = M.createFunction("st", {Type::Ptr, Type::I64}, Type::I64);
  Builder B(F);
  B.store(F->paramValue(1), F->paramValue(0));
  ValueId Store = F->numInsts() - 1;
  B.ret(B.add(Store, Store));
  auto Err = verify(*F);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("operand is a store"), std::string::npos);
}

TEST(QirCall, SignatureCheckedAndPrinted) {
  Module M;
  SymbolId Sym =
      M.declareRuntime("rt_probe", Type::I64, {Type::Ptr, Type::I64});
  Function *F = M.createFunction("caller", {Type::Ptr}, Type::I64);
  Builder B(F);
  ValueId P = F->paramValue(0);
  ValueId K = B.constInt(Type::I64, 99);
  ValueId R = B.call(Sym, {P, K});
  B.ret(R);
  auto Err = verify(*F);
  EXPECT_EQ(Err, std::nullopt) << Err.value_or("");
  std::string Text = printFunction(*F);
  EXPECT_NE(Text.find("call i64 @rt_probe"), std::string::npos);
}

TEST(QirModule, RuntimeSymbolsDeduplicated) {
  Module M;
  SymbolId A = M.declareRuntime("f", Type::Void, {});
  SymbolId B = M.declareRuntime("f", Type::Void, {});
  SymbolId C = M.declareRuntime("g", Type::Void, {});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(M.numSymbols(), 2u);
}

TEST(QirPrint, ContainsPaperStyleMnemonics) {
  Module M;
  Function *F = M.createFunction("hashish", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId X = F->paramValue(0);
  ValueId Seed = B.constInt(Type::I64, 0x1234);
  ValueId H1 = B.crc32(Seed, X);
  ValueId H2 = B.rotr(H1, B.constInt(Type::I64, 32));
  B.ret(H2);
  std::string Text = printFunction(*F);
  EXPECT_NE(Text.find("crc32"), std::string::npos);
  EXPECT_NE(Text.find("rotr"), std::string::npos);
  EXPECT_EQ(verify(*F), std::nullopt);
}

// --- CFG analyses -----------------------------------------------------------

namespace {

/// Builds a diamond: entry -> (left|right) -> merge.
Function *buildDiamond(Module &M) {
  Function *F = M.createFunction("diamond", {Type::I1}, Type::I64);
  Builder B(F);
  BlockId L = B.createBlock(), R = B.createBlock(), Mg = B.createBlock();
  ValueId C1 = B.constInt(Type::I64, 1);
  ValueId C2 = B.constInt(Type::I64, 2);
  B.condBr(F->paramValue(0), L, R);
  B.startBlock(L);
  B.br(Mg);
  B.startBlock(R);
  B.br(Mg);
  B.startBlock(Mg);
  ValueId P = B.phi(Type::I64, 2);
  B.setPhiIncoming(P, 0, L, C1);
  B.setPhiIncoming(P, 1, R, C2);
  B.ret(P);
  return F;
}

} // namespace

TEST(QirCfg, DiamondPredsAndRpo) {
  Module M;
  Function *F = buildDiamond(M);
  ASSERT_EQ(verify(*F), std::nullopt) << verify(*F).value_or("");
  CfgInfo Cfg(*F);
  EXPECT_EQ(Cfg.rpo().size(), 4u);
  EXPECT_EQ(Cfg.rpo().front(), 0u);
  EXPECT_EQ(Cfg.numPreds(3), 2u);
  EXPECT_EQ(Cfg.numPreds(0), 0u);
  // RPO: entry before both arms; arms before merge.
  EXPECT_LT(Cfg.rpoIndex(0), Cfg.rpoIndex(1));
  EXPECT_LT(Cfg.rpoIndex(1), Cfg.rpoIndex(3));
  EXPECT_LT(Cfg.rpoIndex(2), Cfg.rpoIndex(3));
}

TEST(QirCfg, DiamondDominators) {
  Module M;
  Function *F = buildDiamond(M);
  CfgInfo Cfg(*F);
  DomTree DT(*F, Cfg);
  EXPECT_EQ(DT.idom(0), INVALID_BLOCK);
  EXPECT_EQ(DT.idom(1), 0u);
  EXPECT_EQ(DT.idom(2), 0u);
  EXPECT_EQ(DT.idom(3), 0u);
  EXPECT_TRUE(DT.dominates(0, 3));
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_TRUE(DT.dominates(3, 3));
}

TEST(QirCfg, LoopDetection) {
  Module M;
  Function *F = M.createFunction("loopy", {Type::I64}, Type::I64);
  Builder B(F);
  BlockId H = B.createBlock(), Body = B.createBlock(), E = B.createBlock();
  ValueId Zero = B.constInt(Type::I64, 0);
  B.br(H);
  B.startBlock(H);
  ValueId I = B.phi(Type::I64, 2);
  ValueId C = B.icmp(CmpPred::SLt, I, F->paramValue(0));
  B.condBr(C, Body, E);
  B.startBlock(Body);
  ValueId In = B.add(I, B.constInt(Type::I64, 1));
  B.br(H);
  B.startBlock(E);
  B.ret(I);
  B.setPhiIncoming(I, 0, 0, Zero);
  B.setPhiIncoming(I, 1, Body, In);
  ASSERT_EQ(verify(*F), std::nullopt) << verify(*F).value_or("");

  CfgInfo Cfg(*F);
  DomTree DT(*F, Cfg);
  LoopInfo LI(*F, Cfg, DT);
  EXPECT_EQ(LI.numLoops(), 1u);
  EXPECT_TRUE(LI.isLoopHeader(H));
  EXPECT_EQ(LI.loopDepth(H), 1u);
  EXPECT_EQ(LI.loopDepth(Body), 1u);
  EXPECT_EQ(LI.loopDepth(0), 0u);
  EXPECT_EQ(LI.loopDepth(E), 0u);
}

TEST(QirCfg, UnreachableBlockExcluded) {
  Module M;
  Function *F = M.createFunction("dead", {}, Type::Void);
  Builder B(F);
  BlockId Dead = B.createBlock();
  BlockId End = B.createBlock();
  B.br(End);
  B.startBlock(Dead);
  B.ret();
  B.startBlock(End);
  B.ret();
  CfgInfo Cfg(*F);
  EXPECT_FALSE(Cfg.isReachable(Dead));
  EXPECT_TRUE(Cfg.isReachable(End));
  EXPECT_EQ(Cfg.rpo().size(), 2u);
}

TEST(QirCfg, ReusedAnalysisMatchesFresh) {
  // CfgInfo and DomTree reuse their storage across functions; a reused
  // analysis must answer exactly as a fresh one.
  Module M;
  Function *Diamond = buildDiamond(M);
  Function *Line = M.createFunction("line", {}, Type::Void);
  {
    Builder B(Line);
    BlockId Next = B.createBlock();
    B.br(Next);
    B.startBlock(Next);
    B.ret();
  }
  CfgInfo Reused;
  DomTree ReusedDT;
  for (Function *F : {Diamond, Line, Diamond}) {
    Reused.compute(*F);
    ReusedDT.compute(*F, Reused);
    CfgInfo Fresh(*F);
    DomTree FreshDT(*F, Fresh);
    ASSERT_EQ(Reused.rpo(), Fresh.rpo());
    for (BlockId B = 0; B != F->numBlocks(); ++B) {
      EXPECT_TRUE(std::ranges::equal(Reused.preds(B), Fresh.preds(B)));
      EXPECT_EQ(ReusedDT.idom(B), FreshDT.idom(B));
    }
  }
}

TEST(QirScratch, BackendsCanUseScratchSlot) {
  Module M;
  Function *F = buildArith(M);
  for (uint32_t I = 0; I != F->numInsts(); ++I)
    F->inst(I).Scratch = I * 7;
  for (uint32_t I = 0; I != F->numInsts(); ++I)
    EXPECT_EQ(F->inst(I).Scratch, I * 7);
}

TEST(QirOpcode, PredicateHelpers) {
  EXPECT_EQ(swapCmpPred(CmpPred::SLt), CmpPred::SGt);
  EXPECT_EQ(swapCmpPred(CmpPred::Eq), CmpPred::Eq);
  EXPECT_EQ(invertCmpPred(CmpPred::SLt), CmpPred::SGe);
  EXPECT_EQ(invertCmpPred(CmpPred::Ne), CmpPred::Eq);
}

TEST(QirOpcode, SideEffectClassification) {
  EXPECT_TRUE(hasSideEffects(Opcode::Store));
  EXPECT_TRUE(hasSideEffects(Opcode::Call));
  EXPECT_TRUE(hasSideEffects(Opcode::SAddTrap));
  EXPECT_TRUE(hasSideEffects(Opcode::SDiv));
  EXPECT_FALSE(hasSideEffects(Opcode::Add));
  EXPECT_FALSE(hasSideEffects(Opcode::Load));
  EXPECT_FALSE(hasSideEffects(Opcode::Crc32));
}
