//===- tests/DirectTest.cpp - DirectEmit back-end tests --------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "direct/Cfi.h"
#include "direct/DirectEmit.h"
#include "tests/Corpus.h"
#include "tests/DiffHarness.h"
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

TEST(Direct, CorpusDifferentialAgainstInterpreter) {
  direct::DirectBackend B;
  runCorpusDifferential(B);
}

TEST(Direct, SimpleFunctionRuns) {
  qir::Module M;
  qir::Function *F =
      M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  direct::DirectBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<int64_t (*)(int64_t, int64_t)>("f");
  EXPECT_EQ(Fn(40, 2), 42);
  EXPECT_EQ(Fn(-1, 1), 0);
}

TEST(Direct, LoopWithManyValuesSpills) {
  // More live values than scratch registers forces spilling.
  qir::Module M;
  qir::Function *F = M.createFunction("spilly", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId X = F->paramValue(0);
  std::vector<ValueId> Vals;
  for (int I = 0; I != 20; ++I)
    Vals.push_back(B.mul(X, B.constInt(Type::I64, I + 1)));
  // Combine in reverse order so everything stays live a long time.
  ValueId Acc = B.constInt(Type::I64, 0);
  for (int I = 19; I >= 0; --I)
    Acc = B.add(Acc, Vals[I]);
  B.ret(Acc);
  ASSERT_EQ(qir::verify(M), std::nullopt);

  direct::DirectBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<int64_t (*)(int64_t)>("spilly");
  // sum x*i for i in 1..20 = x * 210
  EXPECT_EQ(Fn(1), 210);
  EXPECT_EQ(Fn(7), 7 * 210);
}

TEST(Direct, CompiledComparatorDrivesRuntimeSort) {
  qir::Module M;
  rt::declareRuntime(M);
  qir::Function *F =
      M.createFunction("cmp", {Type::Ptr, Type::Ptr}, Type::I64);
  Builder B(F);
  ValueId A = B.load(Type::I64, F->paramValue(0));
  ValueId Bv = B.load(Type::I64, F->paramValue(1));
  ValueId Lt = B.icmp(CmpPred::SLt, A, Bv);
  ValueId Gt = B.icmp(CmpPred::SGt, A, Bv);
  B.ret(B.sub(B.zext(Type::I64, Gt), B.zext(Type::I64, Lt)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  direct::DirectBackend BE;
  auto C = BE.compile(M);
  void *Cmp = C->entry("cmp");
  int64_t Data[] = {9, 1, 8, 2, 7, 3};
  rt_sort(Data, 6, 8, Cmp);
  int64_t Expect[] = {1, 2, 3, 7, 8, 9};
  for (int I = 0; I != 6; ++I)
    EXPECT_EQ(Data[I], Expect[I]);
}

TEST(Direct, TrapUnwindsToGuard) {
  Corpus C = buildCorpus();
  direct::DirectBackend BE;
  auto Compiled = BE.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t, int64_t)>("traps");
  EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(1, 2); }), rt::TrapCode::None);
  EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(INT64_MAX, 1); }),
            rt::TrapCode::Overflow);
}

TEST(Direct, CfiRecordsAreWellFormed) {
  Corpus C = buildCorpus();
  direct::DirectBackend BE;
  auto Compiled = BE.compile(*C.M);
  auto *DM = static_cast<direct::DirectModule *>(Compiled.get());
  EXPECT_FALSE(DM->cfiBytes().empty());
  for (const auto &F : C.M->functions()) {
    size_t Off = DM->cfiRecordOffset(F->name());
    ASSERT_NE(Off, SIZE_MAX) << F->name();
    EXPECT_TRUE(direct::validateCfi(DM->cfiBytes(), Off,
                                    DM->codeSize(F->name())))
        << "malformed CFI for " << F->name();
  }

  // The disk payload is the image section alone, so a warm-installed
  // module has no CFI table.
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Compiled->serialize(Blob));
  auto Warm = BE.deserialize(Blob.data(), Blob.size());
  ASSERT_NE(Warm, nullptr);
  auto *WM = static_cast<direct::DirectModule *>(Warm.get());
  EXPECT_TRUE(WM->cfiBytes().empty());
  for (const auto &F : C.M->functions())
    EXPECT_EQ(WM->cfiRecordOffset(F->name()), SIZE_MAX) << F->name();
}

TEST(Direct, CompileTimeBreakdownHasAnalysisAndCodegen) {
  Corpus C = buildCorpus();
  direct::DirectBackend BE;
  TimeTrace Trace;
  auto Compiled = BE.compile(*C.M, backend::CompileOptions(&Trace));
  EXPECT_GT(Trace.totalNs("direct.analysis"), 0u);
  EXPECT_GT(Trace.totalNs("direct.codegen"), 0u);
  EXPECT_GT(Trace.totalNs("direct.analysis.liveness"), 0u);
  // Liveness is nested inside the analysis scope.
  EXPECT_GE(Trace.totalNs("direct.analysis"),
            Trace.totalNs("direct.analysis.liveness"));
}

TEST(Direct, ManyBlocksAndBranches) {
  // A chain of diamonds stressing edge moves and fallthrough layout.
  qir::Module M;
  qir::Function *F = M.createFunction("chain", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId Cur = F->paramValue(0);
  for (int I = 0; I != 10; ++I) {
    BlockId T = B.createBlock(), E = B.createBlock(), J = B.createBlock();
    ValueId Bit = B.and_(Cur, B.constInt(Type::I64, 1));
    ValueId IsOdd = B.icmp(CmpPred::Eq, Bit, B.constInt(Type::I64, 1));
    B.condBr(IsOdd, T, E);
    B.startBlock(T);
    ValueId VT = B.add(Cur, B.constInt(Type::I64, 3));
    B.br(J);
    B.startBlock(E);
    ValueId VE = B.lshr(Cur, B.constInt(Type::I64, 1));
    B.br(J);
    B.startBlock(J);
    ValueId P = B.phi(Type::I64, 2);
    B.setPhiIncoming(P, 0, T, VT);
    B.setPhiIncoming(P, 1, E, VE);
    Cur = P;
  }
  B.ret(Cur);
  ASSERT_EQ(qir::verify(M), std::nullopt) << qir::verify(M).value_or("");

  direct::DirectBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<uint64_t (*)(uint64_t)>("chain");
  // Reference in C++.
  auto Ref = [](uint64_t X) {
    for (int I = 0; I != 10; ++I)
      X = (X & 1) ? X + 3 : X >> 1;
    return X;
  };
  for (uint64_t X : {0ull, 1ull, 27ull, 1000000007ull})
    EXPECT_EQ(Fn(X), Ref(X)) << X;
}
