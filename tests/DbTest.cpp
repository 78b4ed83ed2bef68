//===- tests/DbTest.cpp - Database engine tests ----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Engine tests: datagen determinism, plan compilation, hand-checkable
/// query results, and the key integration property — every back-end
/// produces identical results for every benchmark query.
///
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include "qir/Builder.h"
#include "qir/Parse.h"
#include "qir/Print.h"
#include "runtime/Runtime.h"
#include <algorithm>
#include <cctype>
#include <gtest/gtest.h>
#include <map>

using namespace qcf;
using namespace qcf::db;

namespace {

/// Shared catalogs (generated once; tests are read-only).
Catalog &tpchCatalog() {
  static Catalog C;
  static bool Done = false;
  if (!Done) {
    generateTpchLike(C, 0.5);
    Done = true;
  }
  return C;
}

Catalog &tpcdsCatalog() {
  static Catalog C;
  static bool Done = false;
  if (!Done) {
    generateTpcdsLike(C, 0.5);
    Done = true;
  }
  return C;
}

rt::OutputBuffer runWith(const Query &Q, const Catalog &Cat,
                         const std::string &BackendName,
                         ExecResult *ResultOut = nullptr) {
  auto BE = backend::createBackend(BackendName);
  CompiledPlan Plan = compileQuery(Q, Cat);
  rt::OutputBuffer Out;
  ExecResult R = executeQuery(Plan, *BE, Cat, &Out);
  EXPECT_FALSE(R.Trapped) << Q.Name << " trapped on " << BackendName;
  if (ResultOut)
    *ResultOut = R;
  return Out;
}

} // namespace

TEST(Datagen, DeterministicAndShaped) {
  Catalog A, B;
  generateTpchLike(A, 0.25);
  generateTpchLike(B, 0.25);
  Table *LiA = A.find("lineitem");
  Table *LiB = B.find("lineitem");
  ASSERT_NE(LiA, nullptr);
  ASSERT_EQ(LiA->numRows(), LiB->numRows());
  EXPECT_GT(LiA->numRows(), 300u);
  for (size_t I = 0; I < LiA->numRows(); I += 97)
    EXPECT_EQ(LiA->column("l_orderkey")->i64At(I),
              LiB->column("l_orderkey")->i64At(I));
  // Orders reference valid customers.
  Table *Ord = A.find("orders");
  size_t NumCust = A.find("customer")->numRows();
  for (size_t I = 0; I != Ord->numRows(); ++I) {
    int64_t CK = Ord->column("o_custkey")->i64At(I);
    EXPECT_GE(CK, 0);
    EXPECT_LT(static_cast<size_t>(CK), NumCust);
  }
}

TEST(Datagen, TpcdsSkewedItems) {
  Catalog C;
  generateTpcdsLike(C, 0.5);
  Table *SS = C.find("store_sales");
  ASSERT_NE(SS, nullptr);
  size_t NumItems = C.find("item")->numRows();
  // Zipf skew: the bottom decile of item ids gets far more than 10%.
  size_t Low = 0;
  const Column *SI = SS->column("ss_item_sk");
  for (size_t I = 0; I != SS->numRows(); ++I)
    Low += static_cast<size_t>(SI->i64At(I)) < NumItems / 10;
  EXPECT_GT(Low, SS->numRows() / 5);
}

TEST(DbCodegen, PlansCompileAndVerify) {
  Catalog &C = tpchCatalog();
  for (const Query &Q : tpchQueries()) {
    CompiledPlan Plan = compileQuery(Q, C);
    EXPECT_GE(Plan.Pipelines.size(), 1u) << Q.Name;
    EXPECT_GT(Plan.Module->functions().size(), 0u) << Q.Name;
  }
}

/// FNV-1a of a module's printed QIR with every `const ptr` operand masked:
/// column bases and the plan's string arena move between runs, and
/// nothing else in a lowered plan may.
uint64_t maskedQirHash(const qir::Module &M) {
  static constexpr std::string_view PtrConst = "const ptr 0x";
  std::string Text = qir::printModule(M);
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](char C) {
    H = (H ^ static_cast<unsigned char>(C)) * 0x100000001b3ull;
  };
  for (size_t I = 0; I != Text.size();) {
    if (Text.compare(I, PtrConst.size(), PtrConst) == 0) {
      for (char C : PtrConst)
        Mix(C);
      I += PtrConst.size();
      while (I != Text.size() &&
             std::isxdigit(static_cast<unsigned char>(Text[I])))
        ++I;
      continue;
    }
    Mix(Text[I++]);
  }
  return H;
}

TEST(DbCodegen, LoweredQirIsUnchanged) {
  // Recorded from the lowering before column bindings went flat and the
  // runtime symbol table became per-process: a change to lowering's output
  // must show up here, and be re-recorded on purpose.
  static const std::map<std::string, uint64_t> Expected = {
      {"h1", 0xc5bc5fafe56fdbb2ull},
      {"h3", 0x194fdd559e58b4e7ull},
      {"h3b", 0x8b33083f3a4ac397ull},
      {"h5", 0xb38aa3543f0948daull},
      {"h6", 0x872b8ee8d0b04e43ull},
      {"h6b", 0xe3ede7666104cc3full},
      {"h10", 0xeb69fb048dbfe897ull},
      {"h12", 0xe213fa0392990a39ull},
      {"h14", 0xef64f9c63d913dafull},
      {"h18", 0x3c39c50a638f6a3dull},
      {"h19", 0x310749c0fd75eb51ull},
      {"ds_brand_m1", 0xe24a361da31f5bf7ull},
      {"ds_brand_m2", 0xda5394b6440f934eull},
      {"ds_brand_m3", 0xcef1ff56f8fde813ull},
      {"ds_state_a", 0xa94ef8de6a8f81afull},
      {"ds_state_b", 0xab8fac227c0774d4ull},
      {"ds_cat_books", 0x7a29d6b9656ff67full},
      {"ds_cat_music", 0xc66be7b99c62d9c0ull},
      {"ds_cat_home", 0x429c297399f55df7ull},
      {"ds_year_a", 0x4bec733fba1d4cfaull},
      {"ds_year_b", 0x5459171fff3bb1b5ull},
      {"ds_profit", 0x674370d3183f0edaull},
      {"ds_share_books", 0x4ee6bf30ad8e8804ull},
  };
  std::pair<Catalog *, std::vector<Query>> Suites[2] = {
      {&tpchCatalog(), tpchQueries()}, {&tpcdsCatalog(), tpcdsQueries()}};
  size_t Checked = 0;
  for (const auto &[Cat, Queries] : Suites)
    for (const Query &Q : Queries) {
      uint64_t Got = maskedQirHash(*compileQuery(Q, *Cat).Module);
      auto It = Expected.find(Q.Name);
      EXPECT_TRUE(It != Expected.end() && It->second == Got)
          << "{\"" << Q.Name << "\", 0x" << std::hex << Got << "ull},";
      ++Checked;
    }
  EXPECT_EQ(Checked, Expected.size());
}

TEST(DbCodegen, LoweredModulesShareOneRuntimeSymbolTable) {
  auto ExpectSameTable = [](const qir::Module &X, const qir::Module &Y) {
    ASSERT_EQ(X.numSymbols(), Y.numSymbols());
    for (qir::SymbolId S = 0; S != X.numSymbols(); ++S) {
      const qir::RuntimeSig &A = X.symbol(S), &B = Y.symbol(S);
      EXPECT_EQ(A.Name, B.Name);
      EXPECT_EQ(A.RetType, B.RetType) << A.Name;
      EXPECT_EQ(A.ParamTypes, B.ParamTypes) << A.Name;
      EXPECT_EQ(A.Address, B.Address) << A.Name;
      EXPECT_EQ(A.Address, rt::runtimeSymbolAddress(A.Name)) << A.Name;
    }
  };
  CompiledPlan P1 = compileQuery(tpchQueries()[0], tpchCatalog());
  CompiledPlan P2 = compileQuery(tpcdsQueries()[0], tpcdsCatalog());
  ASSERT_GT(P1.Module->numSymbols(), 0u);
  // One table, not two equal copies.
  EXPECT_EQ(P1.Module->symbols(), P2.Module->symbols());
  ExpectSameTable(*P1.Module, *P2.Module);

  // A .qir module that calls every symbol in id order declares them one
  // by one, and must come out with the same table.
  qir::Module Src;
  Src.shareSymbols(P1.Module->symbols());
  qir::Type Params[] = {qir::Type::Ptr, qir::Type::I64, qir::Type::I128,
                        qir::Type::D128};
  qir::Function *F =
      Src.createFunction("calls", {std::begin(Params), std::end(Params)},
                         qir::Type::Void);
  qir::Builder B(F);
  for (qir::SymbolId S = 0; S != Src.numSymbols(); ++S) {
    std::vector<qir::ValueId> Args;
    for (qir::Type T : Src.symbol(S).ParamTypes)
      Args.push_back(static_cast<qir::ValueId>(
          std::find(std::begin(Params), std::end(Params), T) -
          std::begin(Params)));
    B.call(S, Args.data(), static_cast<unsigned>(Args.size()));
  }
  B.ret();
  std::string Err;
  std::unique_ptr<qir::Module> Parsed = qir::parseModule(
      qir::printModule(Src), &Err, rt::runtimeSymbolAddress);
  ASSERT_NE(Parsed, nullptr) << Err;
  ExpectSameTable(*Parsed, *P1.Module);
}

TEST(DbExec, H6HandChecked) {
  // Recompute h6's single aggregate in plain C++ and compare.
  Catalog &C = tpchCatalog();
  Table *Li = C.find("lineitem");
  const Column *Ship = Li->column("l_shipdate");
  const Column *Disc = Li->column("l_discount");
  const Column *Qty = Li->column("l_quantity");
  const Column *Price = Li->column("l_extendedprice");
  int64_t Lo = rt::dateFromYmd(1994, 1, 1), Hi = rt::dateFromYmd(1995, 1, 1);
  Int128 Revenue = 0;
  int64_t N = 0;
  for (size_t I = 0; I != Li->numRows(); ++I) {
    int32_t D = Ship->i32At(I);
    Int128 Dc = Disc->decimalAt(I);
    if (D >= Lo && D < Hi && Dc >= 5 && Dc <= 7 &&
        Qty->decimalAt(I) < 2400) {
      Revenue += Price->decimalAt(I) * Dc;
      ++N;
    }
  }
  ASSERT_GT(N, 0) << "test data produced an empty h6 result";

  const Query Q = [&] {
    for (Query &Cand : tpchQueries())
      if (Cand.Name == "h6")
        return std::move(Cand);
    QCF_UNREACHABLE("h6 missing");
  }();
  rt::OutputBuffer Out = runWith(Q, C, "DirectEmit");
  ASSERT_EQ(Out.numRows(), 1u);
  size_t NumCells;
  const rt::OutputBuffer::Cell *Row = Out.row(0, &NumCells);
  ASSERT_EQ(NumCells, 2u);
  EXPECT_EQ(Row[0].I128V, Revenue);
  EXPECT_EQ(Row[1].I64V, N);
}

TEST(DbExec, H1GroupsAreSorted) {
  Catalog &C = tpchCatalog();
  const Query Q = [&] {
    for (Query &Cand : tpchQueries())
      if (Cand.Name == "h1")
        return std::move(Cand);
    QCF_UNREACHABLE("h1 missing");
  }();
  rt::OutputBuffer Out = runWith(Q, C, "DirectEmit");
  // 3 return flags x 2 statuses = up to 6 groups.
  EXPECT_GE(Out.numRows(), 4u);
  EXPECT_LE(Out.numRows(), 6u);
  std::string Text = Out.toText();
  // Sorted by flag: A rows precede N rows precede R rows.
  EXPECT_LT(Text.find("A|"), Text.find("N|"));
  EXPECT_LT(Text.find("N|"), Text.find("R|"));
}

TEST(DbExec, TopKLimitRespected) {
  Catalog &C = tpchCatalog();
  const Query Q = [&] {
    for (Query &Cand : tpchQueries())
      if (Cand.Name == "h3")
        return std::move(Cand);
    QCF_UNREACHABLE("h3 missing");
  }();
  rt::OutputBuffer Out = runWith(Q, C, "DirectEmit");
  EXPECT_LE(Out.numRows(), 10u);
  EXPECT_GE(Out.numRows(), 1u);
  // Revenue column descends.
  Int128 Prev;
  for (size_t R = 0; R != Out.numRows(); ++R) {
    size_t N;
    const rt::OutputBuffer::Cell *Row = Out.row(R, &N);
    if (R)
      EXPECT_LE(Row[1].I128V, Prev);
    Prev = Row[1].I128V;
  }
}

TEST(DbIntegration, AllBackendsAgreeOnAllQueries) {
  struct Suite {
    Catalog *Cat;
    std::vector<Query> Queries;
  };
  Suite Suites[2] = {{&tpchCatalog(), tpchQueries()},
                     {&tpcdsCatalog(), tpcdsQueries()}};

  for (Suite &S : Suites) {
    for (const Query &Q : S.Queries) {
      SCOPED_TRACE(Q.Name);
      CompiledPlan Plan = compileQuery(Q, *S.Cat);
      rt::OutputBuffer Ref;
      {
        auto BE = backend::createBackend("Interpreter");
        ASSERT_FALSE(executeQuery(Plan, *BE, *S.Cat, &Ref).Trapped);
      }
      ASSERT_GT(Ref.numRows(), 0u) << Q.Name << ": empty result";
      for (const std::string &Name : backend::allBackendNames()) {
        if (Name == "Interpreter")
          continue;
        SCOPED_TRACE(Name);
        auto BE = backend::createBackend(Name);
        rt::OutputBuffer Out;
        ASSERT_FALSE(executeQuery(Plan, *BE, *S.Cat, &Out).Trapped);
        EXPECT_TRUE(Ref.equals(Out))
            << Q.Name << " differs on " << Name << "\nref:\n"
            << Ref.toText().substr(0, 400) << "\ngot:\n"
            << Out.toText().substr(0, 400);
      }
    }
  }
}

TEST(DbExec, H10HandChecked) {
  // Recompute h10 (returned items by customer, top-20) in plain C++.
  Catalog &C = tpchCatalog();
  Table *Li = C.find("lineitem");
  Table *Ord = C.find("orders");
  const Column *LOk = Li->column("l_orderkey");
  const Column *LFl = Li->column("l_returnflag");
  const Column *LPr = Li->column("l_extendedprice");
  const Column *LDi = Li->column("l_discount");
  const Column *OCu = Ord->column("o_custkey");
  const Column *ODa = Ord->column("o_orderdate");
  int64_t Lo = rt::dateFromYmd(1993, 10, 1), Hi = rt::dateFromYmd(1994, 1, 1);

  std::map<int64_t, Int128> RevByCust;
  for (size_t I = 0; I != Li->numRows(); ++I) {
    if (LFl->strAt(I).Len != 1 || LFl->strAt(I).data()[0] != 'R')
      continue;
    size_t O = static_cast<size_t>(LOk->i64At(I));
    int32_t D = ODa->i32At(O);
    if (D < Lo || D >= Hi)
      continue;
    RevByCust[OCu->i64At(O)] +=
        LPr->decimalAt(I) * (Int128(100) - LDi->decimalAt(I));
  }
  std::vector<Int128> Expected;
  for (auto &KV : RevByCust)
    Expected.push_back(KV.second);
  std::sort(Expected.begin(), Expected.end(), std::greater<>());
  if (Expected.size() > 20)
    Expected.resize(20);
  ASSERT_FALSE(Expected.empty()) << "test data produced an empty h10";

  const Query Q = [&] {
    for (Query &Cand : tpchQueries())
      if (Cand.Name == "h10")
        return std::move(Cand);
    QCF_UNREACHABLE("h10 missing");
  }();
  rt::OutputBuffer Out = runWith(Q, C, "Craneline");
  ASSERT_EQ(Out.numRows(), Expected.size());
  for (size_t R = 0; R != Out.numRows(); ++R) {
    size_t NumCells;
    const rt::OutputBuffer::Cell *Row = Out.row(R, &NumCells);
    ASSERT_EQ(NumCells, 3u);
    EXPECT_EQ(Row[2].I128V, Expected[R]) << "row " << R;
  }
}

TEST(DbExec, H19HandChecked) {
  // Recompute h19 (disjunctive brand/quantity filter, global aggregate).
  Catalog &C = tpchCatalog();
  Table *Li = C.find("lineitem");
  Table *Pa = C.find("part");
  const Column *LPk = Li->column("l_partkey");
  const Column *LQt = Li->column("l_quantity");
  const Column *LPr = Li->column("l_extendedprice");
  const Column *LDi = Li->column("l_discount");
  const Column *PBr = Pa->column("p_brand");

  auto BrandIs = [&](size_t P, const char *Name) {
    rt::StringVal S = PBr->strAt(P);
    return std::string(S.data(), S.Len) == Name;
  };
  Int128 Revenue = 0;
  int64_t N = 0;
  for (size_t I = 0; I != Li->numRows(); ++I) {
    size_t P = static_cast<size_t>(LPk->i64At(I));
    Int128 Qty = LQt->decimalAt(I);
    bool Hit =
        (BrandIs(P, "Brand#11") && Qty >= 100 && Qty <= 1100) ||
        (BrandIs(P, "Brand#21") && Qty >= 1000 && Qty <= 2000) ||
        (BrandIs(P, "Brand#32") && Qty >= 2000 && Qty <= 3000);
    if (Hit) {
      Revenue += LPr->decimalAt(I) * (Int128(100) - LDi->decimalAt(I));
      ++N;
    }
  }
  ASSERT_GT(N, 0) << "test data produced an empty h19";

  const Query Q = [&] {
    for (Query &Cand : tpchQueries())
      if (Cand.Name == "h19")
        return std::move(Cand);
    QCF_UNREACHABLE("h19 missing");
  }();
  rt::OutputBuffer Out = runWith(Q, C, "MLVM-cheap");
  ASSERT_EQ(Out.numRows(), 1u);
  size_t NumCells;
  const rt::OutputBuffer::Cell *Row = Out.row(0, &NumCells);
  ASSERT_EQ(NumCells, 2u);
  EXPECT_EQ(Row[0].I128V, Revenue);
  EXPECT_EQ(Row[1].I64V, N);
}

TEST(DbExec, AdaptiveSwapBeforeFirstPickupKeepsAccounting) {
  // With the swap forced at morsel 0, the optimized entry is published at
  // the very first pickup of each pipeline: an entry captured before the
  // loop, or a morsel skipped at the cutover, would corrupt results or
  // accounting. The per-pipeline morsel ledger must still balance
  // exactly.
  Catalog &C = tpcdsCatalog();
  const Query Q = [&] {
    for (Query &Cand : tpcdsQueries())
      if (Cand.Name == "ds_brand_m1")
        return std::move(Cand);
    QCF_UNREACHABLE("query missing");
  }();
  CompiledPlan Plan = compileQuery(Q, C);
  auto Fast = backend::createBackend("DirectEmit");
  auto Opt = backend::createBackend("MLVM-cheap");

  rt::OutputBuffer Single;
  ASSERT_FALSE(executeQuery(Plan, *Fast, C, &Single).Trapped);

  backend::CompileService Svc(2);
  for (int Round = 0; Round != 3; ++Round) {
    SCOPED_TRACE(Round);
    rt::OutputBuffer Out;
    ExecOptions O;
    O.MorselSize = 256;
    O.AdaptiveExec = true;
    O.FastBackend = Fast.get();
    O.Service = &Svc;
    O.OsrForceSwapMorsel = 0;
    ExecResult R = executeQuery(Plan, *Opt, C, &Out, O);
    ASSERT_FALSE(R.Trapped);
    EXPECT_EQ(Single.unorderedDigest(), Out.unorderedDigest());
    EXPECT_GE(R.Stats.OsrSwaps, 1u);
    ASSERT_FALSE(R.Stats.Pipelines.empty());
    for (size_t PI = 0; PI != R.Stats.Pipelines.size(); ++PI) {
      const PipelineStats &P = R.Stats.Pipelines[PI];
      SCOPED_TRACE(PI);
      uint64_t NumMorsels = (P.Rows + O.MorselSize - 1) / O.MorselSize;
      EXPECT_EQ(P.Morsels, NumMorsels) << "lost or duplicated morsel";
      EXPECT_EQ(P.MorselsFast + P.MorselsOpt, P.Morsels);
      EXPECT_EQ(P.RowsFast + P.RowsOpt, P.Rows);
    }
  }
}

TEST(DbExec, AdaptiveOnShutDownServiceStaysOnFastTier) {
  // A shut-down service refuses every optimized compile. The query must
  // not compile the optimized tier itself: each pipeline runs all of its
  // morsels on the fast tier, a forced cutover does not wait, and the
  // result matches the interpreter's.
  Catalog &C = tpchCatalog();
  CompiledPlan Plan = compileQuery(tpchQueries().front(), C);
  auto Interp = backend::createBackend("Interpreter");
  auto Fast = backend::createBackend("DirectEmit");
  auto Opt = backend::createBackend("Craneline");
  rt::OutputBuffer Ref;
  ASSERT_FALSE(executeQuery(Plan, *Interp, C, &Ref).Trapped);

  backend::CompileService Svc(1);
  Svc.shutdown();
  for (int64_t ForceMorsel : {int64_t(-1), int64_t(0)}) {
    SCOPED_TRACE(ForceMorsel);
    obs::MetricsRegistry Reg;
    rt::OutputBuffer Out;
    ExecOptions O;
    O.MorselSize = 256;
    O.AdaptiveExec = true;
    O.FastBackend = Fast.get();
    O.Service = &Svc;
    O.OsrForceSwapMorsel = ForceMorsel;
    O.Obs.Metrics = &Reg;
    ExecResult R = executeQuery(Plan, *Opt, C, &Out, O);
    ASSERT_FALSE(R.Trapped);
    EXPECT_EQ(Ref.unorderedDigest(), Out.unorderedDigest());
    EXPECT_EQ(R.Stats.OsrSwaps, 0u);
    ASSERT_FALSE(R.Stats.Pipelines.empty());
    for (const PipelineStats &P : R.Stats.Pipelines) {
      EXPECT_EQ(P.MorselsOpt, 0u);
      EXPECT_EQ(P.MorselsFast, P.Morsels);
    }
    EXPECT_EQ(Reg.snapshot().counter("compile.Craneline.count"), 0u)
        << "the optimized tier compiled on the query thread";
  }
  EXPECT_EQ(Svc.stats().JobsQueued, 0u);
}

TEST(DbExec, AdaptiveTrapAbortsCleanly) {
  // The trap path under adaptive execution: an overflow mid-pipeline must
  // still abort with Trapped set, and the optimized compiles in flight
  // must be cancelled or finished, never leaked. The query groups before
  // its output scan, so the plan has two pipelines and the trap fires
  // with the second pipeline's compile still outstanding.
  Catalog &C = tpchCatalog();
  Query Q;
  Q.Name = "overflow_adaptive";
  std::vector<AggSpec> Aggs;
  AggSpec A;
  A.Kind = AggKind::Sum;
  A.Arg = mul(mul(col("l_extendedprice"), litDec(900000000000000000)),
              litDec(900000000000000000));
  A.Name = "boom";
  Aggs.push_back(std::move(A));
  std::vector<ExprPtr> Keys;
  Keys.push_back(col("l_returnflag"));
  Q.Root = aggregate(scan("lineitem"), std::move(Keys), {"flag"},
                     std::move(Aggs));
  Q.Output.push_back(col("boom"));

  CompiledPlan Plan = compileQuery(Q, C);
  ASSERT_EQ(Plan.Pipelines.size(), 2u);
  auto Fast = backend::createBackend("DirectEmit");
  auto Opt = backend::createBackend("MLVM-opt");
  backend::CompileService Svc(1);
  for (int64_t ForceMorsel : {int64_t(-1), int64_t(0)}) {
    for (int Round = 0; Round != 3; ++Round) {
      SCOPED_TRACE(testing::Message() << "force " << ForceMorsel << " round "
                                      << Round);
      rt::OutputBuffer Out;
      ExecOptions O;
      O.AdaptiveExec = true;
      O.FastBackend = Fast.get();
      O.Service = &Svc;
      O.OsrForceSwapMorsel = ForceMorsel;
      ExecResult R = executeQuery(Plan, *Opt, C, &Out, O);
      EXPECT_TRUE(R.Trapped) << "overflow must trap in adaptive mode";
      EXPECT_EQ(R.Trap, rt::TrapCode::Overflow);
    }
  }
  Svc.drain();
  backend::CompileServiceStats S = Svc.stats();
  EXPECT_EQ(S.JobsQueued, S.JobsCompleted + S.JobsCancelled);
}

TEST(DbExec, PreFiredTokenCompilesNothingInAnyMode) {
  // A token that fired before the call (an expired deadline, a session
  // closed while the query waited for admission) must stop blocking and
  // adaptive execution alike before anything compiles or is submitted
  // to the service.
  Catalog &C = tpchCatalog();
  CompiledPlan Plan = compileQuery(tpchQueries().front(), C);
  auto Fast = backend::createBackend("DirectEmit");
  auto Opt = backend::createBackend("Craneline");
  backend::CompileService Svc(1);
  qcf::CancelToken Ctl;
  Ctl.cancel();
  for (bool Adaptive : {false, true}) {
    SCOPED_TRACE(Adaptive ? "adaptive" : "blocking");
    obs::MetricsRegistry Reg;
    ExecOptions O;
    O.Control = &Ctl;
    O.Service = &Svc;
    O.Obs.Metrics = &Reg;
    O.AdaptiveExec = Adaptive;
    O.FastBackend = Fast.get();
    uint64_t Queued = Svc.stats().JobsQueued;
    rt::OutputBuffer Out;
    ExecResult R = executeQuery(Plan, Adaptive ? *Opt : *Fast, C, &Out, O);
    EXPECT_TRUE(R.Cancelled);
    EXPECT_EQ(Reg.snapshot().counter("compile.DirectEmit.count"), 0u);
    EXPECT_EQ(Svc.stats().JobsQueued, Queued);
  }
}

TEST(DbExec, DecimalOverflowTrapsOnEveryBackend) {
  // Failure injection: a query whose decimal arithmetic overflows i128
  // must report Trapped on every back-end (the generated code uses
  // overflow-checked smultrap; §III-A), never crash or return rows.
  Catalog &C = tpchCatalog();
  Query Q;
  Q.Name = "overflow";
  std::vector<AggSpec> Aggs;
  AggSpec A;
  A.Kind = AggKind::Sum;
  A.Arg = mul(mul(col("l_extendedprice"), litDec(900000000000000000)),
              litDec(900000000000000000));
  A.Name = "boom";
  Aggs.push_back(std::move(A));
  Q.Root = aggregate(scan("lineitem"), {}, {}, std::move(Aggs));
  Q.Output.push_back(col("boom"));

  CompiledPlan Plan = compileQuery(Q, C);
  for (const std::string &Name : backend::allBackendNames()) {
    auto BE = backend::createBackend(Name);
    rt::OutputBuffer Out;
    ExecResult R = executeQuery(Plan, *BE, C, &Out);
    EXPECT_TRUE(R.Trapped) << "no overflow trap on " << Name;
  }
}

TEST(DbExec, TrapInBuildAndMaterializePipelinesAbortsCleanly) {
  // An overflow in a join's build pipeline and in a sort's
  // materialization pipeline (the aggregation traps above never reach
  // either) must abort the query with Trapped on every back-end, as a
  // whole-range call and in the morsel loop alike, with no rows out.
  Catalog &C = tpchCatalog();
  auto Boom = [] {
    return gt(mul(mul(col("l_extendedprice"), litDec(900000000000000000)),
                  litDec(900000000000000000)),
              litDec(0));
  };
  Query Join;
  Join.Name = "overflow_build";
  PlanPtr J = hashJoin(scan("orders"), filter(scan("lineitem"), Boom()),
                       {col("o_orderkey")}, {col("l_orderkey")}, {});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(AggSpec{AggKind::Count, nullptr, "n"});
  Join.Root = aggregate(std::move(J), {}, {}, std::move(Aggs));
  Join.Output.push_back(col("n"));

  Query Sort;
  Sort.Name = "overflow_materialize";
  Sort.Root =
      sortBy(filter(scan("lineitem"), Boom()), {{"l_orderkey", false}});
  Sort.Output.push_back(col("l_orderkey"));

  qcf::CancelToken Never;
  ExecOptions Morsels;
  Morsels.Control = &Never;
  Morsels.MorselSize = 64;
  for (const Query *Q : {&Join, &Sort}) {
    CompiledPlan Plan = compileQuery(*Q, C);
    for (const std::string &Name : backend::allBackendNames()) {
      auto BE = backend::createBackend(Name);
      for (const ExecOptions &Opts : {ExecOptions(), Morsels}) {
        SCOPED_TRACE(Q->Name + " on " + Name +
                     (Opts.Control ? ", morsel loop" : ", whole range"));
        rt::OutputBuffer Out;
        ExecResult R = executeQuery(Plan, *BE, C, &Out, Opts);
        EXPECT_TRUE(R.Trapped);
        EXPECT_EQ(R.Trap, rt::TrapCode::Overflow);
        EXPECT_FALSE(R.Cancelled);
        EXPECT_EQ(Out.numRows(), 0u);
      }
    }
  }
}

namespace {

/// Runs \p Q on every back-end, once as a whole-range call per pipeline
/// and once morsel by morsel (a never-firing cancellation token with
/// 64-row morsels, so appends and the sort cross chunk boundaries between
/// calls), and checks each result against the interpreter's, whose row
/// count must be \p Rows (or whose one count(*) cell must be, when
/// \p CountCell).
void expectRowsOnEveryBackend(const Query &Q, const Catalog &Cat,
                              uint64_t Rows, bool CountCell) {
  CompiledPlan Plan = compileQuery(Q, Cat);
  rt::OutputBuffer Ref;
  {
    auto BE = backend::createBackend("Interpreter");
    ASSERT_FALSE(executeQuery(Plan, *BE, Cat, &Ref).Trapped);
  }
  if (CountCell) {
    ASSERT_EQ(Ref.numRows(), 1u);
    size_t NumCells;
    EXPECT_EQ(static_cast<uint64_t>(Ref.row(0, &NumCells)[0].I64V), Rows);
  } else {
    EXPECT_EQ(Ref.numRows(), Rows);
  }
  qcf::CancelToken Never;
  ExecOptions Morsels;
  Morsels.Control = &Never;
  Morsels.MorselSize = 64;
  for (const std::string &Name : backend::allBackendNames()) {
    SCOPED_TRACE(Name);
    auto BE = backend::createBackend(Name);
    for (const ExecOptions &Opts : {ExecOptions(), Morsels}) {
      SCOPED_TRACE(Opts.Control ? "morsel loop" : "whole range");
      rt::OutputBuffer Out;
      ExecResult Res = executeQuery(Plan, *BE, Cat, &Out, Opts);
      ASSERT_FALSE(Res.Trapped);
      ASSERT_FALSE(Res.Cancelled);
      if (Opts.Control) {
        for (const PipelineStats &P : Res.Stats.Pipelines)
          EXPECT_EQ(P.Morsels, (P.Rows + 63) / 64);
      }
      EXPECT_EQ(Out.numRows(), Ref.numRows());
      EXPECT_EQ(Out.unorderedDigest(), Ref.unorderedDigest());
      // The first output column is a sort key where the query sorts.
      for (size_t R = 1; R < Out.numRows() && Q.Root->K == PlanNode::Kind::Sort;
           ++R) {
        size_t NumCells;
        ASSERT_LE(Out.row(R - 1, &NumCells)[0].I64V, Out.row(R, &NumCells)[0].I64V)
            << "row " << R;
      }
    }
  }
}

} // namespace

TEST(DbExec, JoinBuildSideFanOutHasNoCapacity) {
  // orders ⋈ (lineitem ⋈ lineitem on l_linestatus) on o_orderkey =
  // l_orderkey, counted. The outer join's build table receives about
  // lineitem² / 2 entries from a pipeline that scans lineitem once, far
  // more than any sizing from source rows allows for.
  Catalog C;
  generateTpchLike(C, 0.1);
  const Column *Status = C.find("lineitem")->column("l_linestatus");
  std::map<std::string, uint64_t> PerStatus;
  for (size_t I = 0; I != Status->size(); ++I)
    ++PerStatus[std::string(Status->strAt(I).data(), Status->strAt(I).Len)];
  uint64_t Expected = 0;
  for (const auto &[S, N] : PerStatus)
    Expected += N * N; // every lineitem's order exists in orders
  ASSERT_GT(Expected, 8 * Status->size() + 16 * 4096);

  Query Q;
  Q.Name = "fanout_join";
  PlanPtr Pairs = hashJoin(scan("lineitem"), scan("lineitem"),
                           {col("l_linestatus")}, {col("l_linestatus")}, {});
  PlanPtr J = hashJoin(scan("orders"), std::move(Pairs), {col("o_orderkey")},
                       {col("l_orderkey")}, {});
  std::vector<AggSpec> Aggs;
  Aggs.push_back(AggSpec{AggKind::Count, nullptr, "n"});
  Q.Root = aggregate(std::move(J), {}, {}, std::move(Aggs));
  Q.Output.push_back(col("n"));
  expectRowsOnEveryBackend(Q, C, Expected, /*CountCell=*/true);
}

TEST(DbExec, SortOfFanOutJoinStaysInItsBuffer) {
  // Sorting orders ⋈ lineitem (lineitem builds) materializes one row per
  // lineitem from a pipeline that scans orders, about four times as many
  // rows as its source.
  Catalog C;
  generateTpchLike(C, 0.05);
  uint64_t Lines = C.find("lineitem")->numRows();
  ASSERT_GT(Lines, 2 * C.find("orders")->numRows());

  Query Q;
  Q.Name = "fanout_sort";
  PlanPtr J = hashJoin(scan("orders"), scan("lineitem"), {col("o_orderkey")},
                       {col("l_orderkey")}, {"l_suppkey", "l_quantity"});
  Q.Root = sortBy(std::move(J), {{"o_orderkey", false}, {"l_suppkey", true}});
  Q.Output.push_back(col("o_orderkey"));
  Q.Output.push_back(col("l_suppkey"));
  Q.Output.push_back(col("l_quantity"));
  expectRowsOnEveryBackend(Q, C, Lines, /*CountCell=*/false);
}
