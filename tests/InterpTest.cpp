//===- tests/InterpTest.cpp - Interpreter back-end tests -------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "tests/Corpus.h"
#include "tests/DiffHarness.h"
#include <cstring>
#include <gtest/gtest.h>
#include <tuple>

using namespace qcf;
using namespace qcf::test;

namespace {

/// Compiles one module with the interpreter and returns (module, compiled).
struct InterpFixture {
  qir::Module M;
  std::unique_ptr<backend::CompiledModule> Compiled;

  void compile() {
    interp::InterpBackend B;
    Compiled = B.compile(M);
  }

  template <typename FnT> FnT entry(const std::string &Name) {
    return Compiled->entryAs<FnT>(Name);
  }
};

} // namespace

TEST(Interp, StraightLineArithmetic) {
  InterpFixture Fx;
  qir::Function *F =
      Fx.M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId R = B.add(B.mul(F->paramValue(0), F->paramValue(1)),
                    B.constInt(Type::I64, 7));
  B.ret(R);
  Fx.compile();
  auto *Fn = Fx.entry<int64_t (*)(int64_t, int64_t)>("f");
  EXPECT_EQ(Fn(6, 7), 49);
  EXPECT_EQ(Fn(-3, 5), -8);
}

TEST(Interp, LoopSumMatchesClosedForm) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t)>("loopsum");
  // sum i^2, i in [0, n)
  EXPECT_EQ(Fn(0), 0);
  EXPECT_EQ(Fn(1), 0);
  EXPECT_EQ(Fn(10), 285);
  EXPECT_EQ(Fn(1000), 332833500);
}

TEST(Interp, PhiSwapParallelMoves) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t)>("phiswap");
  // After n swaps of (1, 1000000): even n -> (1,1000000), odd -> swapped.
  // Result = 3*a - b.
  EXPECT_EQ(Fn(0), 3 * 1 - 1000000);
  EXPECT_EQ(Fn(1), 3 * 1000000 - 1);
  EXPECT_EQ(Fn(2), 3 * 1 - 1000000);
  EXPECT_EQ(Fn(7), 3 * 1000000 - 1);
}

TEST(Interp, TrapsOnOverflow) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t, int64_t)>("traps");

  rt::TrapCode Code = rt::runWithTrapGuard([&] { Fn(10, 20); });
  EXPECT_EQ(Code, rt::TrapCode::None);

  Code = rt::runWithTrapGuard([&] { Fn(INT64_MAX, 1); });
  EXPECT_EQ(Code, rt::TrapCode::Overflow);
}

TEST(Interp, TrapsOnDivByZero) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t, int64_t)>("divtrap");
  EXPECT_EQ(Fn(100, 7), 14);
  rt::TrapCode Code = rt::runWithTrapGuard([&] { Fn(5, 0); });
  EXPECT_EQ(Code, rt::TrapCode::DivByZero);
}

TEST(Interp, HashMatchesHostPrimitives) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<uint64_t (*)(uint64_t)>("hash");
  uint64_t V = 42;
  uint64_t H1 = crc32u64(0x2545f4914f6cdd1dull, V);
  uint64_t H2 = crc32u64(0xb9935cc9fab5b271ull, V);
  uint64_t Pack = (H1 << 32) | H2;
  uint64_t Rot = (Pack >> 32) | (Pack << 32);
  uint64_t Expect = longMulFold(Rot, 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(Fn(42), Expect);
}

TEST(Interp, RuntimeCallsWithStrings) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<uint64_t (*)(uint64_t, uint64_t, uint64_t,
                                            uint64_t)>("strings");
  rt::StringVal A = rt::StringVal::makeRef("hello", 5);
  // eq("hello","hello") + cmp(==0) + (hash ^ prefix(1))
  uint64_t R = Fn(A.lo(), A.hi(), A.lo(), A.hi());
  uint64_t Expect = 1 + 0 + (rt::stringHash(A) ^ 1);
  EXPECT_EQ(R, Expect);
}

TEST(Interp, FloatConversionRoundTrip) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t, int64_t)>("floats");
  // a=3,b=4: s=7, p=21, d=6, df=6-(-4)=10 -> not > 100 -> 10 + 0
  EXPECT_EQ(Fn(3, 4), 10);
}

TEST(Interp, WidthsNarrowTypes) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  auto Compiled = B.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(uint64_t)>("widths");
  // v = 0x...8687: i8 = 0x87 sext = -121; i16 = 0x8687 zext = 34439;
  // i32 = 0x84858687 sext = -2071624057.
  EXPECT_EQ(Fn(0x8081828384858687ull),
            -121 + 34439 + static_cast<int32_t>(0x84858687));
}

TEST(Interp, I128ArithmeticViaEntry) {
  InterpFixture Fx;
  qir::Function *F =
      Fx.M.createFunction("mul128", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId X = B.sext(Type::I128, F->paramValue(0));
  ValueId Y = B.sext(Type::I128, F->paramValue(1));
  ValueId P = B.mul(X, Y);
  ValueId Hi = B.extractHi(P);
  B.ret(Hi);
  Fx.compile();
  auto *Fn = Fx.entry<uint64_t (*)(int64_t, int64_t)>("mul128");
  // (2^40) * (2^40) = 2^80: hi lane = 2^16.
  EXPECT_EQ(Fn(1ll << 40, 1ll << 40), 1ull << 16);
}

TEST(Interp, InterpEntryAsRuntimeCallback) {
  // A comparator compiled as an interpreted function, passed to rt_sort.
  InterpFixture Fx;
  rt::RuntimeSyms Syms = rt::declareRuntime(Fx.M);
  (void)Syms;
  qir::Function *F =
      Fx.M.createFunction("cmp_i64", {Type::Ptr, Type::Ptr}, Type::I64);
  Builder B(F);
  ValueId A = B.load(Type::I64, F->paramValue(0));
  ValueId Bv = B.load(Type::I64, F->paramValue(1));
  ValueId Lt = B.icmp(CmpPred::SLt, A, Bv);
  ValueId Gt = B.icmp(CmpPred::SGt, A, Bv);
  ValueId R = B.sub(B.zext(Type::I64, Gt), B.zext(Type::I64, Lt));
  B.ret(R);
  Fx.compile();
  void *Cmp = Fx.Compiled->entry("cmp_i64");
  ASSERT_NE(Cmp, nullptr);

  int64_t Data[] = {5, -2, 9, 0, 3, 3, -7};
  rt_sort(Data, 7, sizeof(int64_t), Cmp);
  int64_t Expect[] = {-7, -2, 0, 3, 3, 5, 9};
  for (int I = 0; I != 7; ++I)
    EXPECT_EQ(Data[I], Expect[I]);
}

TEST(Interp, CorpusSelfConsistency) {
  // The interpreter must agree with itself across two compilations (guards
  // against nondeterministic translation).
  interp::InterpBackend B;
  runCorpusDifferential(B);
}

TEST(Interp, TranslationCountsAsCompileTime) {
  Corpus C = buildCorpus();
  interp::InterpBackend B;
  TimeTrace Trace;
  auto Compiled = B.compile(*C.M, backend::CompileOptions(&Trace));
  EXPECT_GT(Trace.totalNs("interp.translate"), 0u);
}

TEST(Interp, LoadsAndStoresEveryWidthUnaligned) {
  // copy_<ty>(src, dst) loads a value at src+1, stores it at dst+3 and
  // returns its bits folded into an i64.
  const Type Tys[] = {Type::I1,  Type::I8,  Type::I16,  Type::I32, Type::I64,
                      Type::Ptr, Type::F64, Type::I128, Type::D128};
  InterpFixture Fx;
  for (Type Ty : Tys) {
    qir::Function *F =
        Fx.M.createFunction(std::string("copy_") + qir::typeName(Ty),
                            {Type::Ptr, Type::Ptr}, Type::I64);
    Builder B(F);
    ValueId V = B.load(Ty, B.gep(F->paramValue(0), 1));
    B.store(V, B.gep(F->paramValue(1), 3));
    switch (Ty) {
    case Type::I128:
    case Type::D128:
      B.ret(B.xor_(B.extractLo(V), B.extractHi(V)));
      break;
    case Type::I64:
      B.ret(V);
      break;
    case Type::Ptr:
    case Type::F64:
      B.ret(B.bitcast(Type::I64, V));
      break;
    default:
      B.ret(B.zext(Type::I64, V));
      break;
    }
  }
  Fx.compile();
  for (Type Ty : Tys) {
    unsigned Size = qir::typeSize(Ty);
    uint8_t Src[32], Dst[32];
    for (unsigned K = 0; K != 32; ++K) {
      Src[K] = static_cast<uint8_t>(0x91 + 37 * K);
      Dst[K] = 0xee;
    }
    if (Ty == Type::I1)
      Src[1] = 1; // An i1 in memory is 0 or 1.
    auto *Fn = Fx.entry<uint64_t (*)(void *, void *)>(
        std::string("copy_") + qir::typeName(Ty));
    uint64_t Lanes[2] = {0, 0};
    std::memcpy(Lanes, Src + 1, Size);
    EXPECT_EQ(Fn(Src, Dst), Lanes[0] ^ Lanes[1]) << qir::typeName(Ty);
    for (unsigned K = 0; K != 32; ++K)
      EXPECT_EQ(Dst[K], K >= 3 && K < 3 + Size ? Src[K - 2] : 0xee)
          << qir::typeName(Ty) << " byte " << K;
  }
}

TEST(Interp, FusedCompareFeedsPhiOnTakenEdge) {
  // entry: c = icmp slt a, b; condbr c, join, else
  // else:  d = icmp eq a, b; br join
  // join:  p = phi [c, entry], [d, else]; ret 2 * zext p + zext c
  InterpFixture Fx;
  qir::Function *F =
      Fx.M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  BlockId Entry = B.currentBlock();
  BlockId Else = B.createBlock(), Join = B.createBlock();
  ValueId C = B.icmp(CmpPred::SLt, F->paramValue(0), F->paramValue(1));
  B.condBr(C, Join, Else);
  B.startBlock(Else);
  ValueId D = B.icmp(CmpPred::Eq, F->paramValue(0), F->paramValue(1));
  B.br(Join);
  B.startBlock(Join);
  ValueId P = B.phi(Type::I1, 2);
  B.setPhiIncoming(P, 0, Entry, C);
  B.setPhiIncoming(P, 1, Else, D);
  B.ret(B.add(B.mul(B.zext(Type::I64, P), B.constInt(Type::I64, 2)),
              B.zext(Type::I64, C)));
  ASSERT_EQ(qir::verify(Fx.M), std::nullopt);
  Fx.compile();
  auto *Fn = Fx.entry<int64_t (*)(int64_t, int64_t)>("f");
  EXPECT_EQ(Fn(1, 2), 3);
  EXPECT_EQ(Fn(2, 2), 2);
  EXPECT_EQ(Fn(3, 2), 0);
}

namespace {

/// A counted loop `for (i = 0; i < n; ++i)` in \p F: \p Body emits the
/// loop body given the header's phis and returns their next values; the
/// exit returns \p Result of the phis. Phi 0 is the counter; \p Inits
/// seeds the others.
template <typename BodyFn, typename ResultFn>
void buildLoop(qir::Function *F, std::vector<int64_t> Inits, BodyFn Body,
               ResultFn Result) {
  Builder B(F);
  BlockId Pre = B.currentBlock();
  std::vector<ValueId> InitVals = {B.constInt(Type::I64, 0)};
  for (int64_t V : Inits)
    InitVals.push_back(B.constInt(Type::I64, V));
  BlockId Head = B.createBlock(), Loop = B.createBlock(),
          Exit = B.createBlock();
  B.br(Head);
  B.startBlock(Head);
  std::vector<ValueId> Phis;
  for (size_t K = 0; K != InitVals.size(); ++K)
    Phis.push_back(B.phi(Type::I64, 2));
  B.condBr(B.icmp(CmpPred::SLt, Phis[0], F->paramValue(0)), Loop, Exit);
  B.startBlock(Loop);
  std::vector<ValueId> Next = Body(B, Phis);
  Next.insert(Next.begin(), B.add(Phis[0], B.constInt(Type::I64, 1)));
  B.br(Head);
  for (size_t K = 0; K != Phis.size(); ++K) {
    B.setPhiIncoming(Phis[K], 0, Pre, InitVals[K]);
    B.setPhiIncoming(Phis[K], 1, Loop, Next[K]);
  }
  B.startBlock(Exit);
  B.ret(Result(B, Phis));
}

} // namespace

TEST(Interp, CoalescedPhisKeepSwapAndLostCopyApart) {
  InterpFixture Fx;
  // Swap with increments: a' = b + 1 reads b before b' = a + 1 reads a,
  // so b' may be computed into b's register but a' may not go into a's.
  buildLoop(
      Fx.M.createFunction("swap", {Type::I64}, Type::I64), {1, 20},
      [](Builder &B, const std::vector<ValueId> &P) {
        ValueId One = B.constInt(Type::I64, 1);
        ValueId NA = B.add(P[2], One);
        ValueId NB = B.add(P[1], One);
        return std::vector<ValueId>{NA, NB};
      },
      [](Builder &B, const std::vector<ValueId> &P) {
        return B.add(B.mul(P[1], B.constInt(Type::I64, 1000)), P[2]);
      });
  // Fibonacci: b' is a's old value, read by the edge's other move.
  buildLoop(
      Fx.M.createFunction("fib", {Type::I64}, Type::I64), {0, 1},
      [](Builder &B, const std::vector<ValueId> &P) {
        return std::vector<ValueId>{B.add(P[1], P[2]), P[1]};
      },
      [](Builder &, const std::vector<ValueId> &P) { return P[1]; });
  // The old x is read after its next value is defined.
  buildLoop(
      Fx.M.createFunction("oldread", {Type::I64}, Type::I64), {3, 0},
      [](Builder &B, const std::vector<ValueId> &P) {
        ValueId NX = B.add(P[1], B.constInt(Type::I64, 1));
        ValueId T = B.mul(P[1], B.constInt(Type::I64, 2));
        return std::vector<ValueId>{NX, B.add(P[2], B.add(T, NX))};
      },
      [](Builder &B, const std::vector<ValueId> &P) {
        return B.add(B.mul(P[1], B.constInt(Type::I64, 100000)), P[2]);
      });
  // The next value is a call argument after it is defined, so the call
  // must read it from the phi's register.
  qir::SymbolId Crc = Fx.M.declareRuntime(
      "rt_crc32", Type::I64, {Type::I64, Type::I64},
      rt::runtimeSymbolAddress("rt_crc32"));
  buildLoop(
      Fx.M.createFunction("callarg", {Type::I64}, Type::I64), {5, 0},
      [&](Builder &B, const std::vector<ValueId> &P) {
        ValueId NV = B.add(P[1], B.constInt(Type::I64, 3));
        return std::vector<ValueId>{NV, B.call(Crc, {NV, P[2]})};
      },
      [](Builder &, const std::vector<ValueId> &P) { return P[2]; });
  // Lost copy: v feeds phi p from the preheader and is read inside the
  // loop, where p's register changes.
  {
    qir::Function *F = Fx.M.createFunction("lostcopy", {Type::I64}, Type::I64);
    Builder B(F);
    BlockId Pre = B.currentBlock();
    ValueId V = B.add(F->paramValue(0), B.constInt(Type::I64, 1));
    ValueId Zero = B.constInt(Type::I64, 0);
    BlockId Head = B.createBlock(), Loop = B.createBlock(),
            Exit = B.createBlock();
    B.br(Head);
    B.startBlock(Head);
    ValueId I = B.phi(Type::I64, 2), P = B.phi(Type::I64, 2);
    B.condBr(B.icmp(CmpPred::SLt, I, B.constInt(Type::I64, 4)), Loop, Exit);
    B.startBlock(Loop);
    ValueId NI = B.add(I, B.constInt(Type::I64, 1));
    ValueId NP = B.add(P, V);
    B.br(Head);
    B.setPhiIncoming(I, 0, Pre, Zero);
    B.setPhiIncoming(I, 1, Loop, NI);
    B.setPhiIncoming(P, 0, Pre, V);
    B.setPhiIncoming(P, 1, Loop, NP);
    B.startBlock(Exit);
    B.ret(P);
  }
  ASSERT_EQ(qir::verify(Fx.M), std::nullopt);
  Fx.compile();

  auto *Swap = Fx.entry<int64_t (*)(int64_t)>("swap");
  auto *Fib = Fx.entry<int64_t (*)(int64_t)>("fib");
  auto *OldRead = Fx.entry<int64_t (*)(int64_t)>("oldread");
  auto *LostCopy = Fx.entry<int64_t (*)(int64_t)>("lostcopy");
  auto *CallArg = Fx.entry<uint64_t (*)(int64_t)>("callarg");
  for (int64_t N = 0; N != 12; ++N) {
    int64_t A = 1, Bv = 20, F0 = 0, F1 = 1, X = 3, S = 0;
    uint64_t V = 5, H = 0;
    for (int64_t K = 0; K != N; ++K) {
      std::tie(A, Bv) = std::pair(Bv + 1, A + 1);
      std::tie(F0, F1) = std::pair(F0 + F1, F0);
      S += 2 * X + X + 1;
      X += 1;
      V += 3;
      H = rt_crc32(V, H);
    }
    EXPECT_EQ(CallArg(N), H) << N;
    EXPECT_EQ(Swap(N), A * 1000 + Bv) << N;
    EXPECT_EQ(Fib(N), F0) << N;
    EXPECT_EQ(OldRead(N), X * 100000 + S) << N;
    EXPECT_EQ(LostCopy(N), 5 * (N + 1)) << N;
  }
}

TEST(Interp, ReenteredFunctionOwnsItsFrame) {
  // sortcmp(p, q): when *p < 0, p is a control block {-1, data, n, self}
  // and the call sorts data with rt_sort, passing its own entry as the
  // comparator, then returns base + data[0], where base was computed
  // before the nested calls; otherwise it compares *p and *q through a
  // small loop. Each nested call runs the same bytecode with its own
  // registers, so the outer call's base and constants must survive.
  InterpFixture Fx;
  rt::RuntimeSyms Syms = rt::declareRuntime(Fx.M);
  qir::Function *F =
      Fx.M.createFunction("sortcmp", {Type::Ptr, Type::Ptr}, Type::I64);
  Builder B(F);
  ValueId X = B.load(Type::I64, F->paramValue(0));
  ValueId Base = B.add(X, B.constInt(Type::I64, 7778));
  BlockId Outer = B.createBlock(), Inner = B.createBlock();
  B.condBr(B.icmp(CmpPred::SLt, X, B.constInt(Type::I64, 0)), Outer, Inner);

  B.startBlock(Outer);
  ValueId CtlV = F->paramValue(0);
  ValueId DataV = B.load(Type::Ptr, B.gep(CtlV, 8));
  B.call(Syms.Sort, {DataV, B.load(Type::I64, B.gep(CtlV, 16)),
                     B.constInt(Type::I64, 8),
                     B.load(Type::Ptr, B.gep(CtlV, 24))});
  B.ret(B.add(Base, B.load(Type::I64, DataV)));

  B.startBlock(Inner);
  BlockId InnerPre = B.currentBlock();
  ValueId Y = B.load(Type::I64, F->paramValue(1));
  ValueId Diff = B.sub(B.zext(Type::I64, B.icmp(CmpPred::SGt, X, Y)),
                       B.zext(Type::I64, B.icmp(CmpPred::SLt, X, Y)));
  ValueId Zero = B.constInt(Type::I64, 0);
  BlockId Head = B.createBlock(), Loop = B.createBlock(),
          Exit = B.createBlock();
  B.br(Head);
  B.startBlock(Head);
  ValueId I = B.phi(Type::I64, 2), Acc = B.phi(Type::I64, 2);
  B.condBr(B.icmp(CmpPred::SLt, I, B.constInt(Type::I64, 3)), Loop, Exit);
  B.startBlock(Loop);
  ValueId NI = B.add(I, B.constInt(Type::I64, 1));
  ValueId NAcc = B.add(Acc, B.constInt(Type::I64, 5));
  B.br(Head);
  B.setPhiIncoming(I, 0, InnerPre, Zero);
  B.setPhiIncoming(I, 1, Loop, NI);
  B.setPhiIncoming(Acc, 0, InnerPre, Diff);
  B.setPhiIncoming(Acc, 1, Loop, NAcc);
  B.startBlock(Exit);
  B.ret(B.sub(Acc, B.constInt(Type::I64, 15)));
  ASSERT_EQ(qir::verify(Fx.M), std::nullopt);
  Fx.compile();

  auto *Fn = Fx.entry<int64_t (*)(void *, void *)>("sortcmp");
  int64_t Data[] = {42, 7, 19, 3, 88, 3, 60};
  int64_t Ctl[4] = {-1, reinterpret_cast<int64_t>(Data), 7,
                    reinterpret_cast<int64_t>(Fn)};
  EXPECT_EQ(Fn(Ctl, nullptr), -1 + 7778 + 3);
  int64_t Expect[] = {3, 3, 7, 19, 42, 60, 88};
  for (int K = 0; K != 7; ++K)
    EXPECT_EQ(Data[K], Expect[K]);
}

TEST(Interp, LargeFrameTrapLeaksNothing) {
  // More values than fit the stack frame: the registers go to the heap,
  // and a trap must free them on its way out (the ASan leg's leak check).
  InterpFixture Fx;
  qir::Function *F =
      Fx.M.createFunction("big", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId One = B.constInt(Type::I64, 1);
  ValueId V = F->paramValue(0);
  for (int K = 0; K != 9000; ++K)
    V = B.add(V, One);
  B.ret(B.saddTrap(V, F->paramValue(1)));
  ASSERT_GT(F->numInsts(), 8192u);
  Fx.compile();
  auto *Fn = Fx.entry<int64_t (*)(int64_t, int64_t)>("big");
  EXPECT_EQ(Fn(1, 2), 9003);
  for (int K = 0; K != 3; ++K)
    EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(INT64_MAX - 9000, 1); }),
              rt::TrapCode::Overflow);
  EXPECT_EQ(Fn(-9000, 0), 0);
}
