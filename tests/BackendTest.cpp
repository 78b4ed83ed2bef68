//===- tests/BackendTest.cpp - Back-end registry and interface tests ------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "tests/Corpus.h"
#include "tests/DiffHarness.h"
#include <atomic>
#include <gtest/gtest.h>
#include <thread>

using namespace qcf;
using namespace qcf::test;

TEST(Registry, CreatesEveryTableIIIBackend) {
  for (const std::string &Name : backend::allBackendNames()) {
    auto B = backend::createBackend(Name);
    ASSERT_NE(B, nullptr) << Name;
    EXPECT_EQ(B->name(), Name);
  }
  EXPECT_EQ(backend::createBackend("nonsense"), nullptr);
  // Adaptive execution is ExecOptions::AdaptiveExec, not a back-end.
  EXPECT_EQ(backend::createBackend("Adaptive"), nullptr);
}

TEST(AllBackends, CorpusDifferentialMatrix) {
  // Every registered back-end must agree with the interpreter.
  for (const std::string &Name : backend::allBackendNames()) {
    if (Name == "Interpreter")
      continue;
    SCOPED_TRACE(Name);
    auto B = backend::createBackend(Name);
    runCorpusDifferential(*B);
  }
}

TEST(Backend, ConcurrentCompilationIsThreadSafe) {
  // The paper compiles queries on 32 cores; back-ends must be usable
  // from concurrent threads (MLVM's TargetMachine is cached per thread
  // for exactly this, §V-A2). Compile and run the corpus from several
  // threads at once on every in-process back-end.
  for (const char *Name : {"Interpreter", "Stencil", "DirectEmit",
                           "Craneline", "MLVM-cheap", "MLVM-opt"}) {
    std::atomic<int> Bad{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T != 4; ++T)
      Threads.emplace_back([&] {
        test::Corpus C = test::buildCorpus();
        auto BE = backend::createBackend(Name);
        for (int R = 0; R != 3; ++R) {
          auto Compiled = BE->compile(*C.M);
          auto *Add =
              Compiled->entryAs<uint64_t (*)(uint64_t, uint64_t)>(
                  "arith64");
          if (!Add)
            ++Bad;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    EXPECT_EQ(Bad.load(), 0) << Name;
  }
}

TEST(Backend, LongBranchesEncodeCorrectly) {
  // A diamond whose sides are long straight-line blocks (~3 KiB of code
  // each) forces rel32 branch fixups and, in Craneline, exercises the
  // 15-byte veneer over-estimation (§VI-B). Every back-end must agree
  // with the interpreter.
  qir::Module M;
  qir::Function *F =
      M.createFunction("longbr", {qir::Type::I64, qir::Type::I64},
                       qir::Type::I64);
  qir::Builder B(F);
  qir::BlockId T = B.createBlock(), E = B.createBlock(),
               Join = B.createBlock();
  qir::ValueId Cond =
      B.icmp(qir::CmpPred::ULt, F->paramValue(0), F->paramValue(1));
  B.condBr(Cond, T, E);

  auto EmitChain = [&](qir::ValueId Seed, uint64_t Salt) {
    qir::ValueId V = Seed;
    for (int I = 0; I != 400; ++I) {
      V = B.add(V, B.constInt(qir::Type::I64,
                              static_cast<int64_t>(Salt + I)));
      V = B.xor_(V, B.lshr(V, B.constInt(qir::Type::I64, 7)));
    }
    return V;
  };
  B.startBlock(T);
  qir::ValueId VT = EmitChain(F->paramValue(0), 0x1111);
  B.br(Join);
  B.startBlock(E);
  qir::ValueId VE = EmitChain(F->paramValue(1), 0x2222);
  B.br(Join);
  B.startBlock(Join);
  qir::ValueId Phi = B.phi(qir::Type::I64, 2);
  B.setPhiIncoming(Phi, 0, T, VT);
  B.setPhiIncoming(Phi, 1, E, VE);
  B.ret(Phi);
  ASSERT_EQ(qir::verify(M), std::nullopt);

  interp::InterpBackend IB;
  auto Ref = IB.compile(M);
  auto *RefFn = Ref->entryAs<uint64_t (*)(uint64_t, uint64_t)>("longbr");
  for (const char *Name :
       {"DirectEmit", "Craneline", "MLVM-cheap", "MLVM-opt"}) {
    auto BE = backend::createBackend(Name);
    auto Compiled = BE->compile(M);
    auto *Fn =
        Compiled->entryAs<uint64_t (*)(uint64_t, uint64_t)>("longbr");
    for (auto [X, Y] : {std::pair<uint64_t, uint64_t>{1, 2},
                        {2, 1},
                        {0xffffffffffffull, 3}})
      EXPECT_EQ(Fn(X, Y), RefFn(X, Y)) << Name;
  }
}

TEST(Backend, SremSdivIntMinEdgeCases) {
  // srem x, -1 == 0 for every x (including INT_MIN, where a naive idiv
  // faults); sdiv INT_MIN, -1 traps as overflow. Check every width on
  // every back-end — regression for a SIGFPE where the 32-bit INT_MIN
  // guard compared at the wrong width. The rest of the table covers the
  // other edges qir/Semantics.h defines (DESIGN.md "Defined arithmetic
  // edge cases"), each written out by hand rather than computed.
  struct Row {
    std::string Fn;
    std::vector<uint64_t> Args;
    bool Traps;
    uint64_t Lo = 0;
    uint64_t Hi = 0; ///< Checked for i128 results only.
  };
  using qir::Type;
  qir::Module M;
  std::vector<Row> Rows;

  // Fn(i64 x, i64 y) -> i64: Body(x, y) at type Ty, zero-extended back.
  auto Narrow = [](qir::Builder &B, qir::Function *F, unsigned P, Type Ty) {
    qir::ValueId V = F->paramValue(P);
    return Ty == Type::I64 ? V : B.trunc(Ty, V);
  };
  auto Define = [&](const std::string &Fn, Type Ty, auto Body) {
    qir::Function *F =
        M.createFunction(Fn, {Type::I64, Type::I64}, Type::I64);
    qir::Builder B(F);
    qir::ValueId R = Body(B, Narrow(B, F, 0, Ty), Narrow(B, F, 1, Ty));
    B.ret(F->valueType(R) == Type::I64 ? R : B.zext(Type::I64, R));
  };
  // Fn(lanes...) -> i128: Body over the i128 values packed from pairs of
  // i64 parameters (a trailing odd parameter is passed through as i64).
  auto DefineWide = [&](const std::string &Fn, unsigned NumParams,
                        auto Body) {
    qir::Function *F = M.createFunction(
        Fn, std::vector<Type>(NumParams, Type::I64), Type::I128);
    qir::Builder B(F);
    qir::ValueId A = B.packI128(F->paramValue(0), F->paramValue(1));
    qir::ValueId Other =
        NumParams == 4 ? B.packI128(F->paramValue(2), F->paramValue(3))
                       : F->paramValue(2);
    B.ret(Body(B, A, Other));
  };

  const uint64_t Ones = ~0ull, Pattern = 0xa5a5a5a5a5a5a5a5ull;
  for (Type Ty : {Type::I8, Type::I16, Type::I32, Type::I64}) {
    unsigned W = qir::intBits(Ty);
    uint64_t Mask = qir::typeMask(Ty), Min = 1ull << (W - 1);
    std::string T = qir::typeName(Ty);
    Define("rem." + T, Ty, [](qir::Builder &B, auto X, auto Y) {
      return B.srem(X, Y);
    });
    Define("div." + T, Ty, [](qir::Builder &B, auto X, auto Y) {
      return B.sdiv(X, Y);
    });
    // Shift amounts are masked into range: larger ones are undefined in
    // QIR, and translation validation (QCF_VERIFY=tv) runs every compiled
    // function on random inputs.
    for (qir::Opcode Op : {qir::Opcode::Shl, qir::Opcode::LShr,
                           qir::Opcode::AShr, qir::Opcode::RotR})
      Define(std::string(qir::opcodeName(Op)) + "." + T, Ty,
             [&](qir::Builder &B, auto X, auto Y) {
               return B.binary(Op, X, B.and_(Y, B.constInt(Ty, W - 1)));
             });
    Rows.push_back({"rem." + T, {Min, Ones}, false, 0});
    Rows.push_back({"rem." + T, {12345, Ones}, false, 0});
    Rows.push_back({"div." + T, {Min, Ones}, true});
    // 0xffffffff is -1 below i64 and a large positive divisor at i64.
    Rows.push_back({"div." + T,
                    {100, 0xffffffffull},
                    false,
                    Ty == Type::I64 ? 0 : static_cast<uint64_t>(-100) & Mask});
    Rows.push_back({"shl." + T, {1, W - 1}, false, Min});
    Rows.push_back({"lshr." + T, {Min, W - 1}, false, 1});
    Rows.push_back({"ashr." + T, {Min, W - 1}, false, Mask});
    Rows.push_back({"rotr." + T, {Pattern, 0}, false, Pattern & Mask});
  }

  // i128 shifts by 127 (an i64 amount).
  for (qir::Opcode Op :
       {qir::Opcode::Shl, qir::Opcode::LShr, qir::Opcode::AShr})
    DefineWide(std::string(qir::opcodeName(Op)) + ".i128", 3,
               [&](qir::Builder &B, auto X, auto S) {
                 return B.binary(Op, X,
                                 B.and_(S, B.constInt(Type::I64, 127)));
               });
  const uint64_t Sign = 1ull << 63;
  Rows.push_back({"shl.i128", {1, 0, 127}, false, 0, Sign});
  Rows.push_back({"lshr.i128", {0, Sign, 127}, false, 1, 0});
  Rows.push_back({"ashr.i128", {0, Sign, 127}, false, Ones, Ones});

  // i1 compares as unsigned 0/1 whatever the predicate's signedness.
  for (qir::CmpPred P : {qir::CmpPred::SLt, qir::CmpPred::SGt}) {
    Define(std::string("icmp.") + qir::cmpPredName(P) + ".i1", Type::I1,
           [P](qir::Builder &B, auto X, auto Y) { return B.icmp(P, X, Y); });
  }
  Rows.push_back({"icmp.slt.i1", {1, 0}, false, 0});
  Rows.push_back({"icmp.slt.i1", {0, 1}, false, 1});
  Rows.push_back({"icmp.sgt.i1", {1, 0}, false, 1});
  // Truncation to i1 keeps only bit 0, whatever the bits above it hold.
  Rows.push_back({"icmp.slt.i1", {2, 1}, false, 1});
  Rows.push_back({"icmp.slt.i1", {1, 2}, false, 0});
  // i1 arithmetic wraps at one bit.
  Define("not.i1", Type::I1,
         [](qir::Builder &B, auto X, auto) { return B.not_(X); });
  Define("neg.i1", Type::I1,
         [](qir::Builder &B, auto X, auto) { return B.neg(X); });
  Define("add.i1", Type::I1,
         [](qir::Builder &B, auto X, auto Y) { return B.add(X, Y); });
  Define("sub.i1", Type::I1,
         [](qir::Builder &B, auto X, auto Y) { return B.sub(X, Y); });
  Rows.push_back({"not.i1", {1, 0}, false, 0});
  Rows.push_back({"not.i1", {2, 0}, false, 1});
  Rows.push_back({"neg.i1", {1, 0}, false, 1});
  Rows.push_back({"add.i1", {1, 1}, false, 0});
  Rows.push_back({"sub.i1", {0, 1}, false, 1});

  // fptosi is cvttsd2si: NaN, +-inf and 2^63 all give INT64_MIN.
  Define("fptosi", Type::I64, [](qir::Builder &B, auto X, auto) {
    return B.fptosi(Type::I64, B.bitcast(Type::F64, X));
  });
  for (uint64_t Bits : {0x7ff8000000000000ull, 0x7ff0000000000000ull,
                        0xfff0000000000000ull, 0x43e0000000000000ull,
                        0xc3e0000000000000ull})
    Rows.push_back({"fptosi", {Bits, 0}, false, Sign});

  // sext from i1.
  Define("sext.i1.i64", Type::I1, [](qir::Builder &B, auto X, auto) {
    return B.sext(Type::I64, X);
  });
  Define("sext.i1.i32", Type::I1, [](qir::Builder &B, auto X, auto) {
    return B.sext(Type::I32, X);
  });
  Rows.push_back({"sext.i1.i64", {1, 0}, false, Ones});
  Rows.push_back({"sext.i1.i64", {0, 0}, false, 0});
  Rows.push_back({"sext.i1.i32", {1, 0}, false, 0xffffffffull});
  Rows.push_back({"sext.i1.i64", {3, 0}, false, Ones});
  Rows.push_back({"sext.i1.i64", {2, 0}, false, 0});
  Rows.push_back({"sext.i1.i32", {0xfe, 0}, false, 0});

  // Trapping arithmetic at the i32/i64 limits.
  for (Type Ty : {Type::I32, Type::I64}) {
    std::string T = qir::typeName(Ty);
    uint64_t Mask = qir::typeMask(Ty);
    uint64_t Min = 1ull << (qir::intBits(Ty) - 1), Max = Min - 1;
    uint64_t Half = 1ull << (qir::intBits(Ty) / 2); // Half * Half/2 == Min.
    Define("saddtrap." + T, Ty, [](qir::Builder &B, auto X, auto Y) {
      return B.saddTrap(X, Y);
    });
    Define("ssubtrap." + T, Ty, [](qir::Builder &B, auto X, auto Y) {
      return B.ssubTrap(X, Y);
    });
    Define("smultrap." + T, Ty, [](qir::Builder &B, auto X, auto Y) {
      return B.smulTrap(X, Y);
    });
    Rows.push_back({"saddtrap." + T, {Max, 1}, true});
    Rows.push_back({"saddtrap." + T, {Min, Mask}, true});
    Rows.push_back({"saddtrap." + T, {Max, 0}, false, Max});
    Rows.push_back({"saddtrap." + T, {Min, Max}, false, Mask});
    Rows.push_back({"ssubtrap." + T, {Min, 1}, true});
    Rows.push_back({"ssubtrap." + T, {Max, Mask}, true});
    Rows.push_back({"ssubtrap." + T, {Min, 0}, false, Min});
    Rows.push_back({"ssubtrap." + T, {0, Max}, false, Min + 1});
    Rows.push_back({"smultrap." + T, {Min, Mask}, true});
    Rows.push_back({"smultrap." + T, {Half, Half / 2}, true});
    Rows.push_back({"smultrap." + T, {Half, Half / 2 - 1}, false,
                    Min - Half});
    Rows.push_back({"smultrap." + T, {Max, 1}, false, Max});
  }

  // Trapping arithmetic at the i128 limits (lo, hi lane pairs).
  DefineWide("saddtrap.i128", 4, [](qir::Builder &B, auto X, auto Y) {
    return B.saddTrap(X, Y);
  });
  DefineWide("ssubtrap.i128", 4, [](qir::Builder &B, auto X, auto Y) {
    return B.ssubTrap(X, Y);
  });
  DefineWide("smultrap.i128", 4, [](qir::Builder &B, auto X, auto Y) {
    return B.smulTrap(X, Y);
  });
  const uint64_t MaxHi = Sign - 1;
  Rows.push_back({"saddtrap.i128", {Ones, MaxHi, 1, 0}, true});
  Rows.push_back({"saddtrap.i128", {0, Sign, Ones, Ones}, true});
  Rows.push_back({"saddtrap.i128", {Ones, MaxHi, 0, 0}, false, Ones, MaxHi});
  Rows.push_back({"ssubtrap.i128", {0, Sign, 1, 0}, true});
  Rows.push_back({"ssubtrap.i128", {Ones, MaxHi, Ones, Ones}, true});
  Rows.push_back({"ssubtrap.i128", {0, Sign, 0, 0}, false, 0, Sign});
  Rows.push_back({"smultrap.i128", {0, Sign, Ones, Ones}, true});
  Rows.push_back({"smultrap.i128", {0, 1, Sign, 0}, true}); // 2^64 * 2^63
  Rows.push_back({"smultrap.i128", {0, 1, Sign >> 1, 0}, false, 0, Sign >> 1});
  Rows.push_back({"smultrap.i128", {Ones, MaxHi, 1, 0}, false, Ones, MaxHi});
  ASSERT_EQ(qir::verify(M), std::nullopt);

  for (const char *Name : {"Interpreter", "Stencil", "DirectEmit",
                           "Craneline", "MLVM-cheap", "MLVM-opt"}) {
    auto BE = backend::createBackend(Name);
    auto Compiled = BE->compile(M);
    for (const Row &R : Rows) {
      SCOPED_TRACE(std::string(Name) + " " + R.Fn);
      CaseOutcome Got = invokeEntry(Compiled->entry(R.Fn), R.Args);
      ASSERT_EQ(Got.Trapped, R.Traps);
      if (R.Traps)
        continue;
      EXPECT_EQ(Got.Lo, R.Lo);
      if (M.functionByName(R.Fn)->returnType() == Type::I128) {
        EXPECT_EQ(Got.Hi, R.Hi);
      }
    }
  }
}
