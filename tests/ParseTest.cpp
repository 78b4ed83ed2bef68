//===- tests/ParseTest.cpp - QIR textual parser tests ----------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser tests: exact print→parse→print round-trips on the corpus and
/// on random programs, semantic equivalence of parsed modules (executed
/// against the original through the interpreter), hand-written golden IR
/// compiled by every back-end, renumbering of sparse value ids, and
/// error reporting.
///
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "qir/Parse.h"
#include "qir/Print.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "tests/DiffHarness.h"
#include "tests/RandomQir.h"
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

namespace {

std::unique_ptr<qir::Module> parseOrDie(const std::string &Text) {
  std::string Error;
  std::unique_ptr<qir::Module> M =
      qir::parseModule(Text, &Error, rt::runtimeSymbolAddress);
  EXPECT_NE(M, nullptr) << Error << "\nwhile parsing:\n" << Text;
  return M;
}

} // namespace

TEST(Parse, CorpusRoundTripsExactly) {
  // Builder-produced functions are in layout order, so the round trip
  // must reproduce the text byte for byte.
  Corpus C = buildCorpus();
  std::string Text = qir::printModule(*C.M);
  std::unique_ptr<qir::Module> M = parseOrDie(Text);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(qir::verify(*M), std::nullopt);
  EXPECT_EQ(qir::printModule(*M), Text);
}

TEST(Parse, CorpusParsedModuleExecutesIdentically) {
  Corpus C = buildCorpus();
  std::unique_ptr<qir::Module> M = parseOrDie(qir::printModule(*C.M));
  ASSERT_NE(M, nullptr);

  interp::InterpBackend BE;
  auto Orig = BE.compile(*C.M);
  auto Reparsed = BE.compile(*M);
  for (const CorpusCase &Case : C.Cases) {
    CaseOutcome A = invokeEntry(Orig->entry(Case.Fn), Case.ArgLanes);
    CaseOutcome B = invokeEntry(Reparsed->entry(Case.Fn), Case.ArgLanes);
    bool TwoLane =
        qir::isTwoLane(C.M->functionByName(Case.Fn)->returnType());
    EXPECT_EQ(A.Trapped, B.Trapped) << Case.Fn;
    if (!A.Trapped) {
      EXPECT_EQ(A.Lo, B.Lo) << Case.Fn;
      if (TwoLane)
        EXPECT_EQ(A.Hi, B.Hi) << Case.Fn;
    }
  }
}

TEST(Parse, GoldenTextCompilesOnEveryBackend) {
  // Hand-written IR: sum of 0..n-1 plus a runtime hash of the result.
  const char *Text = R"(define i64 @sumhash(i64) {
b0:
  %0 = param i64 #0
  %1 = const i64 0
  %2 = const i64 1
  br b1
b1:
  %4 = phi i64 [b0: %1], [b2: %8]
  %5 = phi i64 [b0: %1], [b2: %9]
  %6 = icmp slt i64 %4, %0
  condbr %6, b2, b3
b2:
  %8 = add i64 %4, %2
  %9 = add i64 %5, %4
  br b1
b3:
  %11 = crc32 i64 %5, %4
  ret %11
}
)";
  std::unique_ptr<qir::Module> M = parseOrDie(Text);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(qir::verify(*M), std::nullopt);

  // Reference outcome from the interpreter; all JITs must agree.
  uint64_t Ref = 0;
  for (const char *Name :
       {"Interpreter", "DirectEmit", "Craneline", "MLVM-cheap",
        "MLVM-opt"}) {
    auto BE = backend::createBackend(Name);
    auto Compiled = BE->compile(*M);
    auto *Fn = Compiled->entryAs<uint64_t (*)(uint64_t)>("sumhash");
    ASSERT_NE(Fn, nullptr) << Name;
    uint64_t Got = Fn(10);
    if (Ref == 0)
      Ref = Got;
    EXPECT_EQ(Got, Ref) << Name;
  }
  EXPECT_NE(Ref, 0u);
}

TEST(Parse, SparseIdsAreRenumbered) {
  // Ids need not be dense; the parser renumbers in textual order.
  const char *Text = R"(define i64 @f(i64) {
b7:
  %100 = param i64 #0
  %50 = const i64 5
  %9 = mul i64 %100, %50
  ret %9
}
)";
  std::unique_ptr<qir::Module> M = parseOrDie(Text);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(qir::verify(*M), std::nullopt);
  interp::InterpBackend BE;
  auto Compiled = BE.compile(*M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t)>("f");
  EXPECT_EQ(Fn(8), 40);
}

TEST(Parse, ConstantsRoundTripExactly) {
  qir::Module M;
  qir::Function *F =
      M.createFunction("consts", {}, qir::Type::F64);
  qir::Builder B(F);
  qir::ValueId I128 = B.constI128((static_cast<Int128>(0x0123456789abcdefll)
                                   << 64) |
                                  static_cast<Int128>(0xfedcba9876543210ull));
  qir::ValueId P = B.constPtr(reinterpret_cast<void *>(0xdeadbeef1234ull));
  // A NaN with payload bits — %g printing would destroy this.
  uint64_t NanBits = 0x7ff8000000abcdefull;
  double D;
  __builtin_memcpy(&D, &NanBits, sizeof(D));
  qir::ValueId N = B.constF64(D);
  (void)I128;
  (void)P;
  B.ret(N);

  std::string Text = qir::printModule(M);
  std::unique_ptr<qir::Module> M2 = parseOrDie(Text);
  ASSERT_NE(M2, nullptr);
  const qir::Function &F2 = *M2->functions()[0];
  EXPECT_EQ(F2.i128Constant(F2.inst(0)),
            (static_cast<Int128>(0x0123456789abcdefll) << 64) |
                static_cast<Int128>(0xfedcba9876543210ull));
  EXPECT_EQ(F2.inst(1).Imm, 0xdeadbeef1234ull);
  EXPECT_EQ(F2.inst(2).Imm, NanBits);
  EXPECT_EQ(qir::printModule(*M2), Text);
}

TEST(Parse, ErrorsCarryLineNumbers) {
  struct Case {
    const char *Text;
    const char *ExpectSubstr;
  };
  const Case Cases[] = {
      {"define i64 @f( {\n", "unknown type"},
      {"define i64 @f() {\nb0:\n  %0 = bogus i64 %1\n}\n",
       "unknown mnemonic"},
      {"define i64 @f() {\nb0:\n  %0 = const i64 1\n  ret %9\n}\n",
       "undefined value"},
      {"define i64 @f() {\nb0:\n  ret\nb0:\n  ret\n}\n",
       "duplicate block"},
      {"define i64 @f() {\nb0:\n  %0 = add zzz %1, %2\n}\n",
       "unknown type"},
      {"define i64 @f() {\nb0:\n  %0 = icmp wat i64 %1, %2\n}\n",
       "unknown predicate"},
  };
  for (const Case &C : Cases) {
    std::string Error;
    std::unique_ptr<qir::Module> M = qir::parseModule(C.Text, &Error);
    EXPECT_EQ(M, nullptr) << C.Text;
    EXPECT_NE(Error.find(C.ExpectSubstr), std::string::npos)
        << "got: " << Error;
  }
}

TEST(Parse, MalformedValueIdsAreRefusedWithLine) {
  // Each of these once reached Function::inst with an id out of range and
  // aborted; the parser now refuses them before building anything.
  struct Case {
    const char *Text;
    const char *Line;
    const char *ExpectSubstr;
  };
  const Case Cases[] = {
      // A result name on a void call that also uses itself.
      {"define i64 @f(i64) {\nb0:\n  %0 = param i64 #0\n"
       "  %1 = call void @rt_out_i64(%0, %1)\n  ret %0\n}\n",
       "line 4: ", "void call"},
      {"define void @f(i64) {\nb0:\n  %0 = param i64 #0\n"
       "  %1 = ret\n}\n",
       "line 4: ", "void ret"},
      // A store is printed with the stored value's type but has no value.
      {"define i64 @f(ptr, i64) {\nb0:\n  %0 = param ptr #0\n"
       "  %1 = param i64 #1\n  %2 = store i64 %1, %0\n"
       "  %3 = add i64 %2, %2\n  ret %3\n}\n",
       "line 6: ", "%2 is a store, not a value"},
      // A value defined twice, the second time in another block.
      {"define i64 @f(i64) {\nb0:\n  %0 = param i64 #0\n  br b1\nb1:\n"
       "  %0 = add i64 %0, %0\n  ret %0\n}\n",
       "line 6: ", "duplicate value %0"},
      // Operand ids the function does not define.
      {"define i64 @f(i64) {\nb0:\n  %0 = param i64 #0\n"
       "  %1 = call i64 @rt_str_hash(%7)\n  ret %0\n}\n",
       "line 4: ", "undefined value %7"},
      {"define i64 @f(i64) {\nb0:\n  %0 = param i64 #0\n"
       "  %1 = add i64 %0, %5\n  ret %1\n}\n",
       "line 4: ", "undefined value %5"},
      // Operands whose type a call or select needs, defined later.
      {"define i64 @f(i64) {\nb0:\n  %0 = param i64 #0\n"
       "  %1 = call i64 @rt_date_year(%2)\n  %2 = add i64 %0, %0\n"
       "  ret %0\n}\n",
       "line 4: ", "%2 is used before its definition"},
      {"define i64 @f(i1) {\nb0:\n  %0 = param i1 #0\n"
       "  %1 = select %0, %1, %1\n  ret %1\n}\n",
       "line 4: ", "%1 is used before its definition"},
  };
  for (const Case &C : Cases) {
    std::string Error;
    std::unique_ptr<qir::Module> M =
        qir::parseModule(C.Text, &Error, rt::runtimeSymbolAddress);
    EXPECT_EQ(M, nullptr) << C.Text;
    EXPECT_EQ(Error.rfind(C.Line, 0), 0u) << "got: " << Error;
    EXPECT_NE(Error.find(C.ExpectSubstr), std::string::npos)
        << "got: " << Error;
  }
}

TEST(Parse, UnknownRuntimeSymbolIsRefusedWithLine) {
  // Once declared with a null address, which every back-end then called.
  const char *Text = "define i64 @main() {\nb0:\n"
                     "  %0 = call i64 @rt_no_such_symbol()\n  ret %0\n}\n";
  std::string Error;
  EXPECT_EQ(qir::parseModule(Text, &Error, rt::runtimeSymbolAddress),
            nullptr);
  EXPECT_EQ(Error.rfind("line 3: ", 0), 0u) << "got: " << Error;
  EXPECT_NE(Error.find("unknown runtime symbol @rt_no_such_symbol"),
            std::string::npos)
      << "got: " << Error;
  // Without a resolver, declarations carry no addresses and any name goes.
  EXPECT_NE(qir::parseModule(Text, &Error), nullptr) << Error;
}

namespace {
class ParseProperty : public ::testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(ParseProperty, RandomProgramsRoundTrip) {
  qir::Module M;
  Rng R(GetParam() * 7919 + 13);
  RandomFnBuilder RB(M, R);
  qir::Function *F = RB.build("rand");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(qir::verify(M), std::nullopt);

  std::string Text = qir::printModule(M);
  std::string Error;
  std::unique_ptr<qir::Module> M2 =
      qir::parseModule(Text, &Error, rt::runtimeSymbolAddress);
  ASSERT_NE(M2, nullptr) << Error << "\n" << Text;
  ASSERT_EQ(qir::verify(*M2), std::nullopt);
  EXPECT_EQ(qir::printModule(*M2), Text);

  // Execute both on random inputs through the interpreter.
  interp::InterpBackend BE;
  auto C1 = BE.compile(M);
  auto C2 = BE.compile(*M2);
  for (int I = 0; I != 16; ++I) {
    std::vector<uint64_t> Args = {R.next(), R.next()};
    CaseOutcome A = invokeEntry(C1->entry("rand"), Args);
    CaseOutcome B = invokeEntry(C2->entry("rand"), Args);
    EXPECT_EQ(A.Trapped, B.Trapped) << "seed " << GetParam();
    if (!A.Trapped)
      EXPECT_EQ(A.Lo, B.Lo) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParseProperty,
                         ::testing::Range<uint64_t>(0, 20));
