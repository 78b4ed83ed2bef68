//===- tests/StencilTest.cpp - Copy-and-patch back-end tests ---------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential, serialization, and mutation coverage for the stencil
/// (copy-and-patch) back-end. The mutation half mirrors VerifierTest:
/// every class of patch-record corruption a broken stencil table or a
/// bit-rotted cache blob could produce — wrong relocation offset, stale
/// imm64 with a dropped relocation record, corrupted continuation jump —
/// must be caught by the encoding lint or by translation validation.
///
//===----------------------------------------------------------------------===//

#include "backend/DiskCache.h"
#include "obs/Obs.h"
#include "qir/Builder.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "stencil/Stencil.h"
#include "stencil/Stencils.h"
#include "tests/Corpus.h"
#include "tests/DiffHarness.h"
#include "tests/ImagePayload.h"
#include "tv/Tv.h"
#include "x64/Decode.h"
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace qcf;
using namespace qcf::test;

namespace {

//===----------------------------------------------------------------------===//
// Differential tests
//===----------------------------------------------------------------------===//

TEST(Stencil, CorpusDifferentialAgainstInterpreter) {
  stencil::StencilBackend B;
  runCorpusDifferential(B);
}

TEST(Stencil, SimpleFunctionRuns) {
  qir::Module M;
  qir::Function *F =
      M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  stencil::StencilBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<int64_t (*)(int64_t, int64_t)>("f");
  EXPECT_EQ(Fn(40, 2), 42);
  EXPECT_EQ(Fn(-1, 1), 0);
}

TEST(Stencil, DiamondWithPhiSelectsCorrectEdge) {
  // if (a < b) x = a*3 else x = b+7; return x — exercises the shadow-slot
  // phi commit on both edges.
  qir::Module M;
  qir::Function *F =
      M.createFunction("dia", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  BlockId Then = B.createBlock(), Else = B.createBlock(),
          Join = B.createBlock();
  ValueId A = F->paramValue(0), Bv = F->paramValue(1);
  B.condBr(B.icmp(CmpPred::SLt, A, Bv), Then, Else);
  B.startBlock(Then);
  ValueId X1 = B.mul(A, B.constInt(Type::I64, 3));
  B.br(Join);
  B.startBlock(Else);
  ValueId X2 = B.add(Bv, B.constInt(Type::I64, 7));
  B.br(Join);
  B.startBlock(Join);
  ValueId P = B.phi(Type::I64, 2);
  B.setPhiIncoming(P, 0, Then, X1);
  B.setPhiIncoming(P, 1, Else, X2);
  B.ret(P);
  ASSERT_EQ(qir::verify(M), std::nullopt);

  stencil::StencilBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<int64_t (*)(int64_t, int64_t)>("dia");
  EXPECT_EQ(Fn(2, 5), 6);   // then: 2*3
  EXPECT_EQ(Fn(5, 2), 9);   // else: 2+7
  EXPECT_EQ(Fn(4, 4), 11);  // not-less-than takes else: 4+7
}

TEST(Stencil, LoopWithSwappingPhisNeedsParallelCopy) {
  // Fibonacci via two phis whose edge moves read each other — the
  // classic swap hazard the shadow-slot scheme exists to avoid.
  qir::Module M;
  qir::Function *F = M.createFunction("fib", {Type::I64}, Type::I64);
  Builder B(F);
  BlockId Head = B.createBlock(), Body = B.createBlock(),
          Exit = B.createBlock();
  ValueId N = F->paramValue(0);
  ValueId Zero = B.constInt(Type::I64, 0);
  ValueId One = B.constInt(Type::I64, 1);
  B.br(Head);
  B.startBlock(Head);
  ValueId I = B.phi(Type::I64, 2);
  ValueId Pa = B.phi(Type::I64, 2);
  ValueId Pb = B.phi(Type::I64, 2);
  B.condBr(B.icmp(CmpPred::SLt, I, N), Body, Exit);
  B.startBlock(Body);
  ValueId NextI = B.add(I, One);
  ValueId Sum = B.add(Pa, Pb);
  B.br(Head);
  B.setPhiIncoming(I, 0, B.entryBlock(), Zero);
  B.setPhiIncoming(I, 1, Body, NextI);
  B.setPhiIncoming(Pa, 0, B.entryBlock(), Zero);
  B.setPhiIncoming(Pa, 1, Body, Pb); // a' = b: reads the other phi's home
  B.setPhiIncoming(Pb, 0, B.entryBlock(), One);
  B.setPhiIncoming(Pb, 1, Body, Sum);
  B.startBlock(Exit);
  B.ret(Pa);
  ASSERT_EQ(qir::verify(M), std::nullopt);

  stencil::StencilBackend BE;
  auto C = BE.compile(M);
  auto *Fn = C->entryAs<int64_t (*)(int64_t)>("fib");
  EXPECT_EQ(Fn(0), 0);
  EXPECT_EQ(Fn(1), 1);
  EXPECT_EQ(Fn(10), 55);
  EXPECT_EQ(Fn(20), 6765);
}

TEST(Stencil, TrapUnwindsToGuard) {
  Corpus C = buildCorpus();
  stencil::StencilBackend BE;
  auto Compiled = BE.compile(*C.M);
  auto *Fn = Compiled->entryAs<int64_t (*)(int64_t, int64_t)>("traps");
  EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(1, 2); }), rt::TrapCode::None);
  EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(INT64_MAX, 1); }),
            rt::TrapCode::Overflow);
}

TEST(Stencil, CompileTimeBreakdownHasCodegenAndLink) {
  Corpus C = buildCorpus();
  stencil::StencilBackend BE;
  TimeTrace Trace;
  auto Compiled = BE.compile(*C.M, backend::CompileOptions(&Trace));
  // One IR walk, no analysis phase: codegen and link are the whole story.
  EXPECT_GT(Trace.totalNs("stencil.codegen"), 0u);
  EXPECT_GT(Trace.totalNs("stencil.link"), 0u);
  EXPECT_EQ(Trace.totalNs("stencil.analysis"), 0u);
}

TEST(Stencil, CompileEmitsMemoryMetrics) {
  Corpus C = buildCorpus();
  stencil::StencilBackend BE;
  obs::MetricsRegistry Reg;
  backend::CompileOptions Opts;
  Opts.Obs.Metrics = &Reg;
  auto Compiled = BE.compile(*C.M, Opts);
  obs::MetricsSnapshot S = Reg.snapshot();
  EXPECT_GT(S.counter("mem.stencil.code.bytes"), 0u);
  EXPECT_GT(S.counter("mem.stencil.frame.bytes"), 0u);
  EXPECT_EQ(S.counter("mem.stencil.compiles"), 1u);
}

class StencilProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StencilProperty, MatchesInterpreterOnRandomFunctions) {
  stencil::StencilBackend B;
  runRandomDifferentialFor(B, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StencilProperty,
                         ::testing::Range<uint64_t>(0, 40));

//===----------------------------------------------------------------------===//
// Serialization + disk cache
//===----------------------------------------------------------------------===//

/// A module whose compiled form carries named runtime relocations (the
/// i128 division lowers to an rt_sdiv128 call and both trap stubs call
/// rt_trap), a conditional continuation jump, and a frame-size patch —
/// one of every patch class the payload must survive.
void buildRelocModule(qir::Module &M) {
  qir::Function *F =
      M.createFunction("wide_div", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  BlockId Slow = B.createBlock(), Done = B.createBlock();
  ValueId False = B.constBool(false);
  ValueId A = B.sext(Type::I128, F->paramValue(0));
  ValueId Bv = B.sext(Type::I128, F->paramValue(1));
  ValueId Q = B.sdiv(A, Bv);
  ValueId Lo = B.trunc(Type::I64, Q);
  // Launder the condition through an xor so the CondBr cannot fuse with
  // the compare's flags: the mutation suite wants the test+jnz
  // continuation form in the emitted bytes.
  ValueId IsNeg = B.icmp(CmpPred::SLt, Lo, B.constInt(Type::I64, 0));
  B.condBr(B.xor_(IsNeg, False), Slow, Done);
  B.startBlock(Slow);
  ValueId Neg = B.neg(Lo);
  B.br(Done);
  B.startBlock(Done);
  ValueId P = B.phi(Type::I64, 2);
  B.setPhiIncoming(P, 0, B.entryBlock(), Lo);
  B.setPhiIncoming(P, 1, Slow, Neg);
  B.ret(P);
  ASSERT_EQ(qir::verify(M), std::nullopt);
}

void checkRelocModule(backend::CompiledModule &C) {
  auto *Fn = C.entryAs<int64_t (*)(int64_t, int64_t)>("wide_div");
  ASSERT_NE(Fn, nullptr);
  EXPECT_EQ(Fn(100, 7), 14);
  EXPECT_EQ(Fn(-100, 7), 14); // negative quotient re-negated by the branch
  EXPECT_EQ(rt::runWithTrapGuard([&] { Fn(1, 0); }), rt::TrapCode::DivByZero);
}

TEST(Stencil, SerializeRoundTripExecutesAndReserializesIdentically) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  checkRelocModule(*Fresh);

  std::vector<uint8_t> P1;
  ASSERT_TRUE(Fresh->serialize(P1));
  std::unique_ptr<backend::CompiledModule> Warm =
      BE.deserialize(P1.data(), P1.size());
  ASSERT_NE(Warm, nullptr);
  checkRelocModule(*Warm);

  std::vector<uint8_t> P2;
  ASSERT_TRUE(Warm->serialize(P2));
  EXPECT_EQ(P1, P2) << "warm module must re-serialize byte-identically";
}

TEST(Stencil, WarmModulePassesTranslationValidation) {
  // The disk-cache-warm half of the QCF_VERIFY=tv acceptance criterion:
  // a deserialized stencil module must still co-simulate against QIR.
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));
  auto Warm = BE.deserialize(Blob.data(), Blob.size());
  ASSERT_NE(Warm, nullptr);
  EXPECT_EQ(tv::validateModule(M, Warm->tvFunctions(), tv::TvOptions()), "");
}

TEST(Stencil, EveryFragmentLintsClean) {
  // Every fragment of the table, reached by a compile or not, decodes as
  // Assembler output, and each patch record covers the immediate or
  // displacement bytes of one instruction (width 8 for Imm64, else 4). A
  // ud2 after the fragment stands for the code that follows it, since an
  // internal branch may target the fragment's end.
  using stencil::Fragment;
  using stencil::Patch;
  const stencil::StencilTable &T = stencil::StencilTable::get();
  auto Lint = [](const std::string &Name, const Fragment &F) {
    std::vector<uint8_t> Code = F.Bytes;
    Code.insert(Code.end(), {0x0f, 0x0b});
    std::vector<x64::DecodeReloc> Relocs;
    for (const Patch &P : F.Patches)
      Relocs.push_back({P.Off, P.K == Patch::Kind::Imm64 ? 8u : 4u});
    EXPECT_EQ(x64::decodeFunction(Code.data(), Code.size(), Relocs).Error, "")
        << Name;
  };
  const Fragment *Structural[] = {
      &T.Prologue, &T.Epilogue, &T.Ud2,    &T.Jmp,    &T.TestJnz,
      &T.CallR10,  &T.LdA,      &T.LdAHi,  &T.LdB,    &T.LdBHi,
      &T.LdCond,   &T.LdAX,     &T.LdBX,   &T.StA,    &T.StAHi,
      &T.StAX,     &T.LdTmp,    &T.StTmp,  &T.ConstA, &T.ConstAHi,
      &T.LeaSlotA};
  std::vector<const Fragment *> All(std::begin(Structural),
                                    std::end(Structural));
  for (const Fragment &F : T.JccPred)
    All.push_back(&F);
  for (const Fragment &F : T.TrapStub)
    All.push_back(&F);
  for (const Fragment &F : T.LdArg)
    All.push_back(&F);
  for (const Fragment &F : T.StParamGp)
    All.push_back(&F);
  for (const Fragment &F : T.StParamXmm)
    All.push_back(&F);
  for (size_t I = 0; I != All.size(); ++I)
    Lint("structural fragment #" + std::to_string(I), *All[I]);

  ASSERT_FALSE(T.cores().empty());
  for (const auto &[Key, F] : T.cores())
    Lint("core " + std::string(qir::opcodeName(static_cast<qir::Opcode>(
                       Key >> 16))) +
             "/" + std::to_string((Key >> 8) & 0xff) + "/" +
             std::to_string(Key & 0xff),
         F);
}

TEST(Stencil, DiskCacheRoundTrip) {
  char Tmpl[] = "/tmp/qcf-stencil-cache-XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;

  {
    backend::DiskCodeCache Cache(Dir, /*BudgetBytes=*/0);
    qir::Module M;
    buildRelocModule(M);
    backend::ModuleFingerprint Key = backend::fingerprintModule(M);
    stencil::StencilBackend BE;
    backend::CompileOptions Opts;

    auto Fresh = BE.compile(M, Opts);
    ASSERT_TRUE(Cache.store(Key, BE, *Fresh, Opts));
    std::shared_ptr<backend::CompiledModule> Warm =
        Cache.load(Key, BE, Opts);
    ASSERT_NE(Warm, nullptr);
    EXPECT_EQ(Cache.stats().Hits, 1u);
    checkRelocModule(*Warm);
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Mutation tests: corrupted patch records must not pass verification
//===----------------------------------------------------------------------===//

/// Deserializes \p Blob and translation-validates it against \p M,
/// returning the tv diagnostic ("" = passed).
std::string tvAfterDeserialize(const qir::Module &M,
                               const std::vector<uint8_t> &Blob) {
  stencil::StencilBackend BE;
  auto Warm = BE.deserialize(Blob.data(), Blob.size());
  if (!Warm)
    return "deserialize refused the blob (cache miss)";
  return tv::validateModule(M, Warm->tvFunctions(), tv::TvOptions());
}

TEST(StencilMutation, RelocWithWrongOffsetIsCaught) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));

  ImagePayload P = ImagePayload::parse(Blob);
  ASSERT_FALSE(P.Image.Relocs.empty());
  // Shift the first relocation by one byte: deserialize patches the
  // runtime address one byte off inside the movabs, garbling both the
  // immediate and the byte after it.
  P.Image.Relocs[0].Offset += 1;
  std::vector<uint8_t> Bad = P.build();
  EXPECT_NE(tvAfterDeserialize(M, Bad), "")
      << "shifted relocation offset must not validate";

  // The encoding lint must reject the shifted record too: the 8-byte
  // patch range no longer sits inside one instruction's immediate field.
  auto Warm = BE.deserialize(Bad.data(), Bad.size());
  if (Warm) {
    auto Fns = Warm->tvFunctions();
    ASSERT_FALSE(Fns.empty());
    bool AnyLintError = false;
    for (const auto &Fn : Fns) {
      std::vector<x64::DecodeReloc> LR;
      for (const auto &Rel : Fn.Relocs)
        LR.push_back({Rel.Offset, Rel.Width});
      AnyLintError |= !x64::decodeFunction(Fn.Code, Fn.Size, LR).Error.empty();
    }
    EXPECT_TRUE(AnyLintError)
        << "encoding lint must flag a mid-instruction relocation range";
  }
}

TEST(StencilMutation, StaleImm64WithDroppedRelocIsCaught) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));

  ImagePayload P = ImagePayload::parse(Blob);
  ASSERT_FALSE(P.Image.Relocs.empty());
  // Drop the record for one call-target imm64 and plant a stale address
  // in the code bytes — the shape a warm restart would see if a blob
  // from a previous process leaked its raw pointers. Deserialize leaves
  // the bytes unpatched; tv must refuse the unknown call target.
  x64::CodeImage::Reloc Dropped = P.Image.Relocs.back();
  P.Image.Relocs.pop_back();
  ASSERT_LE(Dropped.Offset + 8, P.Code.size());
  uint64_t Stale = 0x4242424242424242ull;
  std::memcpy(P.Code.data() + Dropped.Offset, &Stale, 8);
  EXPECT_NE(tvAfterDeserialize(M, P.build()), "")
      << "stale call-target address must not validate";
}

TEST(StencilMutation, CorruptedContinuationJumpIsCaught) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));

  ImagePayload P = ImagePayload::parse(Blob);
  // Locate the conditional continuation jump the compiler patched: the
  // TestJnz fragment is `test rax, rax; jnz rel32`.
  const stencil::Fragment &TJ = stencil::StencilTable::get().TestJnz;
  ASSERT_EQ(TJ.Patches.size(), 1u);
  size_t PrefixLen = TJ.Patches[0].Off; // bytes before the rel32 field
  auto It = std::search(P.Code.begin(), P.Code.end(), TJ.Bytes.begin(),
                        TJ.Bytes.begin() + PrefixLen);
  ASSERT_NE(It, P.Code.end()) << "emitted code must contain a test+jnz";
  size_t RelPos = static_cast<size_t>(It - P.Code.begin()) + PrefixLen;

  // Nudge the patched rel32 so the branch lands mid-instruction. The
  // lint's branch-target check must fire on the deserialized bytes.
  int32_t Rel;
  std::memcpy(&Rel, P.Code.data() + RelPos, 4);
  Rel += 3;
  std::memcpy(P.Code.data() + RelPos, &Rel, 4);

  auto Corrupt = P.build();
  auto Warm = BE.deserialize(Corrupt.data(), Corrupt.size());
  ASSERT_NE(Warm, nullptr);
  auto Fns = Warm->tvFunctions();
  ASSERT_FALSE(Fns.empty());
  bool AnyLintError = false;
  for (const auto &Fn : Fns) {
    std::vector<x64::DecodeReloc> LR;
    for (const auto &Rel : Fn.Relocs)
      LR.push_back({Rel.Offset, Rel.Width});
    AnyLintError |= !x64::decodeFunction(Fn.Code, Fn.Size, LR).Error.empty();
  }
  EXPECT_TRUE(AnyLintError)
      << "encoding lint must flag a mid-instruction branch target";
  // Belt and braces: the co-simulation diverges at the bad branch too.
  EXPECT_NE(tv::validateModule(M, Fns, tv::TvOptions()), "");
}

TEST(StencilMutation, TruncatedBlobDegradesToCacheMiss) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));
  for (size_t Cut : {size_t(0), size_t(4), Blob.size() / 2, Blob.size() - 1})
    EXPECT_EQ(BE.deserialize(Blob.data(), Cut), nullptr)
        << "truncated at " << Cut;
}

TEST(StencilMutation, UnknownRelocSymbolDegradesToCacheMiss) {
  qir::Module M;
  buildRelocModule(M);
  stencil::StencilBackend BE;
  auto Fresh = BE.compile(M);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(Fresh->serialize(Blob));
  ImagePayload P = ImagePayload::parse(Blob);
  ASSERT_FALSE(P.Image.Relocs.empty());
  P.Image.Relocs[0].Symbol = "rt_no_such_helper";
  auto Bad = P.build();
  EXPECT_EQ(BE.deserialize(Bad.data(), Bad.size()), nullptr);
}

} // namespace
