//===- tests/TvTest.cpp - Translation validation tests ---------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the translation validator (src/tv, QCF_VERIFY=tv) on both
/// sides of its contract:
///
///  * Zero false positives: every corpus function compiled by every JIT
///    back-end — cold and rehydrated from a serialized blob — validates
///    cleanly.
///  * No false negatives on the mutation classes tv claims to catch: each
///    mutation test pairs a Builder-built QIR function with hand-assembled
///    machine code, checks the correct encoding passes, then applies one
///    targeted byte mutation and checks the validator reports it.
///
/// The file also carries the disk-cache regressions: a direct blob with a
/// corrupted code byte deserializes fine (the back-end payload has no
/// checksum of its own) but fails tv, and an mlvm blob with a corrupted
/// relocation addend is rejected by the PLT patch audit in
/// MlvmBackend::deserialize before any code can run.
///
//===----------------------------------------------------------------------===//

#include "craneline/Craneline.h"
#include "direct/DirectEmit.h"
#include "mlvm/Mlvm.h"
#include "qir/Builder.h"
#include "qir/Verify.h"
#include "qir/Semantics.h"
#include "stencil/Stencil.h"
#include "runtime/Runtime.h"
#include "tests/Corpus.h"
#include "tv/Term.h"
#include "tv/Tv.h"
#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <gtest/gtest.h>

namespace {

using namespace qcf;
using qir::Builder;
using qir::CmpPred;
using qir::Function;
using qir::Type;
using qir::ValueId;

//===----------------------------------------------------------------------===//
// Corpus: zero false positives, cold and disk-cache-warm
//===----------------------------------------------------------------------===//

void validateCorpusColdAndWarm(backend::Backend &BE) {
  test::Corpus C = test::buildCorpus();

  std::unique_ptr<backend::CompiledModule> CM = BE.compile(*C.M);
  ASSERT_TRUE(CM);
  std::vector<tv::TvFunction> Fns = CM->tvFunctions();
  ASSERT_FALSE(Fns.empty());
  tv::TvStats St;
  std::string FirstErr;
  for (const tv::TvFunction &MF : Fns) {
    const qir::Function *F = C.M->functionByName(MF.Name);
    ASSERT_NE(F, nullptr) << MF.Name;
    std::string R = tv::validateFunction(*F, MF, tv::TvOptions(), &St);
    if (!R.empty() && FirstErr.empty())
      FirstErr = R;
  }
  EXPECT_EQ(FirstErr, "");
  EXPECT_EQ(St.Mismatches, 0u);
  EXPECT_GE(St.Functions, 10u) << "most corpus functions must be validated, "
                                  "not skipped";

  // Warm path: the rehydrated module's code went through the relocation
  // re-patch machinery, which is exactly what tv exists to re-check.
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(CM->serialize(Blob));
  std::unique_ptr<backend::CompiledModule> Warm =
      BE.deserialize(Blob.data(), Blob.size());
  ASSERT_TRUE(Warm);
  EXPECT_EQ(tv::validateModule(*C.M, Warm->tvFunctions(), tv::TvOptions()),
            "");
}

TEST(TvCorpus, DirectColdAndWarm) {
  direct::DirectBackend BE;
  validateCorpusColdAndWarm(BE);
}

TEST(TvCorpus, StencilColdAndWarm) {
  stencil::StencilBackend BE;
  validateCorpusColdAndWarm(BE);
}

TEST(TvCorpus, CranelineColdAndWarm) {
  craneline::CranelineBackend BE;
  validateCorpusColdAndWarm(BE);
}

TEST(TvCorpus, MlvmColdAndWarm) {
  mlvm::MlvmBackend BE((mlvm::MlvmOptions()));
  validateCorpusColdAndWarm(BE);
}

//===----------------------------------------------------------------------===//
// Mutation harness
//===----------------------------------------------------------------------===//

/// Tiny byte buffer builder for hand-assembled x64.
struct Asm {
  std::vector<uint8_t> Code;

  void bytes(std::initializer_list<int> Bs) {
    for (int B : Bs)
      Code.push_back(static_cast<uint8_t>(B));
  }
  /// Emits a little-endian imm64 and returns its offset (for relocations
  /// and targeted corruption).
  size_t imm64(uint64_t V) {
    size_t Off = Code.size();
    for (int I = 0; I != 8; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
    return Off;
  }
  void imm32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
};

std::string runTv(const qir::Function &F, const std::vector<uint8_t> &Code,
                  std::vector<tv::TvReloc> Relocs, tv::TvStats *St) {
  tv::TvFunction MF;
  MF.Name = F.name();
  MF.Code = Code.data();
  MF.Size = Code.size();
  MF.Relocs = std::move(Relocs);
  return tv::validateFunction(F, MF, tv::TvOptions(), St);
}

/// The correct encoding must validate — otherwise the paired mutation test
/// proves nothing.
void expectPasses(const qir::Function &F, const std::vector<uint8_t> &Code,
                  std::vector<tv::TvReloc> Relocs = {}) {
  tv::TvStats St;
  std::string R = runTv(F, Code, std::move(Relocs), &St);
  EXPECT_EQ(R, "");
  EXPECT_EQ(St.Functions, 1u);
  EXPECT_EQ(St.Skipped, 0u);
}

/// The mutated encoding must produce a counterexample report.
void expectCaught(const qir::Function &F, const std::vector<uint8_t> &Code,
                  std::vector<tv::TvReloc> Relocs = {},
                  const char *Needle = nullptr) {
  tv::TvStats St;
  std::string R = runTv(F, Code, std::move(Relocs), &St);
  EXPECT_NE(R, "") << "mutation was not caught";
  EXPECT_EQ(St.Mismatches, 1u);
  if (Needle) {
    EXPECT_NE(R.find(Needle), std::string::npos) << R;
  }
}

uint64_t rtAddr(const char *Name) {
  void *P = rt::runtimeSymbolAddress(Name);
  EXPECT_NE(P, nullptr) << Name;
  return reinterpret_cast<uint64_t>(P);
}

//===----------------------------------------------------------------------===//
// Mutation cases
//===----------------------------------------------------------------------===//

TEST(TvMutation, BaselineAddPasses) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8}); // mov rax, rdi
  A.bytes({0x48, 0x01, 0xf0}); // add rax, rsi
  A.bytes({0xc3});             // ret
  expectPasses(*F, A.Code);
}

TEST(TvMutation, CatchesFlippedImmediate) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), B.constInt(Type::I64, 5)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8});       // mov rax, rdi
  A.bytes({0x48, 0x83, 0xc0, 0x05}); // add rax, 5
  A.bytes({0xc3});                   // ret
  expectPasses(*F, A.Code);

  A.Code[6] = 0x06; // add rax, 6
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesAddBecomingSub) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8}); // mov rax, rdi
  A.bytes({0x48, 0x01, 0xf0}); // add rax, rsi
  A.bytes({0xc3});             // ret
  A.Code[4] = 0x29;            // sub rax, rsi
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesSwappedSetccCondition) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId C = B.icmp(CmpPred::SLt, F->paramValue(0), F->paramValue(1));
  B.ret(B.zext(Type::I64, C));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x39, 0xf7});       // cmp rdi, rsi
  A.bytes({0x0f, 0x9c, 0xc0});       // setl al
  A.bytes({0x48, 0x0f, 0xb6, 0xc0}); // movzx rax, al
  A.bytes({0xc3});                   // ret
  expectPasses(*F, A.Code);

  A.Code[4] = 0x9d; // setge al — inverted predicate
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesDroppedZeroExtend) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  ValueId C = B.icmp(CmpPred::SLt, F->paramValue(0), F->paramValue(1));
  B.ret(B.zext(Type::I64, C));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  // setl only writes al; without the movzx the upper 56 bits of rax keep
  // their (junk-seeded) entry value, which the validator must notice.
  Asm A;
  A.bytes({0x48, 0x39, 0xf7});       // cmp rdi, rsi
  A.bytes({0x0f, 0x9c, 0xc0});       // setl al
  A.bytes({0x90, 0x90, 0x90, 0x90}); // movzx rax, al -> NOPs
  A.bytes({0xc3});                   // ret
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesWrongShiftAmount) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.shl(F->paramValue(0), B.constInt(Type::I64, 3)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8});       // mov rax, rdi
  A.bytes({0x48, 0xc1, 0xe0, 0x03}); // shl rax, 3
  A.bytes({0xc3});                   // ret
  expectPasses(*F, A.Code);

  A.Code[6] = 0x04; // shl rax, 4
  expectCaught(*F, A.Code);
}

/// QIR source shared by the runtime-call mutation cases:
///   f(a) = rt_date_year(a) + a
Function *buildCallPlusArg(qir::Module &M) {
  rt::RuntimeSyms Syms = rt::declareRuntime(M);
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId T = B.call(Syms.DateYear, {F->paramValue(0)});
  B.ret(B.add(T, F->paramValue(0)));
  EXPECT_EQ(qir::verify(M), std::nullopt);
  return F;
}

/// Assembles f(a) = rt_date_year(a) + a, keeping `a` live across the call
/// in \p SaveReg (modrm byte of `mov SaveReg, rdi` / `add rax, SaveReg`).
/// rbx (callee-saved) is correct; rsi (caller-saved) is the classic
/// register-allocation bug: junked by the call clobber model.
Asm assembleCallPlusArg(uint8_t MovModrm, uint8_t AddModrm,
                        size_t *ImmOff = nullptr) {
  Asm A;
  A.bytes({0x48, 0x89, MovModrm}); // mov <save>, rdi
  A.bytes({0x48, 0xb8});           // movabs rax, &rt_date_year
  size_t Off = A.imm64(rtAddr("rt_date_year"));
  A.bytes({0xff, 0xd0});           // call rax
  A.bytes({0x48, 0x01, AddModrm}); // add rax, <save>
  A.bytes({0xc3});                 // ret
  if (ImmOff)
    *ImmOff = Off;
  return A;
}

TEST(TvMutation, CatchesCallerSavedRegLiveAcrossCall) {
  qir::Module M;
  Function *F = buildCallPlusArg(M);

  // Correct: spill to callee-saved rbx.
  expectPasses(*F, assembleCallPlusArg(0xfb, 0xd8).Code); // rbx
  // Broken: keep the value in caller-saved rsi across the call.
  expectCaught(*F, assembleCallPlusArg(0xfe, 0xf0).Code); // rsi
}

TEST(TvMutation, CatchesWrongCallee) {
  qir::Module M;
  Function *F = buildCallPlusArg(M);

  // Same signature, same shape — but the wrong runtime entry point.
  Asm A;
  A.bytes({0x48, 0x89, 0xfb}); // mov rbx, rdi
  A.bytes({0x48, 0xb8});       // movabs rax, &rt_date_month (!)
  A.imm64(rtAddr("rt_date_month"));
  A.bytes({0xff, 0xd0});       // call rax
  A.bytes({0x48, 0x01, 0xd8}); // add rax, rbx
  A.bytes({0xc3});             // ret
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesStaleImm64Relocation) {
  qir::Module M;
  Function *F = buildCallPlusArg(M);

  size_t ImmOff = 0;
  Asm A = assembleCallPlusArg(0xfb, 0xd8, &ImmOff);
  std::vector<tv::TvReloc> Relocs = {
      {static_cast<uint64_t>(ImmOff), 8, "rt_date_year"}};
  expectPasses(*F, A.Code, Relocs);

  // A mis-patched blob: the relocation record names rt_date_year but the
  // patched imm64 points 16 bytes past it. The cross-check against the
  // live symbol table must reject it before the call is simulated.
  uint64_t Bad = rtAddr("rt_date_year") + 16;
  std::memcpy(A.Code.data() + ImmOff, &Bad, 8);
  expectCaught(*F, A.Code, Relocs, "stale relocation");
}

TEST(TvMutation, CatchesDroppedStore) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::Ptr, Type::I64}, Type::I64);
  Builder B(F);
  B.store(F->paramValue(1), F->paramValue(0));
  B.ret(F->paramValue(1));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0x37}); // mov [rdi], rsi
  A.bytes({0x48, 0x89, 0xf0}); // mov rax, rsi
  A.bytes({0xc3});             // ret
  expectPasses(*F, A.Code);

  // Dead-store "optimizing" away an escaping store changes the global
  // digest observed at the return event.
  A.Code[0] = A.Code[1] = A.Code[2] = 0x90;
  expectCaught(*F, A.Code);
}

TEST(TvMutation, CatchesWrongStoreDisplacement) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::Ptr, Type::I64}, Type::I64);
  Builder B(F);
  B.store(F->paramValue(1), B.gep(F->paramValue(0), 8));
  B.ret(B.constInt(Type::I64, 0));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0x77, 0x08}); // mov [rdi+8], rsi
  A.bytes({0x48, 0x31, 0xc0});       // xor rax, rax
  A.bytes({0xc3});                   // ret
  expectPasses(*F, A.Code);

  A.Code[3] = 0x10; // mov [rdi+16], rsi
  expectCaught(*F, A.Code);
}

/// Assembles f(a, b) = saddTrap(a, b): add, branch to an rt_trap call on
/// overflow. \p JccCC is the 0F 8x condition byte (0x80 = jo).
Asm assembleSaddTrap(uint8_t JccCC) {
  Asm A;
  A.bytes({0x48, 0x89, 0xf8});       // 0:  mov rax, rdi
  A.bytes({0x48, 0x01, 0xf0});       // 3:  add rax, rsi
  A.bytes({0x0f, JccCC});            // 6:  jcc Ltrap (rel32)
  A.imm32(1);                        //     -> 13
  A.bytes({0xc3});                   // 12: ret
  A.bytes({0xbf});                   // 13: mov edi, Overflow
  A.imm32(static_cast<uint32_t>(rt::TrapCode::Overflow));
  A.bytes({0x48, 0xb8});             // 18: movabs rax, &rt_trap
  A.imm64(rtAddr("rt_trap"));
  A.bytes({0xff, 0xd0});             // 28: call rax (never returns)
  A.bytes({0x0f, 0x0b});             // 30: ud2
  return A;
}

TEST(TvMutation, CatchesFlippedTrapCondition) {
  qir::Module M;
  rt::declareRuntime(M);
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.saddTrap(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  expectPasses(*F, assembleSaddTrap(0x80).Code); // jo: correct
  expectCaught(*F, assembleSaddTrap(0x81).Code); // jno: inverted
}

TEST(TvMutation, CatchesDroppedTrapCheck) {
  // A dropped overflow check only misbehaves on rounds that actually
  // overflow, so force it: (a | INT64_MAX) + 1 overflows for every
  // non-negative a — most of the oracle's argument distribution.
  qir::Module M;
  rt::declareRuntime(M);
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  ValueId Big = B.or_(F->paramValue(0),
                      B.constInt(Type::I64, 0x7fffffffffffffff));
  B.ret(B.saddTrap(Big, B.constInt(Type::I64, 1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0xb8});             // 0:  movabs rax, INT64_MAX
  A.imm64(0x7fffffffffffffffull);
  A.bytes({0x48, 0x09, 0xf8});       // 10: or rax, rdi
  A.bytes({0x48, 0x83, 0xc0, 0x01}); // 13: add rax, 1
  A.bytes({0x0f, 0x80});             // 17: jo Ltrap (rel32)
  A.imm32(1);                        //     -> 24
  A.bytes({0xc3});                   // 23: ret
  A.bytes({0xbf});                   // 24: mov edi, Overflow
  A.imm32(static_cast<uint32_t>(rt::TrapCode::Overflow));
  A.bytes({0x48, 0xb8});             // 29: movabs rax, &rt_trap
  A.imm64(rtAddr("rt_trap"));
  A.bytes({0xff, 0xd0});             // 39: call rax (never returns)
  A.bytes({0x0f, 0x0b});             // 41: ud2
  expectPasses(*F, A.Code);

  // NOP out the jo: overflowing rounds return the wrapped sum where QIR
  // trapped.
  for (size_t I = 17; I != 23; ++I)
    A.Code[I] = 0x90;
  expectCaught(*F, A.Code);
}

TEST(TvMutation, SkipsFunctionsOutsideTheModel) {
  // Seven integer parameters exceed the six argument registers; the
  // validator must record a sound skip, not a pass and not a mismatch.
  qir::Module M;
  Function *F = M.createFunction(
      "f",
      {Type::I64, Type::I64, Type::I64, Type::I64, Type::I64, Type::I64,
       Type::I64},
      Type::I64);
  Builder B(F);
  B.ret(F->paramValue(0));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8}); // mov rax, rdi
  A.bytes({0xc3});             // ret
  tv::TvStats St;
  EXPECT_EQ(runTv(*F, A.Code, {}, &St), "");
  EXPECT_EQ(St.Skipped, 1u);
  EXPECT_EQ(St.Functions, 0u);
}

TEST(TvMutation, ModuleValidationIgnoresUnknownFunctions) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  B.ret(F->paramValue(0));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  Asm A;
  A.bytes({0x48, 0x89, 0xf8, 0xc3});
  tv::TvFunction MF;
  MF.Name = "no_such_function";
  MF.Code = A.Code.data();
  MF.Size = A.Code.size();
  EXPECT_EQ(tv::validateModule(M, {MF}, tv::TvOptions()), "");
}

//===----------------------------------------------------------------------===//
// Disk-cache blob corruption regressions
//===----------------------------------------------------------------------===//

TEST(TvBlob, CorruptedDirectCodeByteIsCaughtByTv) {
  qir::Module M;
  Function *F = M.createFunction("f", {Type::I64, Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  direct::DirectBackend BE;
  std::unique_ptr<backend::CompiledModule> CM = BE.compile(M);
  ASSERT_TRUE(CM);
  std::vector<tv::TvFunction> Fns = CM->tvFunctions();
  ASSERT_EQ(Fns.size(), 1u);
  ASSERT_GT(Fns[0].Size, 0u);
  ASSERT_EQ(Fns[0].Code[Fns[0].Size - 1], 0xc3) << "expected trailing ret";

  std::vector<uint8_t> Blob;
  ASSERT_TRUE(CM->serialize(Blob));

  // The payload stores the machine code verbatim: locate the function's
  // bytes and turn its final ret into a nop. The back-end payload carries
  // no code checksum (that is the DiskCodeCache envelope's job), so
  // deserialization succeeds — tv is the layer that must catch it.
  auto It = std::search(Blob.begin(), Blob.end(), Fns[0].Code,
                        Fns[0].Code + Fns[0].Size);
  ASSERT_NE(It, Blob.end()) << "function bytes not found in payload";
  *(It + static_cast<ptrdiff_t>(Fns[0].Size - 1)) = 0x90;

  std::unique_ptr<backend::CompiledModule> Warm =
      BE.deserialize(Blob.data(), Blob.size());
  ASSERT_TRUE(Warm);
  EXPECT_NE(tv::validateModule(M, Warm->tvFunctions(), tv::TvOptions()), "");
  EXPECT_DEATH(tv::validateOrDie(M, Warm->tvFunctions(), nullptr, "disk cache"),
               "translation validation failed \\(disk cache\\)");
}

TEST(TvBlob, MispatchedMlvmRelocationIsRejectedOnLoad) {
  qir::Module M;
  rt::RuntimeSyms Syms = rt::declareRuntime(M);
  Function *F = M.createFunction("f", {Type::I64}, Type::I64);
  Builder B(F);
  B.ret(B.call(Syms.DateYear, {F->paramValue(0)}));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  mlvm::MlvmBackend BE((mlvm::MlvmOptions()));
  std::unique_ptr<backend::CompiledModule> CM = BE.compile(M);
  ASSERT_TRUE(CM);
  std::vector<uint8_t> Blob;
  ASSERT_TRUE(CM->serialize(Blob));

  // Sanity: the unmodified blob loads.
  ASSERT_TRUE(BE.deserialize(Blob.data(), Blob.size()));

  // Corrupt the addend of the first RELA entry. The link itself still
  // "succeeds" — the patched rel32 is just wrong — so only the PLT patch
  // audit in MlvmBackend::deserialize stands between this blob and a wild
  // call. It must report the mismatch and treat the blob as a miss.
  ASSERT_GE(Blob.size(), 0x40u);
  ASSERT_TRUE(Blob[0] == 0x7f && Blob[1] == 'E' && Blob[2] == 'L' &&
              Blob[3] == 'F');
  auto Rd = [&](size_t Off, unsigned Bytes) {
    uint64_t V = 0;
    for (unsigned I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(Blob[Off + I]) << (I * 8);
    return V;
  };
  uint64_t ShOff = Rd(0x28, 8);
  uint64_t ShNum = Rd(0x3c, 2);
  bool Corrupted = false;
  for (uint64_t S = 0; S != ShNum && !Corrupted; ++S) {
    uint64_t Sh = ShOff + S * 64;
    if (Rd(Sh + 0x04, 4) != 4) // SHT_RELA
      continue;
    uint64_t RelOff = Rd(Sh + 0x18, 8);
    uint64_t RelSize = Rd(Sh + 0x20, 8);
    ASSERT_GE(RelSize, 24u) << "expected at least one relocation";
    Blob[RelOff + 16] += 16; // r_addend += 16
    Corrupted = true;
  }
  ASSERT_TRUE(Corrupted) << "no RELA section in the mlvm payload";

  EXPECT_EQ(BE.deserialize(Blob.data(), Blob.size()), nullptr);
}

//===----------------------------------------------------------------------===//
// Term folding: constant terms fold by qir/Semantics.h
//===----------------------------------------------------------------------===//

/// The value of a folded term, or nullopt when the arena built a node.
std::optional<uint64_t> folded(const tv::TermArena &TA, tv::TermRef R) {
  const tv::TermNode *N = TA.node(R);
  if (!N || N->Op != tv::TermOp::Const)
    return std::nullopt;
  return N->Imm;
}

TEST(TvTerm, I1SignedCompareFoldsAsUnsigned) {
  // i1 compares as unsigned 0/1 whatever the predicate, so slt 1, 0 is
  // false, as it is in every evaluator.
  tv::TermArena TA(64);
  tv::TermRef R = TA.binary(tv::TermOp::CmpSLt, TA.constant(1, 1),
                            TA.constant(0, 1), 1);
  EXPECT_EQ(folded(TA, R), std::optional<uint64_t>(0));
}

TEST(TvTerm, FoldingAgreesWithQirSemanticsOnEdgeValues) {
  // Written out here rather than taken from Term.cpp, so a wrong mapping
  // there shows up as a disagreement.
  struct Def {
    tv::TermOp T;
    qir::Opcode Op;
    CmpPred Pred = CmpPred::Eq;
  };
  using tv::TermOp;
  using qir::Opcode;
  const Def Binary[] = {
      {TermOp::Add, Opcode::Add},       {TermOp::Sub, Opcode::Sub},
      {TermOp::Mul, Opcode::Mul},       {TermOp::UDiv, Opcode::UDiv},
      {TermOp::SDiv, Opcode::SDiv},     {TermOp::SRem, Opcode::SRem},
      {TermOp::And, Opcode::And},       {TermOp::Or, Opcode::Or},
      {TermOp::Xor, Opcode::Xor},       {TermOp::Shl, Opcode::Shl},
      {TermOp::LShr, Opcode::LShr},     {TermOp::AShr, Opcode::AShr},
      {TermOp::RotR, Opcode::RotR},     {TermOp::Crc32, Opcode::Crc32},
      {TermOp::LMulFold, Opcode::LongMulFold},
      {TermOp::FAdd, Opcode::FAdd},     {TermOp::FSub, Opcode::FSub},
      {TermOp::FMul, Opcode::FMul},     {TermOp::FDiv, Opcode::FDiv},
      {TermOp::CmpEq, Opcode::ICmp, CmpPred::Eq},
      {TermOp::CmpNe, Opcode::ICmp, CmpPred::Ne},
      {TermOp::CmpSLt, Opcode::ICmp, CmpPred::SLt},
      {TermOp::CmpSLe, Opcode::ICmp, CmpPred::SLe},
      {TermOp::CmpSGt, Opcode::ICmp, CmpPred::SGt},
      {TermOp::CmpSGe, Opcode::ICmp, CmpPred::SGe},
      {TermOp::CmpULt, Opcode::ICmp, CmpPred::ULt},
      {TermOp::CmpULe, Opcode::ICmp, CmpPred::ULe},
      {TermOp::CmpUGt, Opcode::ICmp, CmpPred::UGt},
      {TermOp::CmpUGe, Opcode::ICmp, CmpPred::UGe},
      {TermOp::FCmpEq, Opcode::FCmp, CmpPred::Eq},
      {TermOp::FCmpNe, Opcode::FCmp, CmpPred::Ne},
      {TermOp::FCmpLt, Opcode::FCmp, CmpPred::SLt},
      {TermOp::FCmpLe, Opcode::FCmp, CmpPred::SLe},
      {TermOp::FCmpGt, Opcode::FCmp, CmpPred::SGt},
      {TermOp::FCmpGe, Opcode::FCmp, CmpPred::SGe},
  };
  const Def Unary[] = {
      {TermOp::Not, Opcode::Not},       {TermOp::Neg, Opcode::Neg},
      {TermOp::ZExt, Opcode::ZExt},     {TermOp::SExt, Opcode::SExt},
      {TermOp::Trunc, Opcode::Trunc},   {TermOp::FNeg, Opcode::FNeg},
      {TermOp::SIToFP, Opcode::SIToFP}, {TermOp::FPToSI, Opcode::FPToSI},
  };
  const std::pair<unsigned, Type> Widths[] = {{1, Type::I1},
                                              {8, Type::I8},
                                              {16, Type::I16},
                                              {32, Type::I32},
                                              {64, Type::I64}};
  // The edge values of a width, plus doubles for the f64 operators.
  auto edges = [](unsigned W) {
    uint64_t Mask = W == 64 ? ~0ull : (1ull << W) - 1;
    uint64_t Sign = 1ull << (W - 1);
    std::vector<uint64_t> V = {0,        1,        2,
                               W - 1,    Sign - 1, Sign,
                               Mask,     Mask - 1, 0x5a5a5a5a5a5a5a5aull};
    for (double D : {-0.0, 1.5, -2.5, 9.2233720368547758e18,
                     -9.2233720368547758e18, 1e300})
      V.push_back(std::bit_cast<uint64_t>(D));
    for (uint64_t Bits : {0x7ff8000000000000ull, 0x7ff0000000000000ull,
                          0xfff0000000000000ull})
      V.push_back(Bits);
    for (uint64_t &X : V)
      X &= Mask;
    return V;
  };
  auto expected = [](qir::Opcode Op, CmpPred Pred, Type Ty, Type SrcTy,
                     uint64_t A, uint64_t B) -> std::optional<uint64_t> {
    qir::Lanes R;
    if (qir::evalScalar(Op, Ty, SrcTy, Pred, {A}, {B}, R) !=
        rt::TrapCode::None)
      return std::nullopt;
    bool IsCmp = Op == qir::Opcode::ICmp || Op == qir::Opcode::FCmp;
    return R.Lo & qir::typeMask(IsCmp ? Type::I1 : Ty);
  };

  tv::TermArena TA(1u << 22);
  unsigned Checked = 0;
  for (const Def &D : Binary)
    for (auto [W, Ty] : Widths)
      for (uint64_t A : edges(W))
        for (uint64_t B : edges(W)) {
          tv::TermRef R =
              TA.binary(D.T, TA.constant(A, W), TA.constant(B, W), W);
          ASSERT_EQ(folded(TA, R), expected(D.Op, D.Pred, Ty, Ty, A, B))
              << tv::termOpName(D.T) << " i" << W << " " << A << ", " << B;
          ++Checked;
        }
  for (const Def &D : Unary)
    for (auto [SrcW, SrcTy] : Widths)
      for (auto [W, Ty] : Widths)
        for (uint64_t A : edges(SrcW)) {
          tv::TermRef R = TA.unary(D.T, TA.constant(A, SrcW), W);
          ASSERT_EQ(folded(TA, R), expected(D.Op, D.Pred, Ty, SrcTy, A, 0))
              << tv::termOpName(D.T) << " i" << SrcW << " -> i" << W << " "
              << A;
          ++Checked;
        }
  EXPECT_FALSE(TA.saturated());
  EXPECT_GT(Checked, 10000u);
}

} // namespace
