//===- tests/CodeImageTest.cpp - Shared native code-image tests -----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// x64::CodeImage is the link, persistence and install layer of DirectEmit,
/// Stencil and Craneline. Its payload crosses a trust boundary: the disk
/// cache checksums blobs but does not authenticate them, so a blob with a
/// valid checksum reaches Backend::deserialize byte for byte. These tests
/// hand such payloads straight to deserialize:
///   - crafted payloads whose ranges wrap at 2^64 (a relocation at 2^64-8,
///     a function whose offset + size wraps) must be refused;
///   - a sweep over every field (truncation at each field boundary, each
///     u64 field set to each wrap value, each symbol made unknown) must be
///     refused or yield a module whose every range lies inside its code.
/// It also checks that images give their code-heap blocks back: 10k cold
/// compiles and 10k disk-cache warm installs leave the heap as they found
/// it.
///
//===----------------------------------------------------------------------===//

#include "backend/Cache.h"
#include "backend/DiskCache.h"
#include "backend/ImageModule.h"
#include "backend/Registry.h"
#include "obs/Metrics.h"
#include "runtime/Runtime.h"
#include "tests/Corpus.h"
#include "tests/ImagePayload.h"
#include "x64/ExecArena.h"
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

namespace {

/// Three functions with runtime relocations in every native back-end:
/// a runtime call, an i128 shift helper and a division trap stub.
void buildModule(qir::Module &M) {
  qir::SymbolId Crc =
      M.declareRuntime("rt_crc32", Type::I64, {Type::I64, Type::I64},
                       rt::runtimeSymbolAddress("rt_crc32"));
  {
    Function *F = M.createFunction("crc", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    B.ret(B.call(Crc, {F->paramValue(0), F->paramValue(1)}));
  }
  {
    Function *F =
        M.createFunction("shl128", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    ValueId X = B.packI128(F->paramValue(0), F->paramValue(1));
    ValueId S = B.shl(X, B.constInt(Type::I64, 23));
    B.ret(B.xor_(B.extractLo(S), B.extractHi(S)));
  }
  {
    Function *F = M.createFunction("divs", {Type::I64, Type::I64}, Type::I64);
    Builder B(F);
    B.ret(B.sdiv(F->paramValue(0), F->paramValue(1)));
  }
  ASSERT_EQ(qir::verify(M), std::nullopt);
}

/// Where each field of a payload starts, following the layout documented
/// in x64/CodeImage.h.
struct FieldMap {
  uint64_t CodeLen = 0;
  std::vector<size_t> Starts; ///< Every field, for truncation.
  std::vector<size_t> U64s;   ///< Every u64 field, lengths included.
  std::vector<size_t> FnOffset, FnSize, RelocOffset;
};

FieldMap mapFields(const std::vector<uint8_t> &Blob) {
  FieldMap F;
  ByteReader R(Blob.data(), Blob.size());
  auto Pos = [&] { return Blob.size() - R.remaining(); };
  auto U64 = [&](std::vector<size_t> *Role = nullptr) {
    F.Starts.push_back(Pos());
    F.U64s.push_back(Pos());
    if (Role)
      Role->push_back(Pos());
    return R.u64();
  };
  auto Bytes = [&] {
    F.Starts.push_back(Pos());
    F.U64s.push_back(Pos());
    uint64_t Len = R.bytes().second;
    if (Len)
      F.Starts.push_back(Pos() - Len);
    return Len;
  };
  F.CodeLen = Bytes();
  uint64_t NumFns = U64();
  for (uint64_t I = 0; I != NumFns && R.ok(); ++I) {
    Bytes();
    U64(&F.FnOffset);
    U64(&F.FnSize);
  }
  uint64_t NumRelocs = U64();
  for (uint64_t I = 0; I != NumRelocs && R.ok(); ++I) {
    U64(&F.RelocOffset);
    Bytes();
  }
  EXPECT_TRUE(R.ok() && R.remaining() == 0) << "payload layout drifted";
  return F;
}

std::vector<uint8_t> withU64(std::vector<uint8_t> Blob, size_t At,
                             uint64_t V) {
  std::memcpy(Blob.data() + At, &V, 8);
  return Blob;
}

struct Serialized {
  std::unique_ptr<backend::Backend> BE;
  std::vector<uint8_t> Blob;
  FieldMap Fields;
};

Serialized compileAndSerialize(const char *Name, const qir::Module &M) {
  Serialized S;
  S.BE = backend::createBackend(Name);
  std::unique_ptr<backend::CompiledModule> Fresh = S.BE->compile(M);
  EXPECT_TRUE(Fresh && Fresh->serialize(S.Blob));
  S.Fields = mapFields(S.Blob);
  EXPECT_FALSE(S.Fields.RelocOffset.empty());
  // The untouched payload loads: refusals below are down to the edit.
  EXPECT_NE(S.BE->deserialize(S.Blob.data(), S.Blob.size()), nullptr);
  return S;
}

/// The regression payloads: each wraps a 64-bit range check.
void expectCraftedPayloadsRefused(const char *Name) {
  SCOPED_TRACE(Name);
  qir::Module M;
  buildModule(M);
  Serialized S = compileAndSerialize(Name, M);
  const FieldMap &F = S.Fields;

  std::vector<uint8_t> Reloc = withU64(S.Blob, F.RelocOffset[0], ~0ull - 7);
  EXPECT_EQ(S.BE->deserialize(Reloc.data(), Reloc.size()), nullptr)
      << "relocation offset 2^64-8";

  std::vector<uint8_t> Fn = withU64(S.Blob, F.FnOffset[0], 16);
  Fn = withU64(std::move(Fn), F.FnSize[0], ~0ull - 7);
  EXPECT_EQ(S.BE->deserialize(Fn.data(), Fn.size()), nullptr)
      << "function offset 16, size 2^64-8";
}

TEST(CraftedPayload, DirectEmitRefusesWrappingRanges) {
  expectCraftedPayloadsRefused("DirectEmit");
}
TEST(CraftedPayload, StencilRefusesWrappingRanges) {
  expectCraftedPayloadsRefused("Stencil");
}
TEST(CraftedPayload, CranelineRefusesWrappingRanges) {
  expectCraftedPayloadsRefused("Craneline");
}

/// A refused payload is fine; an accepted one must keep every range it
/// records inside its own code.
void expectContained(const std::unique_ptr<backend::CompiledModule> &Mod,
                     const std::string &What) {
  if (!Mod)
    return;
  auto *IM = dynamic_cast<const backend::ImageModule *>(Mod.get());
  ASSERT_NE(IM, nullptr) << What;
  const x64::CodeImage &Img = IM->image();
  uint64_t Len = Img.codeBytes();
  for (const x64::CodeImage::Function &Fn : Img.functions())
    EXPECT_TRUE(Fn.Offset <= Len && Fn.Size <= Len - Fn.Offset) << What;
  for (const x64::CodeImage::Reloc &R : Img.relocs())
    EXPECT_TRUE(R.Offset <= Len && 8 <= Len - R.Offset) << What;
}

void sweepMutations(const char *Name) {
  SCOPED_TRACE(Name);
  qir::Module M;
  buildModule(M);
  Serialized S = compileAndSerialize(Name, M);
  auto Load = [&](const std::vector<uint8_t> &Blob) {
    return S.BE->deserialize(Blob.data(), Blob.size());
  };

  for (size_t Cut : S.Fields.Starts)
    EXPECT_EQ(Load({S.Blob.begin(), S.Blob.begin() + Cut}), nullptr)
        << "truncated at " << Cut;

  uint64_t Len = S.Fields.CodeLen;
  for (size_t At : S.Fields.U64s)
    for (uint64_t V : {~uint64_t(0), ~uint64_t(0) - 7, Len - 7, Len})
      expectContained(Load(withU64(S.Blob, At, V)),
                      "u64 at " + std::to_string(At) + " = " +
                          std::to_string(V));

  size_t NumRelocs = S.Fields.RelocOffset.size();
  for (size_t I = 0; I != NumRelocs; ++I) {
    ImagePayload P = ImagePayload::parse(S.Blob);
    P.Image.Relocs[I].Symbol = "rt_no_such_helper";
    EXPECT_EQ(Load(P.build()), nullptr) << "unknown symbol in reloc " << I;
  }
}

TEST(PayloadMutationSweep, DirectEmit) { sweepMutations("DirectEmit"); }
TEST(PayloadMutationSweep, Stencil) { sweepMutations("Stencil"); }
TEST(PayloadMutationSweep, Craneline) { sweepMutations("Craneline"); }

TEST(CodeImage, LinkAlignsFunctionsAndRebasesRelocations) {
  std::vector<x64::CodeImage::Piece> Pieces(2);
  Pieces[0] = {"a", std::vector<uint8_t>(10, 0x90), {{1, "rt_trap"}}};
  Pieces[1] = {"b", std::vector<uint8_t>(12, 0x90), {{2, "rt_crc32"}}};
  x64::CodeImage Img;
  Img.link(Pieces);
  ASSERT_EQ(Img.functions().size(), 2u);
  EXPECT_EQ(Img.functions()[1].Offset, 16u);
  EXPECT_EQ(Img.codeBytes(), 28u);
  EXPECT_EQ(Img.codeSize("b"), 12u);
  EXPECT_EQ(Img.entry("b"), static_cast<const void *>(Img.base() + 16));
  EXPECT_EQ(Img.entry("c"), nullptr);
  ASSERT_EQ(Img.relocs().size(), 2u);
  EXPECT_EQ(Img.relocs()[1].Offset, 18u);
  EXPECT_TRUE(Img.persistable());
}

TEST(CodeImage, UnnamedOrUnknownTargetIsNotPersistable) {
  for (const char *Sym : {"", "rt_no_such_helper"}) {
    std::vector<x64::CodeImage::Piece> Pieces(1);
    Pieces[0] = {"a", std::vector<uint8_t>(16, 0x90), {{0, Sym}}};
    x64::CodeImage Img;
    Img.link(Pieces);
    EXPECT_FALSE(Img.persistable()) << "'" << Sym << "'";
    ByteWriter W;
    EXPECT_FALSE(Img.serialize(W));
    // Unnamed targets stay out of the table; tv still sees named ones.
    EXPECT_EQ(Img.relocs().size(), *Sym ? 1u : 0u);
  }
}

// Dropping a module returns its block: liveBytes() comes back after every
// round, and the mapped footprint stops growing once the first rounds
// have sized the heap. The loop checks the heap, not the verification
// layers, so it compiles with them off whatever QCF_VERIFY says.
TEST(CodeImage, CodeHeapStaysBoundedUnderChurn) {
  constexpr int Rounds = 10000, Warmup = 100;
  qir::Module M;
  buildModule(M);
  std::unique_ptr<backend::Backend> BE = backend::createBackend("DirectEmit");
  backend::CompileOptions Opts;
  Opts.Verify = VerifyOptions::none();
  x64::ExecArena &Heap = x64::ExecArena::global();
  const uint64_t Live0 = Heap.liveBytes();
  auto Churn = [&](auto &&Make) {
    uint64_t Mapped = 0;
    for (int I = 0; I != Rounds; ++I) {
      {
        std::shared_ptr<backend::CompiledModule> Mod = Make();
        ASSERT_NE(Mod, nullptr);
        ASSERT_NE(Mod->entry("crc"), nullptr);
        ASSERT_GT(Heap.liveBytes(), Live0);
      }
      ASSERT_EQ(Heap.liveBytes(), Live0) << "round " << I;
      if (I == Warmup)
        Mapped = Heap.bytesAllocated();
    }
    EXPECT_LE(Heap.bytesAllocated(), Mapped);
  };
  Churn([&] { return std::shared_ptr(BE->compile(M, Opts)); });

  char Dir[] = "/tmp/qcf_heap_churn_XXXXXX";
  ASSERT_NE(::mkdtemp(Dir), nullptr);
  {
    obs::MetricsRegistry Reg;
    backend::DiskCodeCache Cache(Dir, /*BudgetBytes=*/0, &Reg);
    backend::ModuleFingerprint Key = backend::fingerprintModule(M);
    ASSERT_TRUE(Cache.store(Key, *BE, *BE->compile(M, Opts), Opts));
    Churn([&] { return Cache.load(Key, *BE, Opts); });
    EXPECT_EQ(Cache.stats().Hits, uint64_t(Rounds));
  }
  std::filesystem::remove_all(Dir);
}

} // namespace
