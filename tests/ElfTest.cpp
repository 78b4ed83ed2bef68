//===- tests/ElfTest.cpp - External validation of the ELF writer ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the MLVM ELF64 relocatable-object writer (§V-B6) against an
/// independent implementation: the object is written to disk and parsed
/// with GNU readelf/objdump. This catches structural bugs the in-process
/// JIT linker would silently tolerate (it only reads the fields it
/// needs).
///
//===----------------------------------------------------------------------===//

#include "mlvm/Mlvm.h"
#include "tests/Corpus.h"
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

using namespace qcf;
using namespace qcf::test;

namespace {

/// Runs \p Cmd and returns its stdout (empty on failure).
std::string runCommand(const std::string &Cmd) {
  FILE *Pipe = popen(Cmd.c_str(), "r");
  if (!Pipe)
    return "";
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  pclose(Pipe);
  return Out;
}

bool haveTool(const char *Tool) {
  return !runCommand(std::string("command -v ") + Tool + " 2>/dev/null")
              .empty();
}

/// Compiles the corpus to an object file on disk; returns its path.
std::string writeCorpusObject() {
  Corpus C = buildCorpus();
  mlvm::MlvmBackend BE(mlvm::MlvmOptions::cheap());
  std::vector<uint8_t> Object = BE.compileToObject(*C.M, nullptr);
  EXPECT_GT(Object.size(), 512u);
  // One file per test: ctest -j runs the Elf tests as concurrent
  // processes, and a shared path let one test read another's half-written
  // object.
  std::string Path =
      ::testing::TempDir() + "qcf_elf_test." +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".o";
  std::ofstream Out(Path, std::ios::binary);
  Out.write(reinterpret_cast<const char *>(Object.data()),
            static_cast<std::streamsize>(Object.size()));
  EXPECT_TRUE(Out.good());
  return Path;
}

} // namespace

TEST(Elf, ReadelfAcceptsHeaderAndSections) {
  if (!haveTool("readelf"))
    GTEST_SKIP() << "readelf not installed";
  std::string Path = writeCorpusObject();
  std::string Hdr = runCommand("readelf -h " + Path + " 2>&1");
  EXPECT_NE(Hdr.find("ELF64"), std::string::npos) << Hdr;
  EXPECT_NE(Hdr.find("REL (Relocatable file)"), std::string::npos) << Hdr;
  EXPECT_NE(Hdr.find("Advanced Micro Devices X86-64"), std::string::npos)
      << Hdr;

  std::string Sec = runCommand("readelf -S " + Path + " 2>&1");
  for (const char *Name : {".text", ".rela.text", ".symtab", ".strtab",
                           ".qcf.unwind", ".shstrtab"})
    EXPECT_NE(Sec.find(Name), std::string::npos) << "missing " << Name
                                                 << "\n" << Sec;
  EXPECT_EQ(Sec.find("Warning"), std::string::npos) << Sec;
}

TEST(Elf, SymbolTableListsAllFunctions) {
  if (!haveTool("readelf"))
    GTEST_SKIP() << "readelf not installed";
  std::string Path = writeCorpusObject();
  std::string Syms = runCommand("readelf -s " + Path + " 2>&1");
  // Every corpus function must be a GLOBAL FUNC defined in .text, and
  // the runtime externals must appear as UND symbols.
  Corpus C = buildCorpus();
  for (const auto &F : C.M->functions())
    EXPECT_NE(Syms.find(F->name()), std::string::npos)
        << "missing symbol " << F->name() << "\n" << Syms;
  EXPECT_NE(Syms.find("FUNC"), std::string::npos);
  EXPECT_NE(Syms.find("GLOBAL"), std::string::npos);
  EXPECT_NE(Syms.find("UND"), std::string::npos) << Syms;
}

TEST(Elf, RelocationsArePlt32AgainstRuntime) {
  if (!haveTool("readelf"))
    GTEST_SKIP() << "readelf not installed";
  std::string Path = writeCorpusObject();
  std::string Rel = runCommand("readelf -r " + Path + " 2>&1");
  // The corpus calls strings/hash-table/trap runtime functions; all
  // calls are emitted as R_X86_64_PLT32 with addend -4 (§V-A2 SmallPIC).
  EXPECT_NE(Rel.find("R_X86_64_PLT32"), std::string::npos) << Rel;
  EXPECT_NE(Rel.find("rt_trap"), std::string::npos) << Rel;
  EXPECT_NE(Rel.find("- 4"), std::string::npos) << Rel;
}

TEST(Elf, ObjdumpDisassemblesText) {
  if (!haveTool("objdump"))
    GTEST_SKIP() << "objdump not installed";
  std::string Path = writeCorpusObject();
  std::string Dis = runCommand("objdump -d " + Path + " 2>&1");
  // Disassembly must see function labels and plausible x86-64; "(bad)"
  // would indicate a mis-encoded instruction reached the object.
  EXPECT_NE(Dis.find("<arith64>:"), std::string::npos) << Dis.substr(0, 2000);
  EXPECT_NE(Dis.find("ret"), std::string::npos);
  EXPECT_EQ(Dis.find("(bad)"), std::string::npos);
}

TEST(Elf, ObjectIsDeterministic) {
  Corpus C = buildCorpus();
  mlvm::MlvmBackend BE(mlvm::MlvmOptions::cheap());
  std::vector<uint8_t> A = BE.compileToObject(*C.M, nullptr);
  std::vector<uint8_t> B = BE.compileToObject(*C.M, nullptr);
  EXPECT_EQ(A, B);
}

TEST(Elf, OptimizedObjectAlsoValid) {
  if (!haveTool("readelf"))
    GTEST_SKIP() << "readelf not installed";
  Corpus C = buildCorpus();
  mlvm::MlvmBackend BE(mlvm::MlvmOptions::opt());
  std::vector<uint8_t> Object = BE.compileToObject(*C.M, nullptr);
  std::string Path = ::testing::TempDir() + "qcf_elf_test_opt.o";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out.write(reinterpret_cast<const char *>(Object.data()),
              static_cast<std::streamsize>(Object.size()));
  }
  std::string Hdr = runCommand("readelf -h " + Path + " 2>&1");
  EXPECT_NE(Hdr.find("ELF64"), std::string::npos) << Hdr;
  std::string Dis = runCommand("objdump -d " + Path + " 2>&1");
  EXPECT_EQ(Dis.find("(bad)"), std::string::npos);
}
