//===- tools/qcf_stencilgen.cpp - Stencil table generator/dumper ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// The build-time face of the stencil table: prints every fragment the
// copy-and-patch back-end concatenates at compile time — structural
// fragments and per-(opcode x type x variant) operation cores — as hex
// bytes with their patch records. The table itself is encoded once per
// process through x64::Assembler (see stencil/Stencils.cpp); this tool
// exists so the generated fragments can be inspected and diffed between
// revisions. The operation cores are x64/QirLower.h's sequences, the same
// ones DirectEmit emits, on the stencil register convention.
//
//   qcf_stencilgen            # summary: counts and total bytes
//   qcf_stencilgen --dump     # every fragment, bytes + patch records
//
//===----------------------------------------------------------------------===//

#include "qir/Opcode.h"
#include "stencil/Stencils.h"
#include <cstdio>
#include <cstring>

using namespace qcf;
using namespace qcf::stencil;

namespace {

void printFragment(const char *Name, const Fragment &F) {
  std::printf("%-24s %3zu bytes ", Name, F.Bytes.size());
  for (uint8_t B : F.Bytes)
    std::printf("%02x", B);
  for (const Patch &P : F.Patches)
    std::printf("  [%s@%u]", patchKindName(P.K), P.Off);
  std::printf("\n");
}

} // namespace

int main(int argc, char **argv) {
  bool Dump = false;
  for (int I = 1; I != argc; ++I) {
    if (!std::strcmp(argv[I], "--dump")) {
      Dump = true;
    } else {
      std::fprintf(stderr, "usage: %s [--dump]\n", argv[0]);
      return 2;
    }
  }

  const StencilTable &T = StencilTable::get();

  const struct {
    const char *Name;
    const Fragment *F;
  } Structural[] = {
      {"prologue", &T.Prologue},   {"epilogue", &T.Epilogue},
      {"ud2", &T.Ud2},             {"jmp", &T.Jmp},
      {"test-jnz", &T.TestJnz},    {"call-r10", &T.CallR10},
      {"trap-ovf", &T.TrapStub[0]}, {"trap-div", &T.TrapStub[1]},
      {"ld-a", &T.LdA},            {"ld-a-hi", &T.LdAHi},
      {"ld-b", &T.LdB},            {"ld-b-hi", &T.LdBHi},
      {"ld-cond", &T.LdCond},      {"ld-tmp", &T.LdTmp},
      {"st-a", &T.StA},            {"st-a-hi", &T.StAHi},
      {"st-tmp", &T.StTmp},        {"ld-ax", &T.LdAX},
      {"ld-bx", &T.LdBX},          {"st-ax", &T.StAX},
      {"const-a", &T.ConstA},      {"const-a-hi", &T.ConstAHi},
      {"lea-slot-a", &T.LeaSlotA},
  };

  size_t StructBytes = 0;
  for (const auto &S : Structural)
    StructBytes += S.F->Bytes.size();
  for (unsigned I = 0; I != 6; ++I)
    StructBytes += T.LdArg[I].Bytes.size() + T.StParamGp[I].Bytes.size();
  for (unsigned I = 0; I != 8; ++I)
    StructBytes += T.StParamXmm[I].Bytes.size();

  size_t CoreBytes = 0, CorePatches = 0;
  for (const auto &[Key, F] : T.cores()) {
    CoreBytes += F.Bytes.size();
    CorePatches += F.Patches.size();
  }

  std::printf("stencil table: %zu operation cores (%zu bytes, %zu patch "
              "records), %zu structural fragments (%zu bytes)\n",
              T.cores().size(), CoreBytes, CorePatches,
              sizeof(Structural) / sizeof(Structural[0]) + 20, StructBytes);

  if (!Dump)
    return 0;

  std::printf("\n-- structural fragments --\n");
  for (const auto &S : Structural)
    printFragment(S.Name, *S.F);
  char Name[64];
  for (unsigned I = 0; I != 6; ++I) {
    std::snprintf(Name, sizeof(Name), "ld-arg%u", I);
    printFragment(Name, T.LdArg[I]);
  }
  for (unsigned I = 0; I != 6; ++I) {
    std::snprintf(Name, sizeof(Name), "st-param-gp%u", I);
    printFragment(Name, T.StParamGp[I]);
  }
  for (unsigned I = 0; I != 8; ++I) {
    std::snprintf(Name, sizeof(Name), "st-param-xmm%u", I);
    printFragment(Name, T.StParamXmm[I]);
  }

  std::printf("\n-- operation cores --\n");
  for (const auto &[Key, F] : T.cores()) {
    auto Op = static_cast<qir::Opcode>(Key >> 16);
    std::snprintf(Name, sizeof(Name), "%s/%u/%u", qir::opcodeName(Op),
                  (Key >> 8) & 0xff, Key & 0xff);
    printFragment(Name, F);
  }
  return 0;
}
