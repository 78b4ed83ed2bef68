//===- mlvm/JitLink.cpp - In-process ELF linking ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "mlvm/JitLink.h"
#include "runtime/Runtime.h"
#include "support/Compiler.h"
#include <cstdio>
#include <cstring>

using namespace qcf;
using namespace qcf::mlvm;

namespace {

struct Shdr {
  uint32_t Name, Type;
  uint64_t Flags, Addr, Offset, Size;
  uint32_t Link, Info;
  uint64_t Align, EntSize;
};

struct Sym {
  uint32_t Name;
  uint8_t Info, Other;
  uint16_t Shndx;
  uint64_t Value, Size;
};

struct Rela {
  uint64_t Offset;
  uint64_t Info;
  int64_t Addend;
};

/// Copies a section into its table. An empty section leaves the table
/// empty, and memcpy must not be handed the null data() of an empty vector.
void copySection(void *Dst, const uint8_t *Src, size_t Bytes) {
  if (Bytes)
    std::memcpy(Dst, Src, Bytes);
}

} // namespace

void *LinkedImage::lookup(const std::string &Name) const {
  for (const auto &[N, Off] : Entries)
    if (N == Name)
      return const_cast<uint8_t *>(Code.Rx) + Off;
  return nullptr;
}

std::unique_ptr<LinkedImage> mlvm::jitLink(const std::vector<uint8_t> &Obj,
                                           TimeTrace *Trace,
                                           MemPool *Scratch) {
  TimeTraceScope Outer(Trace, "mlvm.link");
  MemPool &SP = Scratch ? *Scratch : MemPool::defaultHeap();
  auto Image = std::make_unique<LinkedImage>();

  // --- Phase 1: parse the object, recover symbols, allocate memory -------
  const uint8_t *Base = Obj.data();
  uint64_t ShOff;
  uint16_t ShNum;
  std::memcpy(&ShOff, Base + 0x28, 8);
  std::memcpy(&ShNum, Base + 0x3c, 2);

  PoolVector<Shdr> Sections(ShNum, Shdr{}, SP);
  copySection(Sections.data(), Base + ShOff, ShNum * sizeof(Shdr));

  const Shdr *Text = nullptr, *RelaSec = nullptr, *Symtab = nullptr,
             *Strtab = nullptr;
  {
    TimeTraceScope Scope(Trace, "mlvm.link.phase1");
    for (const Shdr &S : Sections) {
      if (S.Type == 2)
        Symtab = &S;
      else if (S.Type == 4)
        RelaSec = &S;
    }
    assert(Symtab && "object has no symbol table");
    Strtab = &Sections[Symtab->Link];
    // .text = first PROGBITS with AX flags.
    for (const Shdr &S : Sections)
      if (S.Type == 1 && (S.Flags & 0x4)) {
        Text = &S;
        break;
      }
    assert(Text && "object has no text section");
  }

  size_t NumSyms = Symtab->Size / sizeof(Sym);
  PoolVector<Sym> Syms(NumSyms, Sym{}, SP);
  copySection(Syms.data(), Base + Symtab->Offset, Symtab->Size);
  const char *Strs = reinterpret_cast<const char *>(Base + Strtab->Offset);

  // Undefined (external) symbols get GOT+PLT entries.
  PoolVector<size_t> Externs(SP);
  for (size_t I = 1; I != NumSyms; ++I)
    if (Syms[I].Shndx == 0)
      Externs.push_back(I);

  size_t PltSize = Externs.size() * 16; // jmp [rip+disp32] padded
  size_t GotSize = Externs.size() * 8;
  size_t TextBytes = Text->Size;
  size_t PltOff = (TextBytes + 15) & ~15ull;
  size_t GotOff = PltOff + PltSize;
  size_t Total = GotOff + GotSize;

  // Bytes are written through the RW view WriteBase; addresses are
  // computed in the RX view ExecB (see the file comment).
  Image->Code = x64::ExecArena::global().allocate(Total);
  uint8_t *WriteBase = Image->Code.Rw;
  const uint8_t *ExecB = Image->Code.Rx;
  Image->PltEntries = Externs.size();

  // --- Phase 2: assign addresses, resolve externals, build GOT+PLT -------
  // Dense by symbol index (indices are small and relocations hit most of
  // them): a hash map here is measurable on the disk-cache warm path.
  PoolVector<uint64_t> SymAddr(NumSyms, 0, SP);
  {
    TimeTraceScope Scope(Trace, "mlvm.link.phase2");
    for (size_t I = 1; I != NumSyms; ++I)
      if (Syms[I].Shndx != 0)
        SymAddr[I] = reinterpret_cast<uint64_t>(ExecB) + Syms[I].Value;
    for (size_t K = 0; K != Externs.size(); ++K) {
      size_t I = Externs[K];
      const char *Name = Strs + Syms[I].Name;
      void *Addr = rt::runtimeSymbolAddress(Name);
      if (!Addr)
        reportFatalError("unresolved external symbol in JIT link");
      // GOT slot.
      uint64_t A = reinterpret_cast<uint64_t>(Addr);
      std::memcpy(WriteBase + GotOff + K * 8, &A, 8);
      // PLT entry: jmp [rip + rel32-to-GOT-slot]; int3 padding. The
      // displacement is image-internal, so it is the same in both views.
      uint8_t *P = WriteBase + PltOff + K * 16;
      P[0] = 0xff;
      P[1] = 0x25;
      int32_t Rel = static_cast<int32_t>((GotOff + K * 8) -
                                         (PltOff + K * 16 + 6));
      std::memcpy(P + 2, &Rel, 4);
      std::memset(P + 6, 0xcc, 10);
      SymAddr[static_cast<uint32_t>(I)] =
          reinterpret_cast<uint64_t>(ExecB) + PltOff + K * 16;
    }
  }

  // --- Phase 3: copy sections and apply relocations -----------------------
  {
    TimeTraceScope Scope(Trace, "mlvm.link.phase3");
    std::memcpy(WriteBase, Base + Text->Offset, TextBytes);
    if (RelaSec) {
      size_t NumRelas = RelaSec->Size / sizeof(Rela);
      for (size_t R = 0; R != NumRelas; ++R) {
        Rela Rel;
        std::memcpy(&Rel, Base + RelaSec->Offset + R * sizeof(Rela),
                    sizeof(Rela));
        uint32_t SymIdx = static_cast<uint32_t>(Rel.Info >> 32);
        uint32_t RType = static_cast<uint32_t>(Rel.Info);
        if (SymIdx >= NumSyms)
          reportFatalError("relocation against unknown symbol in JIT link");
        uint64_t S = SymAddr[SymIdx];
        uint8_t *Where = WriteBase + Rel.Offset;
        if (RType == 4 /* PLT32 */ || RType == 2 /* PC32 */) {
          int64_t Value = static_cast<int64_t>(S) + Rel.Addend -
                          reinterpret_cast<int64_t>(ExecB + Rel.Offset);
          int32_t V32 = static_cast<int32_t>(Value);
          std::memcpy(Where, &V32, 4);
        } else if (RType == 1 /* 64 */) {
          uint64_t V = S + static_cast<uint64_t>(Rel.Addend);
          std::memcpy(Where, &V, 8);
        } else {
          reportFatalError("unsupported relocation type in JIT link");
        }
      }
    }
    Image->Code.seal();
  }

  // --- Phase 4: final symbol lookup ---------------------------------------
  {
    TimeTraceScope Scope(Trace, "mlvm.link.phase4");
    for (size_t I = 1; I != NumSyms; ++I)
      if (Syms[I].Shndx != 0)
        Image->Entries.emplace_back(Strs + Syms[I].Name, Syms[I].Value);
  }
  return Image;
}

namespace {

/// Read-only view over the tables of an ELF relocatable object; the
/// subset of jitLink's phase-1 parse that the post-link inspection
/// helpers below need.
struct ElfTables {
  std::vector<Shdr> Sections;
  std::vector<Sym> Syms;
  std::vector<Rela> Relas;
  const char *Strs = nullptr;
  uint64_t TextBytes = 0;
  bool Ok = false;
};

ElfTables parseElfTables(const std::vector<uint8_t> &Obj) {
  ElfTables T;
  if (Obj.size() < 0x40)
    return T;
  const uint8_t *Base = Obj.data();
  uint64_t ShOff;
  uint16_t ShNum;
  std::memcpy(&ShOff, Base + 0x28, 8);
  std::memcpy(&ShNum, Base + 0x3c, 2);
  T.Sections.resize(ShNum);
  copySection(T.Sections.data(), Base + ShOff, ShNum * sizeof(Shdr));
  const Shdr *Text = nullptr, *RelaSec = nullptr, *Symtab = nullptr;
  for (const Shdr &S : T.Sections) {
    if (S.Type == 2)
      Symtab = &S;
    else if (S.Type == 4)
      RelaSec = &S;
    else if (S.Type == 1 && (S.Flags & 0x4) && !Text)
      Text = &S;
  }
  if (!Symtab || !Text)
    return T;
  T.TextBytes = Text->Size;
  T.Syms.resize(Symtab->Size / sizeof(Sym));
  copySection(T.Syms.data(), Base + Symtab->Offset, Symtab->Size);
  T.Strs =
      reinterpret_cast<const char *>(Base + T.Sections[Symtab->Link].Offset);
  if (RelaSec) {
    T.Relas.resize(RelaSec->Size / sizeof(Rela));
    copySection(T.Relas.data(), Base + RelaSec->Offset, RelaSec->Size);
  }
  T.Ok = true;
  return T;
}

} // namespace

std::vector<tv::TvFunction>
mlvm::elfTvFunctions(const std::vector<uint8_t> &Obj,
                     const uint8_t *ExecBase) {
  std::vector<tv::TvFunction> Out;
  ElfTables T = parseElfTables(Obj);
  if (!T.Ok)
    return Out;
  for (size_t I = 1; I != T.Syms.size(); ++I) {
    const Sym &S = T.Syms[I];
    if (S.Shndx == 0 || S.Size == 0)
      continue; // Extern, or a label with no extent.
    tv::TvFunction TF;
    TF.Name = T.Strs + S.Name;
    TF.Code = ExecBase + S.Value;
    TF.Size = S.Size;
    for (const Rela &R : T.Relas) {
      if (R.Offset < S.Value || R.Offset >= S.Value + S.Size)
        continue;
      uint32_t SymIdx = static_cast<uint32_t>(R.Info >> 32);
      std::string Callee =
          SymIdx < T.Syms.size() ? T.Strs + T.Syms[SymIdx].Name : "";
      TF.Relocs.push_back({R.Offset - S.Value, 4, std::move(Callee)});
    }
    Out.push_back(std::move(TF));
  }
  return Out;
}

std::string mlvm::verifyPltPatches(const std::vector<uint8_t> &Obj,
                                   const LinkedImage &Image) {
  ElfTables T = parseElfTables(Obj);
  if (!T.Ok)
    return "mlvm plt audit: malformed object";
  // Reconstruct the linker's extern numbering: PLT entries are assigned
  // in symbol-table order.
  std::vector<uint64_t> PltIndex(T.Syms.size(), UINT64_MAX);
  uint64_t NumExterns = 0;
  for (size_t I = 1; I != T.Syms.size(); ++I)
    if (T.Syms[I].Shndx == 0)
      PltIndex[I] = NumExterns++;
  const uint8_t *ExecB = Image.Code.Rx;
  uint64_t PltOff = (T.TextBytes + 15) & ~15ull;
  for (const Rela &R : T.Relas) {
    uint32_t SymIdx = static_cast<uint32_t>(R.Info >> 32);
    uint32_t RType = static_cast<uint32_t>(R.Info);
    if (RType != 4 /* PLT32 */ || SymIdx >= T.Syms.size() ||
        PltIndex[SymIdx] == UINT64_MAX)
      continue;
    int32_t Disp;
    std::memcpy(&Disp, ExecB + R.Offset, 4);
    uint64_t Target = reinterpret_cast<uint64_t>(ExecB) + R.Offset + 4 +
                      static_cast<uint64_t>(static_cast<int64_t>(Disp));
    uint64_t Want = reinterpret_cast<uint64_t>(ExecB) + PltOff +
                    PltIndex[SymIdx] * 16;
    if (Target != Want) {
      char Buf[160];
      snprintf(Buf, sizeof(Buf),
               "mlvm plt audit: rel32 at .text+%llu for '%s' targets %#llx, "
               "expected PLT entry %#llx",
               static_cast<unsigned long long>(R.Offset),
               T.Strs + T.Syms[SymIdx].Name,
               static_cast<unsigned long long>(Target),
               static_cast<unsigned long long>(Want));
      return Buf;
    }
  }
  return "";
}
