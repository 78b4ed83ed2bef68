//===- mlvm/JitLink.h - In-process ELF linking ------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MLVM's JIT linker (§V-B7): takes the in-memory ELF relocatable object
/// the compiler just produced and links it into the process in four
/// phases — (1) recover symbols, prune, and allocate memory; (2) assign
/// addresses and resolve externals (building one GOT+PLT per module:
/// Small-PIC, §V-A2); (3) apply relocations and copy sections into place;
/// (4) final symbol lookup. The image lives in one x64::ExecArena block:
/// phases 2 and 3 write through its RW view, while every address the code
/// sees (symbol addresses, PC-relative displacements) is computed in its
/// RX view. Cold compiles and disk-cache warm loads link the same way.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_MLVM_JITLINK_H
#define QCF_MLVM_JITLINK_H

#include "support/MemContext.h"
#include "support/TimeTrace.h"
#include "tv/Tv.h"
#include "x64/ExecArena.h"
#include <memory>
#include <string>
#include <vector>

namespace qcf::mlvm {

/// The linked image.
class LinkedImage {
public:
  void *lookup(const std::string &Name) const;

  x64::ExecArena::Block Code; ///< Entry addresses are Code.Rx + offset.
  std::vector<std::pair<std::string, uint64_t>> Entries; ///< offsets
  uint64_t PltEntries = 0;
};

/// Links \p Object; resolves undefined symbols via
/// rt::runtimeSymbolAddress. The linker's scratch tables (section and
/// symbol copies, extern list) draw from \p Scratch when given.
std::unique_ptr<LinkedImage> jitLink(const std::vector<uint8_t> &Object,
                                     TimeTrace *Trace,
                                     MemPool *Scratch = nullptr);

/// Per-function code views of a linked image, recovered from the ELF
/// relocatable object it was linked from: the symbol table supplies each
/// function's name and extent inside .text, the relocation table supplies
/// named call records (all R_X86_64_PLT32, width 4). \p ExecBase is the
/// image's execution view; the returned pointers reference it directly,
/// so cache-loaded images expose their re-patched bytes. For
/// QCF_VERIFY=tv; see tv/Tv.h.
std::vector<tv::TvFunction> elfTvFunctions(const std::vector<uint8_t> &Object,
                                           const uint8_t *ExecBase);

/// Post-link audit of the patched rel32 call displacements: every PLT32
/// relocation must resolve, from the bytes actually written into the
/// image, to the start of the PLT entry the linker built for its target
/// symbol. Run on the disk-cache warm path, where the object blob crossed
/// a process boundary before being re-linked — a corrupted relocation
/// record patches a displacement that lands off the PLT grid and is
/// caught here instead of executing as a wild call. Returns "" when every
/// patch checks out, else a description of the first bad one.
std::string verifyPltPatches(const std::vector<uint8_t> &Object,
                             const LinkedImage &Image);

} // namespace qcf::mlvm

#endif // QCF_MLVM_JITLINK_H
