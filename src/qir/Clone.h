//===- qir/Clone.h - Copying functions between modules ----------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural cloning of QIR functions into another module. QIR functions
/// are self-contained (fixed-size instruction records plus per-function
/// side pools; calls target runtime symbols, never other QIR functions),
/// so a clone is a verbatim copy of the storage vectors — the only
/// cross-function state is the module's runtime-symbol table, which
/// callers replicate first so SymbolIds embedded in Call instructions
/// stay valid. Used by CachingBackend's background compile when its
/// caller shares no owner of the module (CompileOptions::ModuleOwner).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_CLONE_H
#define QCF_QIR_CLONE_H

#include "qir/Function.h"

namespace qcf::qir {

/// Shares the runtime-symbol table of \p Src with \p Dst, so that
/// SymbolIds agree between the two modules. \p Dst must not have declared
/// any symbols of its own beforehand.
inline void cloneSymbols(const Module &Src, Module &Dst) {
  Dst.shareSymbols(Src.symbols());
}

/// Clones \p F into \p Dst (which must already carry \p F's symbol table,
/// see cloneSymbols). \returns the new function.
inline Function *cloneFunctionInto(const Function &F, Module &Dst) {
  Function *NF = Dst.createFunction(F.name(), F.paramTypes(), F.returnType());
  NF->Insts = F.Insts;
  NF->Blocks = F.Blocks;
  NF->PhiIns = F.PhiIns;
  NF->CallArgs = F.CallArgs;
  NF->I128Pool = F.I128Pool;
  return NF;
}

} // namespace qcf::qir

#endif // QCF_QIR_CLONE_H
