//===- interp/Interp.h - QIR bytecode interpreter ---------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter back-end (§VIII). Translation turns each QIR function
/// into register-based bytecode: one 16-byte register per value. Constants
/// are not instructions: a call writes them into its zeroed frame on entry.
/// Loads and stores are specialized by access width, an icmp feeding the
/// condbr right after it becomes one compare-and-branch, and a value whose
/// phi's old value is dead by the time it is computed goes straight into
/// the phi's register, so its edge move disappears (a branch left without
/// moves jumps directly). run() dispatches by computed goto, with handlers
/// per (opcode, type) and (icmp predicate, type) for the hot pairs; every
/// scalar handler evaluates through qir/Semantics.h. Translation is the
/// interpreter's "compile time" in Table III.
///
/// Interpreted functions are entered through machine-code thunks, so they
/// are callable through plain C function pointers, including as runtime
/// callbacks; every call owns its frame. The translated code keeps no
/// reference to the QIR module it came from.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_INTERP_INTERP_H
#define QCF_INTERP_INTERP_H

#include "backend/Backend.h"

namespace qcf::interp {

/// The interpreter back-end.
class InterpBackend : public backend::Backend {
public:
  using backend::Backend::compile;

  std::string name() const override { return "Interpreter"; }
  std::unique_ptr<backend::CompiledModule>
  compile(const qir::Module &M, const backend::CompileOptions &Opts) override;
};

} // namespace qcf::interp

#endif // QCF_INTERP_INTERP_H
