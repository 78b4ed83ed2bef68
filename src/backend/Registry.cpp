//===- backend/Registry.cpp - Back-end registry ----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "craneline/Craneline.h"
#include "direct/DirectEmit.h"
#include "gccjit/Gccjit.h"
#include "interp/Interp.h"
#include "mlvm/Mlvm.h"
#include "stencil/Stencil.h"

using namespace qcf;
using namespace qcf::backend;

namespace {

template <class T> std::unique_ptr<Backend> make() {
  return std::make_unique<T>();
}

template <mlvm::MlvmOptions (*Opts)()> std::unique_ptr<Backend> makeMlvm() {
  return std::make_unique<mlvm::MlvmBackend>(Opts());
}

/// The one name table: createBackend looks names up here, and
/// allBackendNames lists it, in Table III order.
const std::pair<const char *, std::unique_ptr<Backend> (*)()> Backends[] = {
    {"Interpreter", make<interp::InterpBackend>},
    {"Stencil", make<stencil::StencilBackend>},
    {"DirectEmit", make<direct::DirectBackend>},
    {"Craneline", make<craneline::CranelineBackend>},
    {"MLVM-cheap", makeMlvm<mlvm::MlvmOptions::cheap>},
    {"MLVM-opt", makeMlvm<mlvm::MlvmOptions::opt>},
    {"GCC", make<gccjit::GccBackend>},
};

} // namespace

std::unique_ptr<Backend> backend::createBackend(const std::string &Name) {
  for (const auto &[N, Make] : Backends)
    if (Name == N)
      return Make();
  return nullptr;
}

std::vector<std::string> backend::allBackendNames() {
  std::vector<std::string> Names;
  for (const auto &[N, Make] : Backends)
    Names.push_back(N);
  return Names;
}

std::unique_ptr<Backend> backend::createFastTier(const std::string &Optimized) {
  if (Optimized == "Stencil" || Optimized == "Interpreter")
    return nullptr;
  return createBackend("Stencil");
}
