//===- bench/bench_backends.cpp - Table III reproduction -------------------===//
//
// Part of the QCF project. Compile-time and execution performance of every
// back-end on the TPC-DS-like suite (paper Table III).
//
//   bench_backends [--json] [--quick]
//
// --json writes the BENCH_10.json trajectory record (QCF_BENCH_ORDINAL
// overrides the 10, see bench/BenchUtil.h); --quick trims
// scale factor and repetitions for CI smoke runs. The record carries the
// stencil back-end's acceptance ratios alongside the per-backend table:
// compile time vs. the interpreter's translate time (target <= ~2x) and
// execution time vs. DirectEmit (target <= 1x, i.e. no worse).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace qcf;
using namespace qcf::bench;

int main(int argc, char **argv) {
  BenchFlags Flags = parseBenchFlags(argc, argv);
  printHeader("Back-end compile/execute comparison", "Table III");
  Suite S = makeDsSuite(Flags.Quick ? 0.25 : 1.0);
  std::printf("%zu queries, %zu generated functions\n\n", S.Plans.size(),
              S.TotalFunctions);
  std::printf("%-12s %14s %14s\n", "backend", "compile[ms]", "exec[ms]");

  BenchJson Json("bench_backends", 10);
  double InterpCompile = 0, DirectCompile = 0, DirectExec = 0,
         CranelineCompile = 0, StencilCompile = 0, StencilExec = 0;
  for (const std::string &Name : backend::allBackendNames()) {
    auto BE = backend::createBackend(Name);
    unsigned Reps = Name == "GCC" ? 1 : (Flags.Quick ? 2 : 3);
    // Best-of on both axes to suppress noise; exec ratios near 1x are
    // meaningless on single runs.
    double Exec = 1e100;
    for (unsigned R = 0; R != Reps; ++R)
      Exec = std::min(Exec, suiteRunSec(S, *BE).second);
    double C = suiteCompileSec(S, *BE, Reps);
    std::printf("%-12s %14.2f %14.2f\n", Name.c_str(), C * 1e3,
                Exec * 1e3);
    Json.row().col("backend", Name).col("compile_ms", C * 1e3)
        .col("exec_ms", Exec * 1e3);
    if (Name == "Interpreter")
      InterpCompile = C;
    if (Name == "Stencil") {
      StencilCompile = C;
      StencilExec = Exec;
    }
    if (Name == "DirectEmit") {
      DirectCompile = C;
      DirectExec = Exec;
    }
    if (Name == "Craneline")
      CranelineCompile = C;
  }
  if (DirectCompile > 0)
    std::printf("\nCraneline/DirectEmit compile-time ratio: %.1fx "
                "(paper: ~16x)\n",
                CranelineCompile / DirectCompile);
  if (InterpCompile > 0 && DirectExec > 0) {
    std::printf("Stencil/interpreter-translate compile-time ratio: %.2fx "
                "(target: <= ~2x)\n",
                StencilCompile / InterpCompile);
    std::printf("Stencil/DirectEmit exec-time ratio: %.2fx (target: <= 1x)\n",
                StencilExec / DirectExec);
    Json.field("stencil_vs_interp_compile", StencilCompile / InterpCompile)
        .field("stencil_vs_direct_exec", StencilExec / DirectExec)
        .field("craneline_vs_direct_compile",
               DirectCompile > 0 ? CranelineCompile / DirectCompile : 0.0);
  }
  if (Flags.Json && !Json.write())
    return 1;
  // CI gate (EXPERIMENTS.md E16): fail when the copy-and-patch tier
  // falls out of its acceptance envelope. The bounds carry a noise
  // allowance on top of the printed targets — exec times on the 1-core
  // CI VM wobble ±15% run to run even best-of-N.
  if (InterpCompile > 0 && DirectExec > 0) {
    if (StencilCompile / InterpCompile > 2.5) {
      std::fprintf(stderr,
                   "FAIL: stencil compile %.2fx interpreter translate "
                   "(envelope 2.5x)\n",
                   StencilCompile / InterpCompile);
      return 1;
    }
    if (StencilExec / DirectExec > 1.15) {
      std::fprintf(stderr,
                   "FAIL: stencil exec %.2fx DirectEmit (envelope 1.15x)\n",
                   StencilExec / DirectExec);
      return 1;
    }
  }
  return 0;
}
