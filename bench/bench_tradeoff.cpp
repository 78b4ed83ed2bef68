//===- bench/bench_tradeoff.cpp - Fig. 7 reproduction ----------------------===//
//
// Part of the QCF project. Best back-end per TPC-H-like query by the sum
// of compile and execution time, at two scale factors (paper Fig. 7: at
// small scale the cheap tiers win; larger scales shift queries toward the
// optimizing tiers).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace qcf;
using namespace qcf::bench;

namespace {

void runScale(double Sf, const char *Label) {
  Suite S = makeTpchSuite(Sf);
  std::vector<std::string> Names = {"Interpreter", "DirectEmit",
                                    "Craneline", "MLVM-cheap", "MLVM-opt"};
  std::printf("\n-- scale %s (%zu lineitem rows) --\n", Label,
              S.Cat.find("lineitem")->numRows());
  std::printf("%-8s %-12s %12s\n", "query", "best", "total[ms]");
  std::vector<int> Wins(Names.size(), 0);
  for (size_t Q = 0; Q != S.Plans.size(); ++Q) {
    double BestT = 1e100;
    size_t BestI = 0;
    for (size_t I = 0; I != Names.size(); ++I) {
      auto BE = backend::createBackend(Names[I]);
      double Best = 1e100;
      for (int R = 0; R != 2; ++R) {
        rt::OutputBuffer Out;
        db::ExecResult Res = db::executeQuery(S.Plans[Q], *BE, S.Cat, &Out);
        Best = std::min(Best,
                        1e-9 * (Res.Stats.CompileNs + Res.Stats.ExecNs));
      }
      if (Best < BestT) {
        BestT = Best;
        BestI = I;
      }
    }
    ++Wins[BestI];
    std::printf("%-8s %-12s %12.2f\n", S.Names[Q].c_str(),
                Names[BestI].c_str(), BestT * 1e3);
  }
  std::printf("wins:");
  for (size_t I = 0; I != Names.size(); ++I)
    if (Wins[I])
      std::printf(" %s=%d", Names[I].c_str(), Wins[I]);
  std::printf("\n");
}

} // namespace

int main() {
  printHeader("Compile/run-time trade-off by scale factor", "Fig. 7");
  runScale(0.5, "small");
  runScale(8.0, "large");
  runScale(32.0, "xlarge");
  std::printf("\n(paper: DirectEmit nearly always wins at SF10; "
              "LLVM-opt becomes beneficial at SF100)\n");
  return 0;
}
