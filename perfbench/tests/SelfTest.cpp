//===- perfbench/tests/SelfTest.cpp - The benchmark's own tests -----------===//
//
// Part of the QCF project.
//
// Covers the measurement plumbing the numbers depend on: nearest-rank
// percentiles, self time with nested spans, the metric-name grammar, the
// metric list against BENCHMARK.json, and the digest-failure path (a
// corrupted reference digest must turn the run into a reported failure,
// never a pass).
//
//   qcf_perfbench_tests --benchmark-json PATH [--work-dir DIR]
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

using namespace qcf::perfbench;

namespace {

int Failures = 0;

#define EXPECT(Cond)                                                           \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, __LINE__,   \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

void testNearestRank() {
  EXPECT(nearestRank({}, 0.5) == 0);
  EXPECT(nearestRank({7}, 0.5) == 7);
  EXPECT(nearestRank({7}, 0.99) == 7);
  // 1..10: p50 is the 5th value, p90 the 9th, p99 and p100 the 10th.
  std::vector<double> V = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT(nearestRank(V, 0.5) == 5);
  EXPECT(nearestRank(V, 0.9) == 9);
  EXPECT(nearestRank(V, 0.99) == 10);
  EXPECT(nearestRank(V, 1.0) == 10);
  // Always an observed sample, never an interpolation or bucket edge.
  EXPECT(nearestRank({1, 1000}, 0.5) == 1);
  std::vector<double> K(1000);
  for (size_t I = 0; I != K.size(); ++I)
    K[I] = double(I + 1);
  EXPECT(nearestRank(K, 0.99) == 990);
  EXPECT(samplesAbove(1000, 0.99) == 10);
  EXPECT(samplesAbove(999, 0.99) == 9);
  EXPECT(samplesAbove(100, 0.99) == 1);
  EXPECT(samplesAbove(0, 0.99) == 0);
}

void testSelfTime() {
  // root [0,100] with children a [10,30] and b [20,50] (overlapping,
  // e.g. on two threads), and grandchild c [25,40] inside b.
  std::vector<Span> S = {
      {"root", 0, 100, 1, 0, 1, 0},
      {"a", 10, 30, 2, 1, 1, 0},
      {"b", 20, 50, 3, 1, 2, 0},
      {"c", 25, 40, 4, 3, 2, 0},
      {"a", 60, 70, 5, 1, 1, 0},
  };
  auto St = spanStats(S);
  // root is covered by [10,50] and [60,70]: 50 of its 100 ns.
  EXPECT(St["root"].SelfNs == 50);
  EXPECT(St["root"].TotalNs == 100);
  EXPECT(St["a"].Count == 2);
  EXPECT(St["a"].TotalNs == 30);
  EXPECT(St["a"].SelfNs == 30);
  EXPECT(St["b"].SelfNs == 15);
  EXPECT(St["c"].SelfNs == 15);
  // A child sticking out of its parent only covers the overlap.
  auto Clip = spanStats({{"p", 10, 20, 1, 0, 1, 0}, {"q", 15, 40, 2, 1, 1, 0}});
  EXPECT(Clip["p"].SelfNs == 5);

  // Live recording nests through SpanScope.
  SpanRecorder &Rec = SpanRecorder::global();
  Rec.setEnabled(true);
  {
    SpanScope Outer("outer");
    { SpanScope Inner("inner", 7); }
  }
  // A span on another thread names its parent explicitly.
  {
    SpanScope Root("root");
    std::thread([Id = Root.id()] { SpanScope Child("child", 0, Id); }).join();
  }
  Rec.setEnabled(false);
  { SpanScope Off("off"); }
  std::vector<Span> Live = Rec.spans();
  EXPECT(Live.size() == 4);
  if (Live.size() == 4) {
    EXPECT(!std::strcmp(Live[0].Name, "inner"));
    EXPECT(Live[0].QueryId == 7);
    EXPECT(Live[0].Parent == Live[1].Id);
    EXPECT(Live[1].Parent == 0);
    EXPECT(!std::strcmp(Live[2].Name, "child"));
    EXPECT(Live[2].Parent == Live[3].Id);
    EXPECT(Live[2].Thread != Live[3].Thread);
  }
}

void testMetricNames() {
  EXPECT(validMetricName("compile_ms.mlvm_opt"));
  EXPECT(validMetricName("phase.craneline.ra.liveness_us"));
  EXPECT(validMetricName("9lives"));
  EXPECT(!validMetricName(""));
  EXPECT(!validMetricName(".leading_dot"));
  EXPECT(!validMetricName("_leading_underscore"));
  EXPECT(!validMetricName("has space"));
  EXPECT(!validMetricName("slash/name"));
  EXPECT(!validMetricName(std::string(65, 'a')));
  EXPECT(validMetricName(std::string(64, 'a')));

  std::set<std::string> Seen;
  size_t EndToEnd = 0, PerLayer = 0;
  for (const MetricDef &M : metricCatalog()) {
    EXPECT(validMetricName(M.Name));
    EXPECT(Seen.insert(M.Name).second);
    EXPECT(!M.Unit.empty() && M.Unit.size() <= 16);
    (M.EndToEnd ? EndToEnd : PerLayer)++;
  }
  EXPECT(EndToEnd >= 1 && EndToEnd <= 16);
  EXPECT(PerLayer >= 1 && PerLayer <= 128);
  EXPECT(Seen.count("setup_s"));
}

void testBenchmarkJson(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT(In.good());
  std::stringstream Text;
  Text << In.rdbuf();
  std::string J = Text.str();
  // Metric entries, in file order: end_to_end, then per_layer.
  std::regex Entry("\\{\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
  std::vector<std::pair<std::string, std::string>> Listed;
  for (auto It = std::sregex_iterator(J.begin(), J.end(), Entry);
       It != std::sregex_iterator(); ++It)
    Listed.emplace_back((*It)[1], (*It)[2]);
  const std::vector<MetricDef> &C = metricCatalog();
  EXPECT(Listed.size() == C.size());
  for (size_t I = 0; I != std::min(Listed.size(), C.size()); ++I) {
    EXPECT(Listed[I].first == C[I].Name);
    EXPECT(Listed[I].second == C[I].Unit);
  }
}

void testDigestFailure(const std::string &WorkDir) {
  RunConfig Cfg;
  Cfg.Workload = "adhoc-compile";
  Cfg.Seconds = 0.2;
  Cfg.WorkDir = WorkDir;
  Cfg.CorruptDigest = true;
  Result R;
  EXPECT(runWorkload(Cfg, R));
  EXPECT(!R.Correct);
  EXPECT(R.Failed > 0);
  EXPECT(R.Attempted >= R.Failed);
  EXPECT(R.jsonLine().find("\"correct\": false") != std::string::npos);
}

} // namespace

int main(int argc, char **argv) {
  std::string WorkDir = ".", Json = "BENCHMARK.json";
  for (int I = 1; I + 1 < argc; I += 2) {
    if (!std::strcmp(argv[I], "--work-dir"))
      WorkDir = argv[I + 1];
    else if (!std::strcmp(argv[I], "--benchmark-json"))
      Json = argv[I + 1];
  }
  std::filesystem::create_directories(WorkDir);
  testNearestRank();
  testSelfTime();
  testMetricNames();
  testBenchmarkJson(Json);
  testDigestFailure(WorkDir);
  std::printf("%s: %d failure(s)\n", Failures ? "FAIL" : "PASS", Failures);
  return Failures ? 1 : 0;
}
