//===- examples/analytics_query.cpp - Interactive data exploration ----------===//
//
// Part of the QCF project.
//
// The workload the paper's introduction motivates: an exploration tool
// generates queries in response to user interaction, so the *total*
// latency (compile + execute) matters. This example builds an ad-hoc
// star-join query with the plan DSL and runs it end to end.
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include <cstdio>

using namespace qcf;
using namespace qcf::db;

namespace {
template <typename... Ts> std::vector<ExprPtr> exprs(Ts... E) {
  std::vector<ExprPtr> V;
  (V.push_back(std::move(E)), ...);
  return V;
}
} // namespace

int main(int argc, char **argv) {
  const char *BackendName = argc > 1 ? argv[1] : "DirectEmit";

  Catalog Cat;
  generateTpcdsLike(Cat, 2.0);

  // "Which brands sold best in month 11, by year?" — written directly in
  // the plan DSL, the way a tool would generate it.
  Query Q;
  Q.Name = "exploration";
  PlanPtr Dates = filter(scan("date_dim"), eq(col("d_moy"), litI64(11)));
  PlanPtr J1 = hashJoin(scan("store_sales"), std::move(Dates),
                        exprs(col("ss_sold_date_sk")),
                        exprs(col("d_date_sk")), {"d_year"});
  PlanPtr J2 = hashJoin(std::move(J1), scan("item"),
                        exprs(col("ss_item_sk")), exprs(col("i_item_sk")),
                        {"i_brand_id", "i_category"});
  std::vector<AggSpec> Aggs;
  {
    AggSpec A;
    A.Kind = AggKind::Sum;
    A.Arg = col("ss_ext_sales_price");
    A.Name = "sales";
    Aggs.push_back(std::move(A));
  }
  PlanPtr Root = aggregate(std::move(J2),
                           exprs(col("d_year"), col("i_category")),
                           {"year", "category"}, std::move(Aggs));
  Root = sortBy(std::move(Root), {{"year", false}, {"sales", true}}, 12);
  Q.Root = std::move(Root);
  Q.Output = exprs(col("year"), col("category"), col("sales"));

  CompiledPlan Plan = compileQuery(Q, Cat);
  auto BE = backend::createBackend(BackendName);
  if (!BE) {
    std::fprintf(stderr, "unknown backend %s\n", BackendName);
    return 1;
  }
  rt::OutputBuffer Out;
  ExecResult R = executeQuery(Plan, *BE, Cat, &Out);
  if (R.Trapped) {
    std::fprintf(stderr, "query trapped\n");
    return 1;
  }
  std::printf("backend=%s compile=%.2fms exec=%.2fms\n\n",
              BE->name().c_str(), R.Stats.CompileNs * 1e-6,
              R.Stats.ExecNs * 1e-6);
  std::printf("year|category|sales\n%s", Out.toText().c_str());
  return 0;
}
