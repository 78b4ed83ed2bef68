//===- examples/backend_shootout.cpp - One query, every back-end -----------===//
//
// Part of the QCF project.
//
// The paper's core experiment in miniature: run the same analytical query
// through every execution back-end and watch the compile-time /
// execution-time trade-off (Table III's structure).
//
//===----------------------------------------------------------------------===//

#include "backend/Registry.h"
#include "db/Datagen.h"
#include "db/Executor.h"
#include "db/Queries.h"
#include <cstdio>

using namespace qcf;

int main() {
  db::Catalog Cat;
  db::generateTpchLike(Cat, 2.0);
  std::printf("lineitem: %zu rows\n\n", Cat.find("lineitem")->numRows());

  // h1-style aggregation query.
  db::Query Q = [] {
    for (db::Query &Cand : db::tpchQueries())
      if (Cand.Name == "h1")
        return std::move(Cand);
    reportFatalError("h1 missing");
  }();
  db::CompiledPlan Plan = db::compileQuery(Q, Cat);

  std::printf("%-12s %12s %12s %8s\n", "backend", "compile[ms]",
              "exec[ms]", "rows");
  for (const std::string &Name : backend::allBackendNames()) {
    auto BE = backend::createBackend(Name);
    rt::OutputBuffer Out;
    db::ExecResult R = db::executeQuery(Plan, *BE, Cat, &Out);
    std::printf("%-12s %12.2f %12.2f %8zu\n", Name.c_str(),
                R.Stats.CompileNs * 1e-6, R.Stats.ExecNs * 1e-6,
                Out.numRows());
  }
  return 0;
}
