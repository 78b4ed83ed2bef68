//===- db/Codegen.h - Data-centric query code generation --------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles query plans into QIR pipeline functions (§II): the plan is
/// separated into linear pipelines at the breakers (hash-join build,
/// aggregation, sort); each pipeline becomes one function
/// `void pipe(ptr ctx, i64 begin, i64 end)` that scans a morsel of its
/// source, applies the operators as nested control flow keeping tuples in
/// registers, and materializes into the pipeline-breaking data structure
/// through runtime calls. Sort comparators compile to callback functions
/// invoked by the runtime (§III-A).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_CODEGEN_H
#define QCF_DB_CODEGEN_H

#include "backend/Backend.h"
#include "db/Plan.h"
#include "qir/Function.h"
#include <memory>

namespace qcf::db {

/// The context-slot objects a compiled query needs at run time.
struct RuntimeObject {
  enum class Kind : uint8_t { JoinHt, AggHt, SortBuffer };
  Kind K;
  uint32_t Slot;          ///< ctx slot holding the object pointer.
  uint32_t CountSlot = 0; ///< Sort: ctx slot holding the packed row count.
  uint64_t PayloadBytes = 0;
  uint32_t RowStride = 0;       ///< Sort row size.
  int ProducerPipeline = -1;    ///< Pipeline that fills this object.
  std::string CmpFnName;        ///< Sort comparator function.
  uint64_t Limit = 0;           ///< Sort limit (0 = none).
};

/// One compiled pipeline.
struct PipelineDesc {
  std::string FnName;
  enum class Source : uint8_t { TableScan, HtScan, SortedScan };
  Source Src;
  std::string SourceTable; ///< TableScan.
  int SourceObject = -1;   ///< Index into Objects for HtScan/SortedScan.
  int SortObject = -1; ///< Object to sort after this pipeline completes.
};

/// One scanned table as lowering saw it. Codegen derives the scan's
/// schema from the table's column list and bakes each column's base
/// address into the code, so the plan is only valid while all of this
/// still holds.
struct TableRead {
  struct ColumnRead {
    std::string Name;
    ColType Ty;
    const Column *Col;
    const void *Raw; ///< Col->raw() at lowering time.
  };
  std::string TableName;
  const Table *T;
  std::vector<ColumnRead> Columns; ///< Every column, in table order.
};

/// A compiled query: QIR module plus execution metadata.
struct CompiledPlan {
  std::unique_ptr<qir::Module> Module;
  /// backend::fingerprintModule(*Module), computed once by compileQuery:
  /// executeQuery hands it to the back-end, so a code-cache hit does not
  /// hash the module again.
  backend::ModuleFingerprint Fingerprint;
  Arena StringArena; ///< Owns string constants referenced by the code.
  std::vector<PipelineDesc> Pipelines;
  std::vector<RuntimeObject> Objects;
  uint32_t NumCtxSlots = 0;
  std::string QueryName;
  std::vector<TableRead> Reads; ///< What lowering read from the catalog.

  /// True when every table and column in Reads is unchanged in \p Cat:
  /// same objects, names, types and base addresses. A plan that fails
  /// this must be lowered again before it runs.
  bool matchesCatalog(const Catalog &Cat) const;
};

/// Compiles \p Q against \p Cat. The catalog must outlive execution
/// (column base addresses are hard-wired into the generated code).
CompiledPlan compileQuery(const Query &Q, const Catalog &Cat);

/// Writes the canonical byte encoding of \p Q into \p Out (replacing
/// its contents): every field compileQuery reads, tagged and
/// length-prefixed, so two queries encode equal exactly when they lower
/// to the same plan over the same catalog. Reusing \p Out across calls
/// makes encoding allocation-free once its capacity suffices.
void encodeQuery(const Query &Q, std::string &Out);

} // namespace qcf::db

#endif // QCF_DB_CODEGEN_H
