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
  const Table *SourceTable = nullptr; ///< TableScan; one of the plan's Reads.
  int SourceObject = -1;   ///< Index into Objects for HtScan/SortedScan.
  int SortObject = -1; ///< Object to sort after this pipeline completes.
  uint64_t Contract = 0; ///< osrContract(FnName, the plan's NumCtxSlots).
};

/// One scanned table as lowering saw it. Codegen derives the scan's
/// schema from the table's column list and bakes each column's base
/// address into the code, so the plan is only valid while both hold (a
/// column's name and type never change).
struct TableRead {
  std::string TableName;
  const Table *T;
  std::vector<const void *> Raw; ///< Each column's raw(), in table order.
};

/// A plan's entries in one compiled module, in Pipelines and Objects order
/// (null for objects without a comparator), found by name on the plan's
/// first run on that code (db::executeQuery).
struct PlanBinding {
  uint64_t CodeId = 0; ///< backend::CompiledModule::CodeId of that code.
  std::vector<void *> Pipelines;
  std::vector<void *> Comparators;
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
  std::vector<TableRead> Reads; ///< What lowering read from the catalog.
  /// The binding executeQuery last made or used; concurrent runs share it.
  mutable SharedSlot<PlanBinding> Binding;

  /// True when every table in Reads is \p Cat's table of that name, with
  /// the same columns at the same base addresses. A plan that fails this
  /// must be lowered again before it runs.
  bool matchesCatalog(const Catalog &Cat) const;
};

/// Compiles \p Q against \p Cat. The catalog must outlive execution
/// (column base addresses are hard-wired into the generated code).
CompiledPlan compileQuery(const Query &Q, const Catalog &Cat);

/// \p Q's key: its memo (Query::KeyMemo) while that still describes \p Q,
/// else a fresh one, which becomes the memo. The bytes hold every field
/// compileQuery reads, tagged and length-prefixed, so two queries encode
/// equal exactly when they lower to the same plan over the same catalog.
std::shared_ptr<const QueryKey> queryKey(const Query &Q);

} // namespace qcf::db

#endif // QCF_DB_CODEGEN_H
