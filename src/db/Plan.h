//===- db/Plan.h - Query plans and expressions ------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Physical query plans in the data-centric style of §II: a tree of
/// operators that the code generator decomposes into linear pipelines
/// (hash-join builds, aggregations and sorts are pipeline breakers).
/// Expressions are typed trees over named columns; decimals are 128-bit
/// with overflow-checked arithmetic. A field the code generator reads must
/// also be written by db::encodeQuery, the serving plan cache's key.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_PLAN_H
#define QCF_DB_PLAN_H

#include "db/Table.h"
#include "runtime/Runtime.h"
#include <memory>
#include <string>
#include <vector>

namespace qcf::db {

/// Expression result types (narrow integer columns promote to I64).
enum class ExprType : uint8_t { I64, Decimal, Str, Bool, F64 };

inline ExprType exprTypeFor(ColType Ty) {
  switch (Ty) {
  case ColType::I32:
  case ColType::I64:
  case ColType::Date:
    return ExprType::I64;
  case ColType::Decimal:
    return ExprType::Decimal;
  case ColType::F64:
    return ExprType::F64;
  case ColType::Str:
    return ExprType::Str;
  }
  QCF_UNREACHABLE("invalid column type");
}

/// A typed expression tree node.
struct Expr {
  enum class Kind : uint8_t {
    ColRef,   ///< Name references a column of the current row.
    ConstI64,
    ConstDec,
    ConstStr,
    Add,      ///< Overflow-checked on Decimal and I64.
    Sub,
    Mul,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    And,
    Or,
    Not,
    Like,     ///< Str LIKE pattern (Kids[1] must be ConstStr).
    Prefix,   ///< Str starts-with.
    Contains,
    CaseWhen, ///< Kids = {cond, then, else}.
  };

  Kind K;
  ExprType Ty;
  std::string Name;          ///< ColRef.
  int64_t IntVal = 0;        ///< ConstI64.
  Int128 DecVal = 0;         ///< ConstDec.
  std::string StrVal;        ///< ConstStr.
  std::vector<std::unique_ptr<Expr>> Kids;
};

using ExprPtr = std::unique_ptr<Expr>;

// --- Expression builders ------------------------------------------------------

inline ExprPtr col(const std::string &Name) {
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::ColRef;
  E->Ty = ExprType::I64; // Resolved against the schema during codegen.
  E->Name = Name;
  return E;
}

inline ExprPtr litI64(int64_t V) {
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::ConstI64;
  E->Ty = ExprType::I64;
  E->IntVal = V;
  return E;
}

inline ExprPtr litDate(int Year, unsigned Month, unsigned Day) {
  return litI64(rt::dateFromYmd(Year, Month, Day));
}

inline ExprPtr litDec(int64_t Cents) {
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::ConstDec;
  E->Ty = ExprType::Decimal;
  E->DecVal = Cents;
  return E;
}

inline ExprPtr litStr(const std::string &S) {
  auto E = std::make_unique<Expr>();
  E->K = Expr::Kind::ConstStr;
  E->Ty = ExprType::Str;
  E->StrVal = S;
  return E;
}

inline ExprPtr mk(Expr::Kind K, ExprType Ty, ExprPtr A, ExprPtr B = nullptr,
                  ExprPtr C = nullptr) {
  auto E = std::make_unique<Expr>();
  E->K = K;
  E->Ty = Ty;
  E->Kids.push_back(std::move(A));
  if (B)
    E->Kids.push_back(std::move(B));
  if (C)
    E->Kids.push_back(std::move(C));
  return E;
}

inline ExprPtr add(ExprPtr A, ExprPtr B) {
  ExprType Ty = A->Ty;
  return mk(Expr::Kind::Add, Ty, std::move(A), std::move(B));
}
inline ExprPtr sub(ExprPtr A, ExprPtr B) {
  ExprType Ty = A->Ty;
  return mk(Expr::Kind::Sub, Ty, std::move(A), std::move(B));
}
inline ExprPtr mul(ExprPtr A, ExprPtr B) {
  ExprType Ty = A->Ty;
  return mk(Expr::Kind::Mul, Ty, std::move(A), std::move(B));
}
inline ExprPtr eq(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpEq, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr ne(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpNe, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr lt(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpLt, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr le(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpLe, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr gt(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpGt, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr ge(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::CmpGe, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr and_(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::And, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr or_(ExprPtr A, ExprPtr B) {
  return mk(Expr::Kind::Or, ExprType::Bool, std::move(A), std::move(B));
}
inline ExprPtr like(ExprPtr S, const std::string &Pattern) {
  return mk(Expr::Kind::Like, ExprType::Bool, std::move(S),
            litStr(Pattern));
}
inline ExprPtr startsWith(ExprPtr S, const std::string &Prefix) {
  return mk(Expr::Kind::Prefix, ExprType::Bool, std::move(S),
            litStr(Prefix));
}
inline ExprPtr caseWhen(ExprPtr Cond, ExprPtr Then, ExprPtr Else) {
  ExprType Ty = Then->Ty;
  return mk(Expr::Kind::CaseWhen, Ty, std::move(Cond), std::move(Then),
            std::move(Else));
}
inline ExprPtr between(ExprPtr V, ExprPtr Lo, ExprPtr Hi) {
  auto VCopy = std::make_unique<Expr>();
  // Between duplicates the value reference; restrict to ColRef for
  // simplicity.
  assert(V->K == Expr::Kind::ColRef && "between requires a column");
  *VCopy = Expr{};
  VCopy->K = Expr::Kind::ColRef;
  VCopy->Ty = V->Ty;
  VCopy->Name = V->Name;
  return and_(ge(std::move(V), std::move(Lo)),
              le(std::move(VCopy), std::move(Hi)));
}

// --- Plan nodes ---------------------------------------------------------------

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// Aggregate function kinds.
enum class AggKind : uint8_t { Sum, Count, Min, Max, Avg };

struct AggSpec {
  AggKind Kind;
  ExprPtr Arg; ///< Null for Count.
  std::string Name;
};

struct SortKey {
  std::string Column; ///< Column of the child's output schema.
  bool Descending = false;
};

struct PlanNode {
  enum class Kind : uint8_t { Scan, Filter, HashJoin, Aggregate, Sort };
  Kind K;

  // Scan.
  std::string TableName;

  // Filter.
  ExprPtr Pred;

  // HashJoin: probe side is Child, build side is Build.
  std::vector<ExprPtr> ProbeKeys;
  std::vector<ExprPtr> BuildKeys;
  std::vector<std::string> BuildPayload; ///< Build columns carried along.

  // Aggregate.
  std::vector<ExprPtr> GroupKeys;
  std::vector<std::string> GroupNames;
  std::vector<AggSpec> Aggs;

  // Sort.
  std::vector<SortKey> SortKeys;
  uint64_t Limit = 0; ///< 0 = unlimited.

  PlanPtr Child;
  PlanPtr Build;
};

inline PlanPtr scan(const std::string &Table) {
  auto P = std::make_unique<PlanNode>();
  P->K = PlanNode::Kind::Scan;
  P->TableName = Table;
  return P;
}

inline PlanPtr filter(PlanPtr Child, ExprPtr Pred) {
  auto P = std::make_unique<PlanNode>();
  P->K = PlanNode::Kind::Filter;
  P->Child = std::move(Child);
  P->Pred = std::move(Pred);
  return P;
}

inline PlanPtr hashJoin(PlanPtr Probe, PlanPtr Build,
                        std::vector<ExprPtr> ProbeKeys,
                        std::vector<ExprPtr> BuildKeys,
                        std::vector<std::string> BuildPayload) {
  auto P = std::make_unique<PlanNode>();
  P->K = PlanNode::Kind::HashJoin;
  P->Child = std::move(Probe);
  P->Build = std::move(Build);
  P->ProbeKeys = std::move(ProbeKeys);
  P->BuildKeys = std::move(BuildKeys);
  P->BuildPayload = std::move(BuildPayload);
  return P;
}

inline PlanPtr aggregate(PlanPtr Child, std::vector<ExprPtr> GroupKeys,
                         std::vector<std::string> GroupNames,
                         std::vector<AggSpec> Aggs) {
  auto P = std::make_unique<PlanNode>();
  P->K = PlanNode::Kind::Aggregate;
  P->Child = std::move(Child);
  P->GroupKeys = std::move(GroupKeys);
  P->GroupNames = std::move(GroupNames);
  P->Aggs = std::move(Aggs);
  return P;
}

inline PlanPtr sortBy(PlanPtr Child, std::vector<SortKey> Keys,
                      uint64_t Limit = 0) {
  auto P = std::make_unique<PlanNode>();
  P->K = PlanNode::Kind::Sort;
  P->Child = std::move(Child);
  P->SortKeys = std::move(Keys);
  P->Limit = Limit;
  return P;
}

/// A complete query: a plan plus the output expressions over the root's
/// schema.
struct Query {
  std::string Name;
  PlanPtr Root;
  std::vector<ExprPtr> Output;
  /// Output columns rendered as f64 averages: pairs of (sum column
  /// produced by an Avg agg are finalized during output automatically).
};

} // namespace qcf::db

#endif // QCF_DB_PLAN_H
