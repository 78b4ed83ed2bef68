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
/// also be encoded by db::queryKey, the serving plan cache's key. Nodes
/// are frozen once built (shared_ptr<const ...>), so subtrees may be
/// shared and a query's memoized key can tell a changed query by identity.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_PLAN_H
#define QCF_DB_PLAN_H

#include "db/Table.h"
#include "runtime/Runtime.h"
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qcf::db {

/// A shared_ptr<const T> threads may load and replace at once, guarded by
/// a mutex (libstdc++ 12's atomic<shared_ptr> trips ThreadSanitizer).
template <typename T> class SharedSlot {
public:
  SharedSlot() = default;
  SharedSlot(const SharedSlot &O) : P(O.load()) {}
  SharedSlot &operator=(const SharedSlot &O) {
    store(O.load());
    return *this;
  }
  std::shared_ptr<const T> load() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return P;
  }
  void store(std::shared_ptr<const T> Next) { // Frees the old one unlocked.
    std::lock_guard<std::mutex> Lock(Mutex);
    P.swap(Next);
  }

private:
  mutable std::mutex Mutex;
  std::shared_ptr<const T> P;
};

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

  // Every field has an initializer, so builders name only what they set.
  Kind K{};
  ExprType Ty{};
  std::string Name{};        ///< ColRef.
  int64_t IntVal = 0;        ///< ConstI64.
  Int128 DecVal = 0;         ///< ConstDec.
  std::string StrVal{};      ///< ConstStr.
  std::vector<std::shared_ptr<const Expr>> Kids{};
};

using ExprPtr = std::shared_ptr<const Expr>;

/// Freezes a built node: from here on it is shared and never changes.
template <typename NodeT> std::shared_ptr<const NodeT> freeze(NodeT N) {
  return std::make_shared<const NodeT>(std::move(N));
}

// --- Expression builders ------------------------------------------------------

inline ExprPtr col(const std::string &Name) {
  // The type is resolved against the schema during codegen.
  return freeze(
      Expr{.K = Expr::Kind::ColRef, .Ty = ExprType::I64, .Name = Name});
}

inline ExprPtr litI64(int64_t V) {
  return freeze(
      Expr{.K = Expr::Kind::ConstI64, .Ty = ExprType::I64, .IntVal = V});
}

inline ExprPtr litDate(int Year, unsigned Month, unsigned Day) {
  return litI64(rt::dateFromYmd(Year, Month, Day));
}

inline ExprPtr litDec(int64_t Cents) {
  return freeze(Expr{
      .K = Expr::Kind::ConstDec, .Ty = ExprType::Decimal, .DecVal = Cents});
}

inline ExprPtr litStr(const std::string &S) {
  return freeze(
      Expr{.K = Expr::Kind::ConstStr, .Ty = ExprType::Str, .StrVal = S});
}

inline ExprPtr mk(Expr::Kind K, ExprType Ty, ExprPtr A, ExprPtr B = nullptr,
                  ExprPtr C = nullptr) {
  Expr E{.K = K, .Ty = Ty, .Kids = {std::move(A)}};
  if (B)
    E.Kids.push_back(std::move(B));
  if (C)
    E.Kids.push_back(std::move(C));
  return freeze(std::move(E));
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
  ExprPtr Again = V; // Nodes are immutable, so both bounds share the value.
  return and_(ge(std::move(V), std::move(Lo)),
              le(std::move(Again), std::move(Hi)));
}

// --- Plan nodes ---------------------------------------------------------------

struct PlanNode;
using PlanPtr = std::shared_ptr<const PlanNode>;

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
  Kind K{};

  // Scan.
  std::string TableName{};

  // Filter.
  ExprPtr Pred{};

  // HashJoin: probe side is Child, build side is Build.
  std::vector<ExprPtr> ProbeKeys{};
  std::vector<ExprPtr> BuildKeys{};
  std::vector<std::string> BuildPayload{}; ///< Build columns carried along.

  // Aggregate.
  std::vector<ExprPtr> GroupKeys{};
  std::vector<std::string> GroupNames{};
  std::vector<AggSpec> Aggs{};

  // Sort.
  std::vector<SortKey> SortKeys{};
  uint64_t Limit = 0; ///< 0 = unlimited.

  PlanPtr Child{};
  PlanPtr Build{};
};

inline PlanPtr scan(const std::string &Table) {
  return freeze(PlanNode{.K = PlanNode::Kind::Scan, .TableName = Table});
}

inline PlanPtr filter(PlanPtr Child, ExprPtr Pred) {
  return freeze(PlanNode{.K = PlanNode::Kind::Filter, .Pred = std::move(Pred),
                         .Child = std::move(Child)});
}

inline PlanPtr hashJoin(PlanPtr Probe, PlanPtr Build,
                        std::vector<ExprPtr> ProbeKeys,
                        std::vector<ExprPtr> BuildKeys,
                        std::vector<std::string> BuildPayload) {
  return freeze(PlanNode{.K = PlanNode::Kind::HashJoin,
                         .ProbeKeys = std::move(ProbeKeys),
                         .BuildKeys = std::move(BuildKeys),
                         .BuildPayload = std::move(BuildPayload),
                         .Child = std::move(Probe),
                         .Build = std::move(Build)});
}

inline PlanPtr aggregate(PlanPtr Child, std::vector<ExprPtr> GroupKeys,
                         std::vector<std::string> GroupNames,
                         std::vector<AggSpec> Aggs) {
  return freeze(PlanNode{.K = PlanNode::Kind::Aggregate,
                         .GroupKeys = std::move(GroupKeys),
                         .GroupNames = std::move(GroupNames),
                         .Aggs = std::move(Aggs),
                         .Child = std::move(Child)});
}

inline PlanPtr sortBy(PlanPtr Child, std::vector<SortKey> Keys,
                      uint64_t Limit = 0) {
  return freeze(PlanNode{.K = PlanNode::Kind::Sort,
                         .SortKeys = std::move(Keys),
                         .Limit = Limit,
                         .Child = std::move(Child)});
}

struct QueryKey;

/// A complete query: a plan plus the output expressions over the root's
/// schema. Name, Root and Output may be reassigned; the key memo notices.
struct Query {
  std::string Name;
  PlanPtr Root;
  std::vector<ExprPtr> Output;

  /// The last key db::queryKey computed for this query, shared by copies.
  mutable SharedSlot<QueryKey> KeyMemo;
};

/// A query's plan-cache key: its encoding and the encoding's hash, with
/// the name and nodes they were computed from. Holding the nodes keeps
/// their addresses from being reused, and nodes never change, so the key
/// describes a query exactly when the query still has these.
struct QueryKey {
  std::string Bytes;
  uint64_t Hash = 0;
  std::string Name;
  PlanPtr Root;
  std::vector<ExprPtr> Output;

  bool describes(const Query &Q) const {
    return Root == Q.Root && Output == Q.Output && Name == Q.Name;
  }
};

} // namespace qcf::db

#endif // QCF_DB_PLAN_H
