//===- db/Codegen.cpp - Data-centric query code generation -----------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Produce/consume code generation: each source operator (table scan,
// aggregate-table scan, sorted-buffer scan) opens a pipeline function with
// a morsel loop; intermediate operators wrap the consumer with their
// control flow; the pipeline's breaker materializes through runtime calls.
//
//===----------------------------------------------------------------------===//

#include "db/Codegen.h"
#include "backend/Cache.h"
#include "db/Osr.h"
#include "qir/Builder.h"
#include "qir/Print.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "support/Hash.h"
#include <string_view>
#include <type_traits>

using namespace qcf;
using namespace qcf::db;
using qir::BlockId;
using qir::Builder;
using qir::CmpPred;
using qir::Type;
using qir::ValueId;

namespace {

unsigned fieldSize(ExprType Ty) {
  switch (Ty) {
  case ExprType::I64:
  case ExprType::F64:
    return 8;
  case ExprType::Decimal:
  case ExprType::Str:
    return 16;
  case ExprType::Bool:
    return 8;
  }
  QCF_UNREACHABLE("invalid expr type");
}

/// Column names are views of the catalog's and the plan's strings, which
/// outlive lowering.
struct SchemaCol {
  std::string_view Name;
  ExprType Ty;
};

struct Schema {
  std::vector<SchemaCol> Cols;

  const SchemaCol *find(std::string_view Name) const {
    for (const SchemaCol &C : Cols)
      if (C.Name == Name)
        return &C;
    return nullptr;
  }
};

struct Field {
  std::string_view Name;
  ExprType Ty;
  uint32_t Off;
};

/// A non-owning reference to a `void()` callable. Every consumer runs
/// inside the produce() call it was handed to, so it never outlives the
/// lambda it refers to, and passing one allocates nothing.
class Consumer {
public:
  template <typename Fn, typename = std::enable_if_t<
                             !std::is_same_v<std::decay_t<Fn>, Consumer>>>
  Consumer(Fn &&Body)
      : Obj(const_cast<void *>(static_cast<const void *>(&Body))),
        Run([](void *O) { (*static_cast<std::remove_reference_t<Fn> *>(O))(); }) {}

  void operator()() const { Run(Obj); }

private:
  void *Obj;
  void (*Run)(void *);
};


/// Resolves an expression's result type against a schema (ColRef types in
/// the builder are placeholders).
ExprType resolveType(const Expr *E, const Schema &S) {
  switch (E->K) {
  case Expr::Kind::ColRef: {
    const SchemaCol *C = S.find(E->Name);
    assert(C && "unknown column");
    return C->Ty;
  }
  case Expr::Kind::ConstI64:
  case Expr::Kind::ConstDec:
  case Expr::Kind::ConstStr:
    return E->Ty;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
    return resolveType(E->Kids[0].get(), S);
  case Expr::Kind::CaseWhen:
    return resolveType(E->Kids[1].get(), S);
  default:
    return ExprType::Bool;
  }
}

/// Computes the output schema of a plan subtree.
Schema schemaOf(const PlanNode *N, const Catalog &Cat) {
  switch (N->K) {
  case PlanNode::Kind::Scan: {
    Schema S;
    const Table *T = Cat.find(N->TableName);
    assert(T && "unknown table");
    S.Cols.reserve(T->columns().size());
    for (const Column &C : T->columns())
      S.Cols.push_back({C.Name, exprTypeFor(C.Ty)});
    return S;
  }
  case PlanNode::Kind::Filter:
  case PlanNode::Kind::Sort:
    return schemaOf(N->Child.get(), Cat);
  case PlanNode::Kind::HashJoin: {
    Schema S = schemaOf(N->Child.get(), Cat);
    Schema BS = schemaOf(N->Build.get(), Cat);
    for (const std::string &P : N->BuildPayload) {
      const SchemaCol *C = BS.find(P);
      assert(C && "unknown build payload column");
      S.Cols.push_back(*C);
    }
    return S;
  }
  case PlanNode::Kind::Aggregate: {
    Schema In = schemaOf(N->Child.get(), Cat);
    Schema S;
    for (size_t K = 0; K != N->GroupNames.size(); ++K)
      S.Cols.push_back(
          {N->GroupNames[K], resolveType(N->GroupKeys[K].get(), In)});
    for (const AggSpec &A : N->Aggs) {
      ExprType Ty;
      switch (A.Kind) {
      case AggKind::Count:
        Ty = ExprType::I64;
        break;
      case AggKind::Avg:
        Ty = ExprType::F64;
        break;
      default:
        Ty = resolveType(A.Arg.get(), In);
        break;
      }
      S.Cols.push_back({A.Name, Ty});
    }
    return S;
  }
  }
  QCF_UNREACHABLE("invalid plan node");
}

/// Per-aggregate state layout inside the aggregation hash-table payload.
struct AggState {
  AggKind Kind;
  ExprType ArgTy;
  uint32_t Off;      ///< State offset within the payload.
  uint32_t CountOff; ///< Avg: the count field.
};

class QueryCompiler {
public:
  QueryCompiler(const Query &Q, const Catalog &Cat) : Q(Q), Cat(Cat) {
    Out.Module = std::make_unique<qir::Module>();
    Syms = rt::declareRuntime(*Out.Module);
  }

  CompiledPlan run() {
    // Top-level consumer: the output sink.
    produce(Q.Root.get(), [this] { emitOutputSink(); });
    auto Err = qir::verify(*Out.Module);
    if (Err) {
#ifndef NDEBUG
      for (const auto &Fn : Out.Module->functions())
        std::fprintf(stderr, "%s\n", qir::printFunction(*Fn).c_str());
#endif
      reportFatalError(("query codegen produced invalid IR: " + *Err)
                           .c_str());
    }
    Out.Fingerprint = backend::fingerprintModule(*Out.Module);
    Out.NumCtxSlots = NextSlot;
    for (PipelineDesc &P : Out.Pipelines)
      P.Contract = osrContract(P.FnName, NextSlot);
    return std::move(Out);
  }

private:
  struct TypedValue {
    ValueId V;
    ExprType Ty;
  };

  /// A column name in scope in the current pipeline and how to produce its
  /// value. The value is emitted on first use and reused after that: the
  /// body block dominates every block nested in it.
  struct Binding {
    enum class Kind : uint8_t { TableColumn, Field, AggResult, Value };
    std::string_view Name;
    Kind K;
    bool Emitted = false;
    TypedValue V{};               ///< Value, or the emitted result.
    const Column *Col = nullptr;  ///< TableColumn.
    ValueId Base = 0;             ///< Field / AggResult: row or payload.
    Field Fd{};                   ///< Field.
    AggState St{};                ///< AggResult.
  };

  // --- Pipeline plumbing ---------------------------------------------------

  /// Opens a new pipeline function and its morsel loop; \p Body emits the
  /// per-row work (loaders must be bound by the caller).
  void openPipeline(PipelineDesc Desc, Consumer Body) {
    PipelineIdx = static_cast<int>(Out.Pipelines.size());
    Desc.FnName = Q.Name + "_pipe" + std::to_string(PipelineIdx);
    Out.Pipelines.push_back(std::move(Desc));

    F = Out.Module->createFunction(Out.Pipelines.back().FnName,
                                   {Type::Ptr, Type::I64, Type::I64},
                                   Type::Void);
    Bld.emplace(F);
    Env.clear();
    SlotCache.clear();
    ContinueStack.clear();

    CtxV = F->paramValue(0);
    ValueId Begin = F->paramValue(1);
    ValueId End = F->paramValue(2);

    BlockId Header = Bld->createBlock();
    BlockId BodyBB = Bld->createBlock();
    LatchBB = Bld->createBlock();
    BlockId Exit = Bld->createBlock();

    Bld->br(Header);
    Bld->startBlock(Header);
    RowIdx = Bld->phi(Type::I64, 2);
    ValueId Cond = Bld->icmp(CmpPred::SLt, RowIdx, End);
    Bld->condBr(Cond, BodyBB, Exit);

    Bld->startBlock(BodyBB);
    ContinueStack.push_back(LatchBB);
    Body();
    // Body must end with a terminator (the sink branches to a continue
    // target).

    Bld->startBlock(LatchBB);
    ValueId Next = Bld->add(RowIdx, Bld->constInt(Type::I64, 1));
    Bld->br(Header);
    Bld->startBlock(Exit);
    Bld->ret();

    Bld->setPhiIncoming(RowIdx, 0, Bld->entryBlock(), Begin);
    Bld->setPhiIncoming(RowIdx, 1, LatchBB, Next);
    qir::normalizeLayout(*F);
  }

  BlockId cont() const { return ContinueStack.back(); }

  /// Loads a ctx slot (cached per pipeline; body block dominates all
  /// nested blocks).
  ValueId loadSlot(uint32_t Slot) {
    if (Slot >= SlotCache.size())
      SlotCache.resize(Slot + 1, qir::INVALID_VALUE);
    if (SlotCache[Slot] == qir::INVALID_VALUE)
      SlotCache[Slot] = Bld->load(Type::Ptr, Bld->gep(CtxV, 8 * Slot));
    return SlotCache[Slot];
  }

  // --- Produce/consume ---------------------------------------------------------

  void produce(const PlanNode *N, Consumer C) {
    switch (N->K) {
    case PlanNode::Kind::Scan:
      produceScan(N, C);
      return;
    case PlanNode::Kind::Filter: {
      const PlanNode *Node = N;
      produce(N->Child.get(), [this, Node, C] {
        TypedValue Pred = emitExpr(Node->Pred.get());
        BlockId Pass = Bld->createBlock();
        Bld->condBr(Pred.V, Pass, cont());
        Bld->startBlock(Pass);
        C();
      });
      return;
    }
    case PlanNode::Kind::HashJoin:
      produceJoin(N, C);
      return;
    case PlanNode::Kind::Aggregate:
      produceAggregate(N, C);
      return;
    case PlanNode::Kind::Sort:
      produceSort(N, C);
      return;
    }
    QCF_UNREACHABLE("invalid plan node");
  }

  void produceScan(const PlanNode *N, Consumer C) {
    const Table *T = Cat.find(N->TableName);
    assert(T && "unknown table");
    recordRead(*T);
    PipelineDesc Desc;
    Desc.Src = PipelineDesc::Source::TableScan;
    Desc.SourceTable = T;
    openPipeline(std::move(Desc), [this, T, C] {
      for (const Column &Col : T->columns())
        bind({Col.Name, Binding::Kind::TableColumn}).Col = &Col;
      C();
    });
  }

  /// Notes \p T in Out.Reads. Every table lowering looks at (schemaOf
  /// included) is a scan source, so scans are where reads are recorded.
  void recordRead(const Table &T) {
    for (const TableRead &R : Out.Reads)
      if (R.T == &T)
        return;
    TableRead R{T.Name, &T, {}};
    for (const Column &Col : T.columns())
      R.Raw.push_back(Col.raw());
    Out.Reads.push_back(std::move(R));
  }

  /// Brings \p B.Name into scope, replacing an earlier binding of the
  /// same name (a join's build payload hides a probe-side column).
  Binding &bind(Binding B) {
    for (Binding &Old : Env)
      if (Old.Name == B.Name)
        return Old = B;
    return Env.emplace_back(B);
  }

  // --- Expressions -----------------------------------------------------------

  TypedValue column(std::string_view Name) {
    for (Binding &B : Env) {
      if (B.Name != Name)
        continue;
      if (!B.Emitted) {
        B.V = emitBinding(B);
        B.Emitted = true;
      }
      return B.V;
    }
    reportFatalError(("unknown column in query: " + std::string(Name)).c_str());
  }

  TypedValue emitBinding(const Binding &B) {
    switch (B.K) {
    case Binding::Kind::TableColumn: {
      const Column *CP = B.Col;
      ValueId Base = Bld->constPtr(CP->raw());
      ValueId Addr = Bld->gepIndexed(Base, RowIdx, colElemSize(CP->Ty));
      switch (CP->Ty) {
      case ColType::I32:
      case ColType::Date: {
        ValueId V32 = Bld->load(Type::I32, Addr);
        return {Bld->sext(Type::I64, V32), ExprType::I64};
      }
      case ColType::I64:
        return {Bld->load(Type::I64, Addr), ExprType::I64};
      case ColType::F64:
        return {Bld->load(Type::F64, Addr), ExprType::F64};
      case ColType::Decimal:
        return {Bld->load(Type::I128, Addr), ExprType::Decimal};
      case ColType::Str:
        return {Bld->load(Type::D128, Addr), ExprType::Str};
      }
      QCF_UNREACHABLE("invalid column type");
    }
    case Binding::Kind::Field:
      return loadField(B.Base, B.Fd);
    case Binding::Kind::AggResult: {
      const AggState &St = B.St;
      ValueId P = B.Base;
      if (St.Kind == AggKind::Avg) {
        // sum / count as f64 (decimal sums divide out the scale).
        ValueId Sum;
        if (St.ArgTy == ExprType::Decimal) {
          ValueId S128 = Bld->load(Type::I128, Bld->gep(P, St.Off));
          Sum = Bld->extractLo(S128);
        } else {
          Sum = Bld->load(Type::I64, Bld->gep(P, St.Off));
        }
        ValueId Count = Bld->load(Type::I64, Bld->gep(P, St.CountOff));
        ValueId SumF = Bld->sitofp(Sum);
        ValueId CountF = Bld->sitofp(Count);
        return {Bld->fdiv(SumF, CountF), ExprType::F64};
      }
      if (St.ArgTy == ExprType::Decimal)
        return {Bld->load(Type::I128, Bld->gep(P, St.Off)), ExprType::Decimal};
      return {Bld->load(Type::I64, Bld->gep(P, St.Off)), ExprType::I64};
    }
    case Binding::Kind::Value:
      return B.V;
    }
    QCF_UNREACHABLE("invalid binding kind");
  }

  TypedValue emitExpr(const Expr *E) {
    switch (E->K) {
    case Expr::Kind::ColRef:
      return column(E->Name);
    case Expr::Kind::ConstI64:
      return {Bld->constInt(Type::I64, E->IntVal), ExprType::I64};
    case Expr::Kind::ConstDec:
      return {Bld->constI128(E->DecVal), ExprType::Decimal};
    case Expr::Kind::ConstStr: {
      rt::StringVal S = internString(E->StrVal);
      ValueId Lo = Bld->constInt(Type::I64, static_cast<int64_t>(S.lo()));
      ValueId Hi = Bld->constInt(Type::I64, static_cast<int64_t>(S.hi()));
      return {Bld->packD128(Lo, Hi), ExprType::Str};
    }
    case Expr::Kind::Add:
    case Expr::Kind::Sub:
    case Expr::Kind::Mul: {
      TypedValue A = emitExpr(E->Kids[0].get());
      TypedValue B2 = emitExpr(E->Kids[1].get());
      assert(A.Ty == B2.Ty && "arithmetic type mismatch");
      if (A.Ty == ExprType::F64) {
        qir::Opcode Op = E->K == Expr::Kind::Add   ? qir::Opcode::FAdd
                         : E->K == Expr::Kind::Sub ? qir::Opcode::FSub
                                                   : qir::Opcode::FMul;
        return {Bld->binary(Op, A.V, B2.V), ExprType::F64};
      }
      // Overflow-checked arithmetic on user data (§III-A).
      qir::Opcode Op = E->K == Expr::Kind::Add   ? qir::Opcode::SAddTrap
                       : E->K == Expr::Kind::Sub ? qir::Opcode::SSubTrap
                                                 : qir::Opcode::SMulTrap;
      return {Bld->binary(Op, A.V, B2.V), A.Ty};
    }
    case Expr::Kind::CmpEq:
    case Expr::Kind::CmpNe:
    case Expr::Kind::CmpLt:
    case Expr::Kind::CmpLe:
    case Expr::Kind::CmpGt:
    case Expr::Kind::CmpGe: {
      TypedValue A = emitExpr(E->Kids[0].get());
      TypedValue B2 = emitExpr(E->Kids[1].get());
      assert(A.Ty == B2.Ty && "comparison type mismatch");
      CmpPred P;
      switch (E->K) {
      case Expr::Kind::CmpEq:
        P = CmpPred::Eq;
        break;
      case Expr::Kind::CmpNe:
        P = CmpPred::Ne;
        break;
      case Expr::Kind::CmpLt:
        P = CmpPred::SLt;
        break;
      case Expr::Kind::CmpLe:
        P = CmpPred::SLe;
        break;
      case Expr::Kind::CmpGt:
        P = CmpPred::SGt;
        break;
      default:
        P = CmpPred::SGe;
        break;
      }
      if (A.Ty == ExprType::Str) {
        if (P == CmpPred::Eq || P == CmpPred::Ne) {
          ValueId R = Bld->call(Syms.StrEq, {A.V, B2.V});
          ValueId IsEq =
              Bld->icmp(CmpPred::Ne, R, Bld->constInt(Type::I64, 0));
          if (P == CmpPred::Ne)
            IsEq = Bld->xor_(IsEq, Bld->constBool(true));
          return {IsEq, ExprType::Bool};
        }
        ValueId R = Bld->call(Syms.StrCmp, {A.V, B2.V});
        return {Bld->icmp(P, R, Bld->constInt(Type::I64, 0)),
                ExprType::Bool};
      }
      if (A.Ty == ExprType::F64)
        return {Bld->fcmp(P, A.V, B2.V), ExprType::Bool};
      return {Bld->icmp(P, A.V, B2.V), ExprType::Bool};
    }
    case Expr::Kind::And: {
      TypedValue A = emitExpr(E->Kids[0].get());
      TypedValue B2 = emitExpr(E->Kids[1].get());
      return {Bld->and_(A.V, B2.V), ExprType::Bool};
    }
    case Expr::Kind::Or: {
      TypedValue A = emitExpr(E->Kids[0].get());
      TypedValue B2 = emitExpr(E->Kids[1].get());
      return {Bld->or_(A.V, B2.V), ExprType::Bool};
    }
    case Expr::Kind::Not: {
      TypedValue A = emitExpr(E->Kids[0].get());
      return {Bld->xor_(A.V, Bld->constBool(true)), ExprType::Bool};
    }
    case Expr::Kind::Like:
    case Expr::Kind::Prefix:
    case Expr::Kind::Contains: {
      TypedValue S = emitExpr(E->Kids[0].get());
      TypedValue Pat = emitExpr(E->Kids[1].get());
      qir::SymbolId Sym = E->K == Expr::Kind::Like      ? Syms.StrLike
                          : E->K == Expr::Kind::Prefix ? Syms.StrPrefix
                                                        : Syms.StrContains;
      ValueId R = Bld->call(Sym, {S.V, Pat.V});
      return {Bld->icmp(CmpPred::Ne, R, Bld->constInt(Type::I64, 0)),
              ExprType::Bool};
    }
    case Expr::Kind::CaseWhen: {
      TypedValue C = emitExpr(E->Kids[0].get());
      TypedValue T = emitExpr(E->Kids[1].get());
      TypedValue F2 = emitExpr(E->Kids[2].get());
      assert(T.Ty == F2.Ty && "case arm type mismatch");
      return {Bld->select(C.V, T.V, F2.V), T.Ty};
    }
    }
    QCF_UNREACHABLE("invalid expression kind");
  }

  rt::StringVal internString(const std::string &S) {
    if (S.size() <= rt::StringVal::InlineCap)
      return rt::StringVal::makeRef(S.data(),
                                    static_cast<uint32_t>(S.size()));
    // Constant string payloads live in the plan's arena: the generated
    // code keeps raw pointers to them.
    const char *Copy = Out.StringArena.copyString(S.data(), S.size());
    return rt::StringVal::makeRef(Copy, static_cast<uint32_t>(S.size()));
  }

  // --- Hashing / field storage ------------------------------------------------

  ValueId emitHash(const std::vector<TypedValue> &Keys) {
    ValueId H = Bld->constInt(Type::I64,
                              static_cast<int64_t>(0xf45f077febc43d1bull));
    for (const TypedValue &K : Keys) {
      switch (K.Ty) {
      case ExprType::I64:
        H = Bld->crc32(H, K.V);
        break;
      case ExprType::Decimal:
        H = Bld->crc32(H, Bld->extractLo(K.V));
        H = Bld->crc32(H, Bld->extractHi(K.V));
        break;
      case ExprType::Str: {
        ValueId SH = Bld->call(Syms.StrHash, {K.V});
        H = Bld->crc32(H, SH);
        break;
      }
      default:
        QCF_UNREACHABLE("unhashable key type");
      }
    }
    // Mix (long-mul-fold, §III-A).
    return Bld->longMulFold(
        H, Bld->constInt(Type::I64,
                         static_cast<int64_t>(0x9e3779b97f4a7c15ull)));
  }

  void storeField(ValueId BasePtr, const Field &Fd, TypedValue V) {
    ValueId Addr = Bld->gep(BasePtr, Fd.Off);
    Bld->store(V.V, Addr);
  }

  TypedValue loadField(ValueId BasePtr, const Field &Fd) {
    ValueId Addr = Bld->gep(BasePtr, Fd.Off);
    switch (Fd.Ty) {
    case ExprType::I64:
      return {Bld->load(Type::I64, Addr), ExprType::I64};
    case ExprType::F64:
      return {Bld->load(Type::F64, Addr), ExprType::F64};
    case ExprType::Decimal:
      return {Bld->load(Type::I128, Addr), ExprType::Decimal};
    case ExprType::Str:
      return {Bld->load(Type::D128, Addr), ExprType::Str};
    case ExprType::Bool:
      return {Bld->load(Type::I64, Addr), ExprType::I64};
    }
    QCF_UNREACHABLE("invalid field type");
  }

  /// Emits the key equality chain: mismatches branch to \p Mismatch.
  void emitKeyCompare(ValueId Payload, const std::vector<Field> &KeyFields,
                      const std::vector<TypedValue> &Keys,
                      BlockId Mismatch) {
    for (size_t K = 0; K != Keys.size(); ++K) {
      TypedValue Stored = loadField(Payload, KeyFields[K]);
      ValueId IsEq;
      if (Keys[K].Ty == ExprType::Str) {
        ValueId R = Bld->call(Syms.StrEq, {Stored.V, Keys[K].V});
        IsEq = Bld->icmp(CmpPred::Ne, R, Bld->constInt(Type::I64, 0));
      } else {
        IsEq = Bld->icmp(CmpPred::Eq, Stored.V, Keys[K].V);
      }
      BlockId Next = Bld->createBlock();
      Bld->condBr(IsEq, Next, Mismatch);
      Bld->startBlock(Next);
    }
  }

  // --- Hash join ----------------------------------------------------------------

  void produceJoin(const PlanNode *N, Consumer C) {
    // Layout: [build keys][payload columns].
    Schema BuildSchema = schemaOf(N->Build.get(), Cat);
    RuntimeObject Obj{};
    Obj.K = RuntimeObject::Kind::JoinHt;
    Obj.Slot = NextSlot++;

    std::vector<Field> KeyFields, PayloadFields;
    uint32_t Off = 0;
    for (size_t K = 0; K != N->BuildKeys.size(); ++K) {
      ExprType Ty = resolveType(N->BuildKeys[K].get(), BuildSchema);
      KeyFields.push_back({"", Ty, Off});
      Off += fieldSize(Ty);
    }
    for (const std::string &P : N->BuildPayload) {
      const SchemaCol *SC = BuildSchema.find(P);
      assert(SC && "unknown payload column");
      PayloadFields.push_back({P, SC->Ty, Off});
      Off += fieldSize(SC->Ty);
    }
    Obj.PayloadBytes = Off;
    const uint32_t Slot = Obj.Slot;
    int ObjIdx = static_cast<int>(Out.Objects.size());
    Out.Objects.push_back(std::move(Obj));

    // Build-side pipeline(s): append, linked once the pipeline ends.
    produce(N->Build.get(), [&] {
      std::vector<TypedValue> Keys;
      for (const ExprPtr &KE : N->BuildKeys)
        Keys.push_back(emitExpr(KE.get()));
      ValueId H = emitHash(Keys);
      ValueId Ht = loadSlot(Slot);
      ValueId Payload = Bld->call(Syms.HtAppend, {Ht, H});
      for (size_t K = 0; K != Keys.size(); ++K)
        storeField(Payload, KeyFields[K], Keys[K]);
      for (const Field &Fd : PayloadFields)
        storeField(Payload, Fd, column(Fd.Name));
      Bld->br(cont());
    });
    Out.Objects[ObjIdx].ProducerPipeline = PipelineIdx;

    // Probe side: wrap the consumer with the chain loop.
    produce(N->Child.get(), [&] {
      std::vector<TypedValue> Keys;
      for (const ExprPtr &KE : N->ProbeKeys)
        Keys.push_back(emitExpr(KE.get()));
      ValueId H = emitHash(Keys);
      ValueId Ht = loadSlot(Slot);
      ValueId First = Bld->call(Syms.HtLookup, {Ht, H});
      BlockId FromBB = Bld->currentBlock();

      BlockId ChainHead = Bld->createBlock();
      BlockId KeysBB = Bld->createBlock();
      Bld->br(ChainHead);

      Bld->startBlock(ChainHead);
      ValueId EPhi = Bld->phi(Type::Ptr, 2);
      ValueId Null = Bld->constPtr(nullptr);
      ValueId IsNull = Bld->icmp(CmpPred::Eq, EPhi, Null);
      // ChainNext is created later; record a placeholder via an extra
      // block we fill below.
      BlockId ChainNext = Bld->createBlock(); // started after the body
      Bld->condBr(IsNull, cont(), KeysBB);

      Bld->startBlock(KeysBB);
      ValueId Payload = Bld->gep(EPhi, rt::HashTable::HeaderBytes);
      emitKeyCompare(Payload, KeyFields, Keys, ChainNext);

      // Match: bind the build payload (it overrides any probe-side name
      // for the rest of the pipeline) and invoke the consumer with the
      // chain-next block as the continue target.
      for (const Field &Fd : PayloadFields) {
        Binding &B = bind({Fd.Name, Binding::Kind::Value});
        B.V = loadField(Payload, Fd);
        B.Emitted = true;
      }
      ContinueStack.push_back(ChainNext);
      C();
      ContinueStack.pop_back();

      Bld->startBlock(ChainNext);
      ValueId ENext = Bld->call(Syms.HtNext, {EPhi, H});
      Bld->br(ChainHead);

      Bld->setPhiIncoming(EPhi, 0, FromBB, First);
      Bld->setPhiIncoming(EPhi, 1, ChainNext, ENext);
    });
  }

  // --- Aggregation ---------------------------------------------------------------

  void produceAggregate(const PlanNode *N, Consumer C) {
    Schema In = schemaOf(N->Child.get(), Cat);

    RuntimeObject Obj{};
    Obj.K = RuntimeObject::Kind::AggHt;
    Obj.Slot = NextSlot++;

    std::vector<Field> KeyFields;
    uint32_t Off = 0;
    for (size_t K = 0; K != N->GroupKeys.size(); ++K) {
      ExprType Ty = resolveType(N->GroupKeys[K].get(), In);
      KeyFields.push_back({N->GroupNames[K], Ty, Off});
      Off += fieldSize(Ty);
    }
    std::vector<AggState> States;
    for (const AggSpec &A : N->Aggs) {
      AggState St;
      St.Kind = A.Kind;
      St.ArgTy = A.Kind == AggKind::Count ? ExprType::I64
                                          : resolveType(A.Arg.get(), In);
      St.Off = Off;
      Off += fieldSize(St.ArgTy == ExprType::Decimal ? ExprType::Decimal
                                                     : ExprType::I64);
      St.CountOff = 0;
      if (A.Kind == AggKind::Avg) {
        St.CountOff = Off;
        Off += 8;
      }
      States.push_back(St);
    }
    Obj.PayloadBytes = Off;
    const uint32_t Slot = Obj.Slot;
    int ObjIdx = static_cast<int>(Out.Objects.size());
    Out.Objects.push_back(std::move(Obj));

    // Child pipeline with the aggregation sink.
    produce(N->Child.get(),
            [&] { emitAggSink(N, Slot, KeyFields, States); });
    Out.Objects[ObjIdx].ProducerPipeline = PipelineIdx;

    // This node becomes a source: scan the aggregation table.
    PipelineDesc Desc;
    Desc.Src = PipelineDesc::Source::HtScan;
    Desc.SourceObject = ObjIdx;
    openPipeline(std::move(Desc), [&] {
      ValueId Ht = loadSlot(Slot);
      ValueId Entry = Bld->call(Syms.HtEntry, {Ht, RowIdx});
      ValueId Payload = Bld->gep(Entry, rt::HashTable::HeaderBytes);
      for (const Field &Fd : KeyFields) {
        Binding &B = bind({Fd.Name, Binding::Kind::Field});
        B.Base = Payload;
        B.Fd = Fd;
      }
      for (size_t K = 0; K != N->Aggs.size(); ++K) {
        Binding &B = bind({N->Aggs[K].Name, Binding::Kind::AggResult});
        B.Base = Payload;
        B.St = States[K];
      }
      C();
    });
  }

  void emitAggSink(const PlanNode *N, uint32_t Slot,
                   const std::vector<Field> &KeyFields,
                   const std::vector<AggState> &States) {
    std::vector<TypedValue> Keys;
    for (const ExprPtr &KE : N->GroupKeys)
      Keys.push_back(emitExpr(KE.get()));
    ValueId H = emitHash(Keys);
    ValueId Ht = loadSlot(Slot);
    ValueId First = Bld->call(Syms.HtLookup, {Ht, H});
    BlockId FromBB = Bld->currentBlock();

    if (Keys.empty()) {
      // Global aggregate: a single group, no key comparison loop.
      BlockId FoundBB = Bld->createBlock();
      BlockId InsertBB = Bld->createBlock();
      BlockId UpdateBB = Bld->createBlock();
      ValueId Null = Bld->constPtr(nullptr);
      ValueId IsNull = Bld->icmp(CmpPred::Eq, First, Null);
      Bld->condBr(IsNull, InsertBB, FoundBB);

      Bld->startBlock(FoundBB);
      ValueId FoundPayload = Bld->gep(First, rt::HashTable::HeaderBytes);
      Bld->br(UpdateBB);

      Bld->startBlock(InsertBB);
      ValueId NewPayload = Bld->call(Syms.HtInsert, {Ht, H});
      initAggStates(NewPayload, States);
      Bld->br(UpdateBB);

      Bld->startBlock(UpdateBB);
      ValueId Payload = Bld->phi(Type::Ptr, 2);
      Bld->setPhiIncoming(Payload, 0, FoundBB, FoundPayload);
      Bld->setPhiIncoming(Payload, 1, InsertBB, NewPayload);
      emitAggUpdates(N, States, Payload);
      Bld->br(cont());
      return;
    }

    BlockId FindHead = Bld->createBlock();
    BlockId KeysBB = Bld->createBlock();
    BlockId InsertBB = Bld->createBlock();
    BlockId FindNext = Bld->createBlock();
    BlockId UpdateBB = Bld->createBlock();
    Bld->br(FindHead);

    Bld->startBlock(FindHead);
    ValueId EPhi = Bld->phi(Type::Ptr, 2);
    ValueId Null = Bld->constPtr(nullptr);
    ValueId IsNull = Bld->icmp(CmpPred::Eq, EPhi, Null);
    Bld->condBr(IsNull, InsertBB, KeysBB);

    Bld->startBlock(KeysBB);
    ValueId FoundPayload = Bld->gep(EPhi, rt::HashTable::HeaderBytes);
    emitKeyCompare(FoundPayload, KeyFields, Keys, FindNext);
    BlockId MatchBB = Bld->currentBlock();
    Bld->br(UpdateBB);

    Bld->startBlock(InsertBB);
    ValueId NewPayload = Bld->call(Syms.HtInsert, {Ht, H});
    for (size_t K = 0; K != Keys.size(); ++K)
      storeField(NewPayload, KeyFields[K], Keys[K]);
    initAggStates(NewPayload, States);
    Bld->br(UpdateBB);

    Bld->startBlock(FindNext);
    ValueId ENext = Bld->call(Syms.HtNext, {EPhi, H});
    Bld->br(FindHead);

    Bld->setPhiIncoming(EPhi, 0, FromBB, First);
    Bld->setPhiIncoming(EPhi, 1, FindNext, ENext);

    Bld->startBlock(UpdateBB);
    ValueId Payload = Bld->phi(Type::Ptr, 2);
    Bld->setPhiIncoming(Payload, 0, MatchBB, FoundPayload);
    Bld->setPhiIncoming(Payload, 1, InsertBB, NewPayload);
    emitAggUpdates(N, States, Payload);
    Bld->br(cont());
  }

  /// Stores identity values into freshly inserted aggregate states.
  void initAggStates(ValueId NewPayload,
                     const std::vector<AggState> &States) {
    for (const AggState &St : States) {
      ValueId Addr = Bld->gep(NewPayload, St.Off);
      switch (St.Kind) {
      case AggKind::Min:
        Bld->store(Bld->constInt(Type::I64, INT64_MAX), Addr);
        break;
      case AggKind::Max:
        Bld->store(Bld->constInt(Type::I64, INT64_MIN), Addr);
        break;
      default:
        if (St.ArgTy == ExprType::Decimal && St.Kind != AggKind::Count)
          Bld->store(Bld->constI128(0), Addr);
        else
          Bld->store(Bld->constInt(Type::I64, 0), Addr);
        break;
      }
      if (St.Kind == AggKind::Avg)
        Bld->store(Bld->constInt(Type::I64, 0),
                   Bld->gep(NewPayload, St.CountOff));
    }
  }

  void emitAggUpdates(const PlanNode *N, const std::vector<AggState> &States,
                      ValueId Payload) {
    for (size_t K = 0; K != States.size(); ++K) {
      const AggState &St = States[K];
      ValueId Addr = Bld->gep(Payload, St.Off);
      switch (St.Kind) {
      case AggKind::Count: {
        ValueId Old = Bld->load(Type::I64, Addr);
        Bld->store(Bld->saddTrap(Old, Bld->constInt(Type::I64, 1)), Addr);
        break;
      }
      case AggKind::Sum:
      case AggKind::Avg: {
        TypedValue V = emitExpr(N->Aggs[K].Arg.get());
        if (St.ArgTy == ExprType::Decimal) {
          ValueId Old = Bld->load(Type::I128, Addr);
          Bld->store(Bld->saddTrap(Old, V.V), Addr);
        } else {
          ValueId Old = Bld->load(Type::I64, Addr);
          Bld->store(Bld->saddTrap(Old, V.V), Addr);
        }
        if (St.Kind == AggKind::Avg) {
          ValueId CAddr = Bld->gep(Payload, St.CountOff);
          ValueId OldC = Bld->load(Type::I64, CAddr);
          Bld->store(Bld->saddTrap(OldC, Bld->constInt(Type::I64, 1)),
                     CAddr);
        }
        break;
      }
      case AggKind::Min:
      case AggKind::Max: {
        TypedValue V = emitExpr(N->Aggs[K].Arg.get());
        assert(V.Ty == ExprType::I64 && "min/max requires i64");
        ValueId Old = Bld->load(Type::I64, Addr);
        ValueId Better = Bld->icmp(
            St.Kind == AggKind::Min ? CmpPred::SLt : CmpPred::SGt, V.V,
            Old);
        Bld->store(Bld->select(Better, V.V, Old), Addr);
        break;
      }
      }
    }
  }

  // --- Sort ------------------------------------------------------------------------

  void produceSort(const PlanNode *N, Consumer C) {
    Schema In = schemaOf(N->Child.get(), Cat);

    // Row layout: every child-schema column that the output or the sort
    // keys need. For simplicity, materialize the full child schema.
    std::vector<Field> RowFields;
    RowFields.reserve(In.Cols.size());
    uint32_t Off = 0;
    for (const SchemaCol &SC : In.Cols) {
      RowFields.push_back({SC.Name, SC.Ty, Off});
      Off += fieldSize(SC.Ty);
    }

    RuntimeObject Obj{};
    Obj.K = RuntimeObject::Kind::SortBuffer;
    Obj.Slot = NextSlot++;
    Obj.CountSlot = NextSlot++;
    Obj.RowStride = Off;
    Obj.Limit = N->Limit;
    Obj.CmpFnName = Q.Name + "_cmp" + std::to_string(Out.Objects.size());
    const uint32_t Slot = Obj.Slot, Stride = Obj.RowStride;
    int ObjIdx = static_cast<int>(Out.Objects.size());
    Out.Objects.push_back(std::move(Obj));

    // Materialization pipeline: each row is an unlinked entry of a hash
    // table that the executor packs before the sort.
    produce(N->Child.get(), [&] {
      ValueId Rows = loadSlot(Slot);
      ValueId RowPtr = Bld->call(Syms.HtAppend,
                                 {Rows, Bld->constInt(Type::I64, 0)});
      for (const Field &Fd : RowFields)
        storeField(RowPtr, Fd, column(Fd.Name));
      Bld->br(cont());
    });
    Out.Objects[ObjIdx].ProducerPipeline = PipelineIdx;
    Out.Pipelines[PipelineIdx].SortObject = ObjIdx;

    // Comparator function.
    emitComparator(*N, RowFields, Out.Objects[ObjIdx].CmpFnName);

    // Consumer pipeline over the sorted buffer.
    PipelineDesc Desc;
    Desc.Src = PipelineDesc::Source::SortedScan;
    Desc.SourceObject = ObjIdx;
    openPipeline(std::move(Desc), [&] {
      ValueId Base = loadSlot(Slot);
      ValueId RowPtr = Bld->gepIndexed(Base, RowIdx, Stride);
      for (const Field &Fd : RowFields) {
        Binding &B = bind({Fd.Name, Binding::Kind::Field});
        B.Base = RowPtr;
        B.Fd = Fd;
      }
      C();
    });
  }

  void emitComparator(const PlanNode &N, const std::vector<Field> &Fields,
                      const std::string &Name) {
    qir::Function *CmpF = Out.Module->createFunction(
        Name, {Type::Ptr, Type::Ptr}, Type::I64);
    Builder CB(CmpF);
    ValueId A = CmpF->paramValue(0);
    ValueId Bp = CmpF->paramValue(1);

    for (const SortKey &SK : N.SortKeys) {
      const Field *Fd = nullptr;
      for (const Field &F2 : Fields)
        if (F2.Name == SK.Column)
          Fd = &F2;
      assert(Fd && "unknown sort key column");

      ValueId AV, BV;
      ValueId Less, Greater;
      if (Fd->Ty == ExprType::Str) {
        AV = CB.load(Type::D128, CB.gep(A, Fd->Off));
        BV = CB.load(Type::D128, CB.gep(Bp, Fd->Off));
        ValueId R = CB.call(Syms.StrCmp, {AV, BV});
        Less = CB.icmp(CmpPred::SLt, R, CB.constInt(Type::I64, 0));
        Greater = CB.icmp(CmpPred::SGt, R, CB.constInt(Type::I64, 0));
      } else if (Fd->Ty == ExprType::Decimal) {
        AV = CB.load(Type::I128, CB.gep(A, Fd->Off));
        BV = CB.load(Type::I128, CB.gep(Bp, Fd->Off));
        Less = CB.icmp(CmpPred::SLt, AV, BV);
        Greater = CB.icmp(CmpPred::SGt, AV, BV);
      } else if (Fd->Ty == ExprType::F64) {
        AV = CB.load(Type::F64, CB.gep(A, Fd->Off));
        BV = CB.load(Type::F64, CB.gep(Bp, Fd->Off));
        Less = CB.fcmp(CmpPred::SLt, AV, BV);
        Greater = CB.fcmp(CmpPred::SGt, AV, BV);
      } else {
        AV = CB.load(Type::I64, CB.gep(A, Fd->Off));
        BV = CB.load(Type::I64, CB.gep(Bp, Fd->Off));
        Less = CB.icmp(CmpPred::SLt, AV, BV);
        Greater = CB.icmp(CmpPred::SGt, AV, BV);
      }
      if (SK.Descending)
        std::swap(Less, Greater);

      BlockId LessBB = CB.createBlock();
      BlockId NotLessBB = CB.createBlock();
      BlockId GreaterBB = CB.createBlock();
      BlockId NextBB = CB.createBlock();
      CB.condBr(Less, LessBB, NotLessBB);
      CB.startBlock(LessBB);
      CB.ret(CB.constInt(Type::I64, -1));
      CB.startBlock(NotLessBB);
      CB.condBr(Greater, GreaterBB, NextBB);
      CB.startBlock(GreaterBB);
      CB.ret(CB.constInt(Type::I64, 1));
      CB.startBlock(NextBB);
    }
    CB.ret(CB.constInt(Type::I64, 0));
    qir::normalizeLayout(*CmpF);
  }

  // --- Output sink ----------------------------------------------------------------

  void emitOutputSink() {
    ValueId OutBuf = loadSlot(0);
    Bld->call(Syms.OutRow, {OutBuf});
    for (const ExprPtr &E : Q.Output) {
      TypedValue V = emitExpr(E.get());
      switch (V.Ty) {
      case ExprType::I64:
        Bld->call(Syms.OutI64, {OutBuf, V.V});
        break;
      case ExprType::Decimal:
        Bld->call(Syms.OutI128, {OutBuf, V.V});
        break;
      case ExprType::Str:
        Bld->call(Syms.OutStr, {OutBuf, V.V});
        break;
      case ExprType::F64: {
        ValueId Bits = Bld->bitcast(Type::I64, V.V);
        Bld->call(Syms.OutF64Bits, {OutBuf, Bits});
        break;
      }
      case ExprType::Bool: {
        ValueId Wide = Bld->zext(Type::I64, V.V);
        Bld->call(Syms.OutI64, {OutBuf, Wide});
        break;
      }
      }
    }
    Bld->br(cont());
  }

  const Query &Q;
  const Catalog &Cat;
  CompiledPlan Out;
  rt::RuntimeSyms Syms;

  std::optional<Builder> Bld;
  qir::Function *F = nullptr;
  ValueId CtxV = 0, RowIdx = 0;
  BlockId LatchBB = 0;
  std::vector<BlockId> ContinueStack;
  /// The current pipeline's column bindings, searched by name. Kept across
  /// pipelines so their storage is reused.
  std::vector<Binding> Env;
  /// The current pipeline's load of each ctx slot, by slot.
  std::vector<ValueId> SlotCache;
  uint32_t NextSlot = 2; ///< 0 = OutputBuffer*, 1 = Arena*.
  int PipelineIdx = -1;
};

} // namespace

CompiledPlan db::compileQuery(const Query &Q, const Catalog &Cat) {
  return QueryCompiler(Q, Cat).run();
}

bool CompiledPlan::matchesCatalog(const Catalog &Cat) const {
  for (const TableRead &R : Reads) {
    if (Cat.find(R.TableName) != R.T || R.T->columns().size() != R.Raw.size())
      return false;
    for (size_t I = 0; I != R.Raw.size(); ++I)
      if (R.T->columns()[I].raw() != R.Raw[I])
        return false;
  }
  return true;
}

namespace {

/// The encoder behind queryKey. Each node writes its kind tag, then
/// exactly the fields compileQuery reads for that kind; strings and
/// lists carry their lengths, so the encoding is injective.
struct QueryEncoder {
  std::string &Out;

  template <typename T> void put(T V) {
    Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
  }
  void str(const std::string &S) {
    put(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }
  void strs(const std::vector<std::string> &V) {
    put(static_cast<uint32_t>(V.size()));
    for (const std::string &S : V)
      str(S);
  }

  void expr(const Expr &E) {
    put(E.K);
    put(E.Ty);
    switch (E.K) {
    case Expr::Kind::ColRef:
      str(E.Name);
      break;
    case Expr::Kind::ConstI64:
      put(E.IntVal);
      break;
    case Expr::Kind::ConstDec:
      put(E.DecVal);
      break;
    case Expr::Kind::ConstStr:
      str(E.StrVal);
      break;
    default:
      break;
    }
    exprs(E.Kids);
  }
  void exprs(const std::vector<ExprPtr> &V) {
    put(static_cast<uint32_t>(V.size()));
    for (const ExprPtr &E : V)
      expr(*E);
  }

  void plan(const PlanNode &N) {
    put(N.K);
    switch (N.K) {
    case PlanNode::Kind::Scan:
      str(N.TableName);
      return;
    case PlanNode::Kind::Filter:
      expr(*N.Pred);
      break;
    case PlanNode::Kind::HashJoin:
      exprs(N.ProbeKeys);
      exprs(N.BuildKeys);
      strs(N.BuildPayload);
      plan(*N.Build);
      break;
    case PlanNode::Kind::Aggregate:
      exprs(N.GroupKeys);
      strs(N.GroupNames);
      put(static_cast<uint32_t>(N.Aggs.size()));
      for (const AggSpec &A : N.Aggs) {
        put(A.Kind);
        str(A.Name);
        put(static_cast<uint8_t>(A.Arg != nullptr));
        if (A.Arg)
          expr(*A.Arg);
      }
      break;
    case PlanNode::Kind::Sort:
      put(static_cast<uint32_t>(N.SortKeys.size()));
      for (const SortKey &K : N.SortKeys) {
        str(K.Column);
        put(static_cast<uint8_t>(K.Descending));
      }
      put(N.Limit);
      break;
    }
    plan(*N.Child);
  }
};

} // namespace

std::shared_ptr<const QueryKey> db::queryKey(const Query &Q) {
  std::shared_ptr<const QueryKey> Memo = Q.KeyMemo.load();
  if (Memo && Memo->describes(Q))
    return Memo;
  auto K = std::make_shared<QueryKey>();
  QueryEncoder Enc{K->Bytes};
  Enc.str(Q.Name);
  Enc.plan(*Q.Root);
  Enc.exprs(Q.Output);
  K->Hash = hashBytes(K->Bytes.data(), K->Bytes.size());
  K->Name = Q.Name;
  K->Root = Q.Root;
  K->Output = Q.Output;
  Q.KeyMemo.store(K);
  return K;
}
