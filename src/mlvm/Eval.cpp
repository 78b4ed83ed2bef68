//===- mlvm/Eval.cpp - MLVM-IR reference evaluator --------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "mlvm/Eval.h"
#include "qir/Semantics.h"
#include <cstring>
#include <unordered_map>
#include <vector>

using namespace qcf;
using namespace qcf::mlvm;

namespace {

using qir::Lanes;

struct PairRet {
  uint64_t Lo, Hi;
};

uint64_t dispatchCall(void *Addr, const uint64_t *S, unsigned N,
                      uint8_t RetKind, uint64_t *HiOut) {
  using U = uint64_t;
  if (RetKind == 2) {
    PairRet R{};
    switch (N) {
    case 1:
      R = reinterpret_cast<PairRet (*)(U)>(Addr)(S[0]);
      break;
    case 2:
      R = reinterpret_cast<PairRet (*)(U, U)>(Addr)(S[0], S[1]);
      break;
    case 3:
      R = reinterpret_cast<PairRet (*)(U, U, U)>(Addr)(S[0], S[1], S[2]);
      break;
    case 4:
      R = reinterpret_cast<PairRet (*)(U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                          S[3]);
      break;
    case 5:
      R = reinterpret_cast<PairRet (*)(U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                             S[3], S[4]);
      break;
    case 6:
      R = reinterpret_cast<PairRet (*)(U, U, U, U, U, U)>(Addr)(
          S[0], S[1], S[2], S[3], S[4], S[5]);
      break;
    default:
      QCF_UNREACHABLE("unsupported pair-returning call arity");
    }
    *HiOut = R.Hi;
    return R.Lo;
  }
  switch (N) {
  case 0:
    return reinterpret_cast<U (*)()>(Addr)();
  case 1:
    return reinterpret_cast<U (*)(U)>(Addr)(S[0]);
  case 2:
    return reinterpret_cast<U (*)(U, U)>(Addr)(S[0], S[1]);
  case 3:
    return reinterpret_cast<U (*)(U, U, U)>(Addr)(S[0], S[1], S[2]);
  case 4:
    return reinterpret_cast<U (*)(U, U, U, U)>(Addr)(S[0], S[1], S[2], S[3]);
  case 5:
    return reinterpret_cast<U (*)(U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                        S[3], S[4]);
  case 6:
    return reinterpret_cast<U (*)(U, U, U, U, U, U)>(Addr)(S[0], S[1], S[2],
                                                           S[3], S[4], S[5]);
  default:
    QCF_UNREACHABLE("unsupported call arity");
  }
}

class Evaluator {
public:
  Evaluator(const MFunction &F, const EvalOptions &Opts) : F(F), Opts(Opts) {}

  EvalResult run(const uint64_t *ArgLanes, size_t NumArgLanes) {
    size_t Lane = 0;
    for (Argument *A : F.Args) {
      Lanes P;
      P.Lo = Lane < NumArgLanes ? ArgLanes[Lane++] : 0;
      if (qir::isTwoLane(A->type()))
        P.Hi = Lane < NumArgLanes ? ArgLanes[Lane++] : 0;
      Env[A] = P;
    }

    const BasicBlock *Cur = F.Blocks.empty() ? nullptr : F.Blocks.front();
    if (!Cur)
      return err("function has no blocks");

    size_t Idx = 0;
    while (R.Error.empty() && !R.Trapped && !Done) {
      if (Idx >= Cur->Insts.size())
        return err("block fell through without a terminator");
      if (Fuel-- == 0)
        return err("evaluation fuel exhausted");
      const Instruction *I = Cur->Insts[Idx];
      if (I->isTerminator()) {
        const BasicBlock *Next = execTerminator(I);
        if (Done || !R.Error.empty() || R.Trapped)
          break;
        transferPhis(Cur, Next);
        Cur = Next;
        Idx = skipPhis(Next);
        continue;
      }
      execInst(I);
      ++Idx;
    }
    return R;
  }

private:
  EvalResult err(std::string Msg) {
    if (R.Error.empty())
      R.Error = std::move(Msg);
    return R;
  }

  void trap(rt::TrapCode Code) {
    R.Trapped = true;
    R.TrapCode = static_cast<uint64_t>(Code);
  }

  Lanes value(const Value *V) {
    switch (V->kind()) {
    case Value::Kind::ConstInt: {
      auto *C = static_cast<const ConstantInt *>(V);
      return {C->Val & qir::typeMask(C->type()), 0};
    }
    case Value::Kind::ConstI128:
      return qir::fromI128(static_cast<const ConstantI128 *>(V)->Val);
    case Value::Kind::ConstF64:
      return {static_cast<const ConstantF64 *>(V)->Bits, 0};
    case Value::Kind::ConstPtr:
      return {static_cast<const ConstantPtr *>(V)->Addr, 0};
    case Value::Kind::Argument:
    case Value::Kind::Inst: {
      auto It = Env.find(V);
      if (It == Env.end()) {
        err("read of a value with no computed result (use before def)");
        return {};
      }
      return It->second;
    }
    }
    QCF_UNREACHABLE("invalid value kind");
  }

  static size_t skipPhis(const BasicBlock *B) {
    size_t Idx = 0;
    while (Idx < B->Insts.size() && B->Insts[Idx]->Op == IROp::Phi)
      ++Idx;
    return Idx;
  }

  /// Parallel phi semantics: read every incoming value for the edge
  /// before committing any of them.
  void transferPhis(const BasicBlock *From, const BasicBlock *To) {
    std::vector<std::pair<const Instruction *, Lanes>> Staged;
    for (const Instruction *I : To->Insts) {
      if (I->Op != IROp::Phi)
        break;
      bool Found = false;
      for (size_t K = 0; K != I->BlockOps.size(); ++K)
        if (I->BlockOps[K] == From) {
          Staged.emplace_back(I, value(I->operand(static_cast<unsigned>(K))));
          Found = true;
          break;
        }
      if (!Found) {
        err("phi has no incoming value for the executed edge");
        return;
      }
    }
    for (auto &[I, V] : Staged)
      setValue(I, V);
  }

  void setValue(const Instruction *I, Lanes V) {
    Env[I] = V;
    if (Opts.KnownZero && R.Error.empty()) {
      uint64_t Claimed = Opts.KnownZero(I);
      if (V.Lo & Claimed)
        err("known-bits violation: " +
            std::string(I->Op == IROp::FreezeNop
                            ? "freeze"
                            : qir::opcodeName(qirOpFor(I->Op))) +
            " produced a set bit claimed zero (value=" +
            std::to_string(V.Lo) + " claimedZero=" +
            std::to_string(Claimed) + ")");
    }
  }

  const BasicBlock *execTerminator(const Instruction *I) {
    switch (I->Op) {
    case IROp::Br:
      return I->BlockOps[0];
    case IROp::CondBr:
      return value(I->operand(0)).Lo & 1 ? I->BlockOps[0] : I->BlockOps[1];
    case IROp::Ret:
      Done = true;
      if (I->numOperands() >= 1) {
        Lanes V = value(I->operand(0));
        R.Lo = V.Lo;
        R.Hi = V.Hi;
      }
      return nullptr;
    case IROp::Unreachable:
      err("reached 'unreachable'");
      return nullptr;
    default:
      err("malformed terminator");
      return nullptr;
    }
  }

  void execInst(const Instruction *I) {
    Type Ty = I->type();
    auto A = [&] { return value(I->operand(0)); };
    auto B = [&] { return value(I->operand(1)); };
    Lanes D;
    switch (I->Op) {
    case IROp::StackSlot: {
      auto It = Slots.find(I);
      if (It == Slots.end())
        It = Slots.emplace(I, std::vector<uint8_t>(I->Imm, 0)).first;
      D.Lo = reinterpret_cast<uint64_t>(It->second.data());
      break;
    }

    case IROp::Select:
      D = value(I->operand(0)).Lo & 1 ? value(I->operand(1))
                                      : value(I->operand(2));
      break;

    case IROp::Load: {
      const void *P = reinterpret_cast<const void *>(A().Lo);
      std::memcpy(&D, P, qir::typeSize(Ty));
      break;
    }
    case IROp::Store: {
      void *P = reinterpret_cast<void *>(A().Lo);
      Lanes V = B();
      std::memcpy(P, &V, qir::typeSize(I->operand(1)->type()));
      return; // no value
    }
    case IROp::Gep: {
      uint64_t Addr = A().Lo + I->Imm;
      if (I->numOperands() >= 2)
        Addr += B().Lo * I->Aux;
      D.Lo = Addr;
      break;
    }
    case IROp::AtomicAdd: {
      if (Ty == Type::I32) {
        auto *P = reinterpret_cast<uint32_t *>(A().Lo);
        D.Lo = __atomic_fetch_add(P, static_cast<uint32_t>(B().Lo),
                                  __ATOMIC_SEQ_CST);
      } else {
        auto *P = reinterpret_cast<uint64_t *>(A().Lo);
        D.Lo = __atomic_fetch_add(P, B().Lo, __ATOMIC_SEQ_CST);
      }
      break;
    }

    case IROp::Call: {
      if (I->Imm >= F.Callees.size()) {
        err("call references an out-of-range callee");
        return;
      }
      const Callee &C = F.Callees[I->Imm];
      uint64_t Slots6[6];
      unsigned N = 0;
      for (unsigned K = 0; K != I->numOperands(); ++K) {
        Lanes V = value(I->operand(K));
        if (N >= 6) {
          err("call exceeds the 6-slot runtime ABI");
          return;
        }
        Slots6[N++] = V.Lo;
        if (qir::isTwoLane(I->operand(K)->type())) {
          if (N >= 6) {
            err("call exceeds the 6-slot runtime ABI");
            return;
          }
          Slots6[N++] = V.Hi;
        }
      }
      uint8_t RetKind = C.RetType == Type::Void ? 0
                        : qir::isTwoLane(C.RetType) ? 2
                                                    : 1;
      uint64_t Hi = 0;
      uint64_t Lo = dispatchCall(C.Address, Slots6, N, RetKind, &Hi);
      if (RetKind == 0)
        return; // no value
      D = {Lo, Hi};
      break;
    }

    case IROp::FreezeNop:
      D = A();
      break;

    default: {
      // Every scalar opcode evaluates through qir/Semantics.h.
      Lanes X = A();
      Lanes Y = I->numOperands() > 1 ? B() : Lanes{};
      rt::TrapCode TC = qir::evalScalar(qirOpFor(I->Op), Ty,
                                        I->operand(0)->type(), I->cmpPred(),
                                        X, Y, D);
      if (TC != rt::TrapCode::None)
        return trap(TC);
      break;
    }

    case IROp::ConstInt:
    case IROp::ConstI128:
    case IROp::ConstF64:
    case IROp::ConstPtr:
    case IROp::Param:
    case IROp::Phi:
    case IROp::Br:
    case IROp::CondBr:
    case IROp::Ret:
    case IROp::Unreachable:
      err("unexpected opcode in instruction position");
      return;
    }
    if (!R.Error.empty() || R.Trapped)
      return;
    setValue(I, D);
  }

  const MFunction &F;
  const EvalOptions &Opts;
  std::unordered_map<const Value *, Lanes> Env;
  std::unordered_map<const Instruction *, std::vector<uint8_t>> Slots;
  EvalResult R;
  uint64_t Fuel = 0;
  bool Done = false;

public:
  void setFuel(uint64_t N) { Fuel = N; }
};

} // namespace

EvalResult mlvm::evalFunction(const MFunction &F, const uint64_t *ArgLanes,
                              size_t NumArgLanes, const EvalOptions &Opts) {
  Evaluator E(F, Opts);
  E.setFuel(Opts.Fuel ? Opts.Fuel : 1u << 20);
  return E.run(ArgLanes, NumArgLanes);
}
