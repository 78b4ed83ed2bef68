//===- tests/PropertyTest.cpp - Randomized differential tests --------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based testing: for random QIR functions and random inputs,
/// every back-end must reproduce the interpreter's results and traps
/// exactly. Parameterized over generator seeds.
///
//===----------------------------------------------------------------------===//

#include "direct/DirectEmit.h"
#include "interp/Interp.h"
#include "qir/Semantics.h"
#include "tests/DiffHarness.h"
#include "tests/RandomQir.h"
#include <cstring>
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::test;

/// Compares one back-end against the interpreter on one random module.
void qcf::test::runRandomDifferentialFor(backend::Backend &BE,
                                         uint64_t Seed) {
  qir::Module M;
  Rng R(Seed);
  RandomFnBuilder Gen(M, R);
  constexpr unsigned FnsPerModule = 4;
  for (unsigned I = 0; I != FnsPerModule; ++I)
    Gen.build("rand" + std::to_string(I));
  auto Err = qir::verify(M);
  ASSERT_EQ(Err, std::nullopt) << "seed " << Seed << ": " << Err.value_or("");

  interp::InterpBackend Baseline;
  auto Ref = Baseline.compile(M);
  auto Got = BE.compile(M);

  Rng InputRng(Seed ^ 0xabcdef);
  for (unsigned I = 0; I != FnsPerModule; ++I) {
    std::string Name = "rand" + std::to_string(I);
    void *RefEntry = Ref->entry(Name);
    void *GotEntry = Got->entry(Name);
    ASSERT_NE(GotEntry, nullptr);
    for (unsigned K = 0; K != 8; ++K) {
      std::vector<uint64_t> Args = {InputRng.next(), InputRng.next()};
      if (K == 0)
        Args = {0, 0};
      if (K == 1)
        Args = {~0ull, 1};
      CaseOutcome Expected = invokeEntry(RefEntry, Args);
      CaseOutcome Actual = invokeEntry(GotEntry, Args);
      ASSERT_EQ(Expected.Trapped, Actual.Trapped)
          << Name << " seed=" << Seed << " args=(" << Args[0] << ","
          << Args[1] << ")";
      if (!Expected.Trapped)
        ASSERT_EQ(Expected.Lo, Actual.Lo)
            << Name << " seed=" << Seed << " args=(" << Args[0] << ","
            << Args[1] << ")";
    }
  }
}

namespace {
class DirectProperty : public ::testing::TestWithParam<uint64_t> {};
} // namespace

TEST_P(DirectProperty, MatchesInterpreterOnRandomFunctions) {
  direct::DirectBackend B;
  runRandomDifferentialFor(B, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectProperty,
                         ::testing::Range<uint64_t>(0, 40));

namespace {

/// The interpreter's own reference: runs \p F on \p Args by walking its
/// QIR, every scalar evaluated through qir::evalScalar and nothing through
/// the bytecode. \returns the trap raised, or the result's low lane.
std::pair<rt::TrapCode, uint64_t> walkQir(const qir::Function &F,
                                          const std::vector<uint64_t> &Args) {
  using qir::Opcode;
  std::vector<qir::Lanes> V(F.numInsts());
  std::vector<std::vector<uint8_t>> Slots;
  std::vector<qir::Lanes> PhiVals;
  qir::BlockId Prev = qir::INVALID_BLOCK, Cur = 0;
  for (;;) {
    const qir::Block &Blk = F.block(Cur);
    // A block's phis read their incomings all at once.
    uint32_t I = Blk.Begin;
    PhiVals.clear();
    for (; I != Blk.End && F.Insts[I].Op == Opcode::Phi; ++I)
      for (unsigned K = 0; K != F.numPhiIncomings(F.Insts[I]); ++K)
        if (F.phiIncomings(F.Insts[I])[K].Pred == Prev)
          PhiVals.push_back(V[F.phiIncomings(F.Insts[I])[K].Val]);
    std::copy(PhiVals.begin(), PhiVals.end(), V.begin() + Blk.Begin);
    for (; I != Blk.End; ++I) {
      const qir::Inst &Ins = F.Insts[I];
      switch (Ins.Op) {
      case Opcode::Param:
        V[I] = {Args[Ins.A], 0};
        break;
      case Opcode::ConstInt:
        V[I] = {Ins.Imm & qir::typeMask(Ins.Ty), 0};
        break;
      case Opcode::ConstI128:
        V[I] = qir::fromI128(F.I128Pool[Ins.A]);
        break;
      case Opcode::ConstF64:
      case Opcode::ConstPtr:
        V[I] = {Ins.Imm, 0};
        break;
      case Opcode::StackSlot:
        Slots.emplace_back(Ins.Imm);
        V[I] = {reinterpret_cast<uint64_t>(Slots.back().data()), 0};
        break;
      case Opcode::Load:
        V[I] = {};
        std::memcpy(static_cast<void *>(&V[I]),
                    reinterpret_cast<void *>(V[Ins.A].Lo),
                    qir::typeSize(Ins.Ty));
        break;
      case Opcode::Store:
        std::memcpy(reinterpret_cast<void *>(V[Ins.A].Lo), &V[Ins.B],
                    qir::typeSize(Ins.Ty));
        break;
      case Opcode::Gep:
        V[I] = {V[Ins.A].Lo + Ins.Imm +
                    (Ins.B == qir::INVALID_VALUE ? 0 : V[Ins.B].Lo * Ins.C),
                0};
        break;
      case Opcode::AtomicAdd: {
        void *P = reinterpret_cast<void *>(V[Ins.A].Lo);
        uint64_t Old = 0;
        std::memcpy(&Old, P, qir::typeSize(Ins.Ty));
        uint64_t New = Old + V[Ins.B].Lo;
        std::memcpy(P, &New, qir::typeSize(Ins.Ty));
        V[I] = {Old, 0};
        break;
      }
      case Opcode::Select:
        V[I] = V[Ins.A].Lo & 1 ? V[Ins.B] : V[Ins.C];
        break;
      case Opcode::Call: {
        // The generator calls only two-argument, one-lane helpers.
        EXPECT_EQ(F.numCallArgs(Ins), 2u);
        const qir::ValueId *A = F.callArgs(Ins);
        auto *Fn = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(
            F.parent()->symbol(F.callee(Ins)).Address);
        V[I] = {Fn(V[A[0]].Lo, V[A[1]].Lo), 0};
        break;
      }
      case Opcode::Br:
      case Opcode::CondBr:
        Prev = Cur;
        Cur = Ins.Op == Opcode::Br ? Ins.A
              : V[Ins.A].Lo & 1    ? Ins.B
                                   : Ins.C;
        break;
      case Opcode::Ret:
        return {rt::TrapCode::None, V[Ins.A].Lo};
      case Opcode::Phi:
      case Opcode::Unreachable:
        ADD_FAILURE() << "unexpected " << qir::opcodeName(Ins.Op);
        return {rt::TrapCode::None, 0};
      default: {
        qir::Lanes B =
            qir::numValueOperands(Ins.Op) == 2 ? V[Ins.B] : qir::Lanes{};
        if (rt::TrapCode TC = qir::evalScalar(Ins.Op, Ins.Ty,
                                              F.valueType(Ins.A),
                                              Ins.cmpPred(), V[Ins.A], B, V[I]);
            TC != rt::TrapCode::None)
          return {TC, 0};
        break;
      }
      }
    }
  }
}

class InterpOracle : public ::testing::TestWithParam<uint64_t> {};

} // namespace

/// The interpreter is the oracle every back-end is checked against; here it
/// is checked itself, against the QIR walk above, on random functions and
/// inputs: the same result lane, or the same trap. Each instance covers
/// 100 generator seeds.
TEST_P(InterpOracle, MatchesQirWalkOnRandomFunctions) {
  constexpr unsigned FnsPerModule = 4;
  for (uint64_t Seed = GetParam() * 100; Seed != GetParam() * 100 + 100;
       ++Seed) {
    qir::Module M;
    Rng R(Seed);
    RandomFnBuilder Gen(M, R);
    for (unsigned I = 0; I != FnsPerModule; ++I)
      Gen.build("rand" + std::to_string(I));
    ASSERT_EQ(qir::verify(M), std::nullopt) << "seed " << Seed;
    auto Compiled = interp::InterpBackend().compile(M);

    Rng InputRng(Seed ^ 0x5eed);
    for (unsigned I = 0; I != FnsPerModule; ++I) {
      const qir::Function &F = *M.functions()[I];
      auto *Fn = Compiled->entryAs<uint64_t (*)(uint64_t, uint64_t)>(F.name());
      for (unsigned K = 0; K != 8; ++K) {
        std::vector<uint64_t> Args = {InputRng.next(), InputRng.next()};
        if (K == 0)
          Args = {0, 0};
        if (K == 1)
          Args = {~0ull, 1};
        uint64_t Got = 0;
        rt::TrapCode Trap =
            rt::runWithTrapGuard([&] { Got = Fn(Args[0], Args[1]); });
        auto [WantTrap, Want] = walkQir(F, Args);
        ASSERT_EQ(Trap, WantTrap) << F.name() << " seed=" << Seed << " args=("
                                  << Args[0] << "," << Args[1] << ")";
        if (Trap == rt::TrapCode::None)
          ASSERT_EQ(Got, Want) << F.name() << " seed=" << Seed << " args=("
                               << Args[0] << "," << Args[1] << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpOracle,
                         ::testing::Range<uint64_t>(0, 20));
