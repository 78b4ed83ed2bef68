//===- tests/VerifierTest.cpp - Verification-layer mutation tests ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
//
// Mutation tests for the machine-level verification suite: every check of
// the MIR verifier, the x64 encoding lint, the QIR verifier additions, and
// the known-bits differential oracle must fire on at least one hand-built
// corrupted input — a verifier whose checks never fire is indistinguishable
// from one that checks nothing. Positive tests run the same layers over
// well-formed and randomly generated inputs across every back-end.
//
//===----------------------------------------------------------------------===//

#include "craneline/Craneline.h"
#include "direct/DirectEmit.h"
#include "interp/Interp.h"
#include "mlvm/Eval.h"
#include "mlvm/Isel.h"
#include "mlvm/KnownBits.h"
#include "mlvm/MirVerify.h"
#include "mlvm/Mlvm.h"
#include "mlvm/Translate.h"
#include "qir/Builder.h"
#include "qir/Verify.h"
#include "runtime/Runtime.h"
#include "tests/DiffHarness.h"
#include "tests/RandomQir.h"
#include "x64/Asm.h"
#include "x64/Decode.h"
#include <gtest/gtest.h>

using namespace qcf;
using namespace qcf::mlvm;
using x64::Reg;

namespace {

// --- MIR builder helpers ---------------------------------------------------

MachineInstr *mk(MachineBasicBlock *B, MOpc Opc,
                 std::initializer_list<MOperand> Ops) {
  MemPool &Pool = B->Pool ? *B->Pool : MemPool::defaultHeap();
  auto *I = Pool.create<MachineInstr>(Opc, Pool);
  for (MOperand Op : Ops)
    I->addOperand(Op);
  B->Insts.push_back(I);
  return I;
}

MOperand def(MReg R) { return MOperand::def(R); }
MOperand use(MReg R) { return MOperand::use(R); }
MOperand mbb(uint32_t B) { return MOperand::mbb(B); }

/// A minimal well-formed allocated-stage function: mov rax, 7; ret.
std::unique_ptr<MirFunction> allocatedStub() {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "stub";
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(pgp(Reg::RAX))})->Imm = 7;
  mk(B0, MOpc::RET, {});
  return MF;
}

/// A minimal well-formed SSA-stage function with one vreg.
std::unique_ptr<MirFunction> ssaStub() {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "stub";
  MReg V0 = MF->newVReg(MRegClass::Int);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(V0)})->Imm = 7;
  mk(B0, MOpc::RET, {});
  return MF;
}

// --- MIR verifier: positives -----------------------------------------------

TEST(MirVerifier, AcceptsMinimalAllocatedFunction) {
  auto MF = allocatedStub();
  EXPECT_EQ(verifyMir(*MF, MirStage::Final, "test"), "");
  EXPECT_EQ(verifyMir(*MF, MirStage::Allocated, "test"), "");
}

TEST(MirVerifier, AcceptsMinimalSsaFunction) {
  auto MF = ssaStub();
  EXPECT_EQ(verifyMir(*MF, MirStage::Ssa, "test"), "");
}

TEST(MirVerifier, AcceptsDiamondWithPhi) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "diamond";
  MReg V0 = MF->newVReg(MRegClass::Int);
  MReg V1 = MF->newVReg(MRegClass::Int);
  MReg V2 = MF->newVReg(MRegClass::Int);
  MReg V3 = MF->newVReg(MRegClass::Int);
  auto *B0 = MF->createBlock();
  auto *B1 = MF->createBlock();
  auto *B2 = MF->createBlock();
  auto *B3 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(V0)})->Imm = 1;
  mk(B0, MOpc::JCC, {mbb(1)});
  mk(B0, MOpc::JMP, {mbb(2)});
  B0->Succs = {1, 2};
  mk(B1, MOpc::MOVRI, {def(V1)})->Imm = 2;
  mk(B1, MOpc::JMP, {mbb(3)});
  B1->Succs = {3};
  mk(B2, MOpc::MOVRI, {def(V2)})->Imm = 3;
  mk(B2, MOpc::JMP, {mbb(3)});
  B2->Succs = {3};
  mk(B3, MOpc::PHI, {def(V3), use(V1), mbb(1), use(V2), mbb(2)});
  mk(B3, MOpc::RET, {});
  EXPECT_EQ(verifyMir(*MF, MirStage::Ssa, "test"), "");
}

// --- MIR verifier: block structure mutations --------------------------------

TEST(MirVerifier, RejectsBlockIdMismatch) {
  auto MF = allocatedStub();
  MF->Blocks[0]->Id = 5;
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("block id does not match layout index"),
            std::string::npos);
}

TEST(MirVerifier, RejectsEmptyBlock) {
  auto MF = allocatedStub();
  MF->createBlock(); // trailing empty block
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test").find("empty block"),
            std::string::npos);
}

TEST(MirVerifier, RejectsInstructionAfterTerminator) {
  auto MF = allocatedStub();
  mk(MF->Blocks[0].get(), MOpc::MOVRI, {def(pgp(Reg::RAX))});
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("instruction after the block terminator"),
            std::string::npos);
}

TEST(MirVerifier, RejectsMissingTerminator) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts.back());
  Insts.pop_back();
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("does not end in JMP/RET/UD2"),
            std::string::npos);
}

TEST(MirVerifier, RejectsBranchTargetMissingFromSuccessors) {
  auto MF = allocatedStub();
  auto *B1 = MF->createBlock();
  mk(B1, MOpc::RET, {});
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts.back());
  Insts.pop_back();
  mk(MF->Blocks[0].get(), MOpc::JMP, {mbb(1)});
  // Succs deliberately left empty.
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("branch target bb1 missing from the successor list"),
            std::string::npos);
}

TEST(MirVerifier, RejectsSuccessorWithoutBranch) {
  auto MF = allocatedStub();
  auto *B1 = MF->createBlock();
  mk(B1, MOpc::RET, {});
  MF->Blocks[0]->Succs = {1}; // but block 0 ends in RET, no branch
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("successor bb1 has no branch targeting it"),
            std::string::npos);
}

TEST(MirVerifier, RejectsBranchTargetOutOfRange) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts.back());
  Insts.pop_back();
  mk(MF->Blocks[0].get(), MOpc::JMP, {mbb(9)});
  MF->Blocks[0]->Succs = {9};
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("block operand bb9 out of range"),
            std::string::npos);
}

// --- MIR verifier: stage-gated opcodes ---------------------------------------

TEST(MirVerifier, RejectsGenericOpcodeAfterIsel) {
  auto MF = ssaStub();
  auto &Insts = MF->Blocks[0]->Insts;
  Insts[0]->Opc = MOpc::G_CONSTANT;
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("generic opcode after instruction selection"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiAfterPhiElimination) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MReg V0 = MF->newVReg(MRegClass::Int);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::PHI, {def(V0)}); // malformed too, but stage check fires first
  mk(B0, MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::NoPhi, "test")
                .find("PHI survived PHI elimination"),
            std::string::npos);
}

TEST(MirVerifier, RejectsThreeAddressFormAfterTwoAddress) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts.back());
  Insts.pop_back();
  mk(MF->Blocks[0].get(), MOpc::ALU3,
     {def(pgp(Reg::RAX)), use(pgp(Reg::RCX)), use(pgp(Reg::RDX))});
  mk(MF->Blocks[0].get(), MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::TwoAddr, "test")
                .find("three-address form survived two-address rewriting"),
            std::string::npos);
}

TEST(MirVerifier, RejectsStackAddrFrameIndexOutOfRange) {
  auto MF = ssaStub();
  auto &Insts = MF->Blocks[0]->Insts;
  Insts[0]->Opc = MOpc::STACKADDR;
  Insts[0]->Imm = 3; // no frame objects exist
  EXPECT_NE(
      verifyMir(*MF, MirStage::Ssa, "test").find("frame index 3 out of range"),
      std::string::npos);
}

TEST(MirVerifier, RejectsStackAddrAfterPrologEpilog) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->addFrameObject(8);
  Insts[0]->Opc = MOpc::STACKADDR;
  Insts[0]->Imm = 0;
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("STACKADDR survived prologue/epilogue insertion"),
            std::string::npos);
}

// --- MIR verifier: PHI shape mutations ---------------------------------------

std::unique_ptr<MirFunction> phiDiamond() {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "diamond";
  for (int I = 0; I != 4; ++I)
    MF->newVReg(MRegClass::Int);
  auto *B0 = MF->createBlock();
  auto *B1 = MF->createBlock();
  auto *B2 = MF->createBlock();
  auto *B3 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(MREG_VBASE + 0)})->Imm = 1;
  mk(B0, MOpc::JCC, {mbb(1)});
  mk(B0, MOpc::JMP, {mbb(2)});
  B0->Succs = {1, 2};
  mk(B1, MOpc::MOVRI, {def(MREG_VBASE + 1)})->Imm = 2;
  mk(B1, MOpc::JMP, {mbb(3)});
  B1->Succs = {3};
  mk(B2, MOpc::MOVRI, {def(MREG_VBASE + 2)})->Imm = 3;
  mk(B2, MOpc::JMP, {mbb(3)});
  B2->Succs = {3};
  mk(B3, MOpc::PHI,
     {def(MREG_VBASE + 3), use(MREG_VBASE + 1), mbb(1), use(MREG_VBASE + 2),
      mbb(2)});
  mk(B3, MOpc::RET, {});
  return MF;
}

TEST(MirVerifier, RejectsDroppedPhiEdge) {
  auto MF = phiDiamond();
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands.resize(3); // drop the (v2, bb2) incoming pair
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI is missing an incoming value for predecessor bb2"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiNamingNonPredecessor) {
  auto MF = phiDiamond();
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands[4].Mbb = 0; // bb0 is not a predecessor of bb3
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI names bb0 which is not a predecessor"),
            std::string::npos);
}

TEST(MirVerifier, RejectsDuplicatePhiPredecessor) {
  auto MF = phiDiamond();
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands[4].Mbb = 1; // bb1 named twice
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("duplicate PHI predecessor bb1"),
            std::string::npos);
}

TEST(MirVerifier, RejectsEvenPhiOperandCount) {
  auto MF = phiDiamond();
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands.resize(4); // def + use + mbb + use: pairs broken
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI operand count must be odd"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiWithSwappedOperandPair) {
  auto MF = phiDiamond();
  auto *Phi = MF->Blocks[3]->Insts[0];
  std::swap(Phi->Operands[1], Phi->Operands[2]); // (bb, use) instead of (use, bb)
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI operands must be (use, block) pairs"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiNotAtBlockStart) {
  auto MF = phiDiamond();
  auto &Insts = MF->Blocks[3]->Insts;
  auto *Extra = MF->createInstr(MOpc::MOVRI);
  Extra->addOperand(def(MREG_VBASE + 0));
  Insts.insert(Insts.begin(), Extra); // PHI is now second
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI not at the start of its block"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiMixingRegisterClasses) {
  auto MF = phiDiamond();
  MF->VRegClass[3] = MRegClass::Float; // PHI def disagrees with the lanes
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("PHI mixes register classes"),
            std::string::npos);
}

// --- MIR verifier: operand shape and class mutations -------------------------

TEST(MirVerifier, RejectsVRegOutOfRange) {
  auto MF = ssaStub();
  MF->Blocks[0]->Insts[0]->Operands[0].Reg = MREG_VBASE + 99;
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("virtual register v99 out of range"),
            std::string::npos);
}

TEST(MirVerifier, RejectsVRegSurvivingRegAlloc) {
  auto MF = allocatedStub();
  MF->newVReg(MRegClass::Int);
  MF->Blocks[0]->Insts[0]->Operands[0].Reg = MREG_VBASE + 0;
  EXPECT_NE(verifyMir(*MF, MirStage::Allocated, "test")
                .find("virtual register v0 survived register allocation"),
            std::string::npos);
}

TEST(MirVerifier, RejectsMalformedRegisterEncoding) {
  auto MF = allocatedStub();
  MF->Blocks[0]->Insts[0]->Operands[0].Reg = 20; // between GP and XMM ranges
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("malformed register operand"),
            std::string::npos);
}

TEST(MirVerifier, RejectsStraySpillMarker) {
  auto MF = ssaStub();
  MF->Blocks[0]->Insts[0]->Operands[0].Reg = MLVM_SPILL_MARKER;
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("stray spill marker operand"),
            std::string::npos);
}

TEST(MirVerifier, RejectsSpillSlotOutOfBounds) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts[0]);
  auto *Load = MF->createInstr(MOpc::LOADZX);
  Load->addOperand(def(pgp(Reg::RAX)));
  Load->addOperand(use(MLVM_SPILL_MARKER));
  Load->Disp = 2; // only 2 slots [0,2) exist
  Insts[0] = Load;
  EXPECT_NE(verifyMir(*MF, MirStage::Allocated, "test", /*NumSpillSlots=*/2)
                .find("spill slot 2 out of range"),
            std::string::npos);
  Load->Disp = 1;
  EXPECT_EQ(verifyMir(*MF, MirStage::Allocated, "test", /*NumSpillSlots=*/2),
            "");
}

TEST(MirVerifier, RejectsSwappedFStoreOperands) {
  // FSTORE expects (value: xmm, base: gp); swapping them must fire the
  // register-class check.
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts[0]);
  auto *St = MF->createInstr(MOpc::FSTORE);
  St->addOperand(use(pgp(Reg::RAX)));  // swapped: gp in the xmm slot
  St->addOperand(use(pxmm(x64::Xmm::XMM0)));
  Insts[0] = St;
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("has register class Int, expected Float"),
            std::string::npos);
}

TEST(MirVerifier, RejectsCopyMixingRegisterClasses) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MReg VI = MF->newVReg(MRegClass::Int);
  MReg VF = MF->newVReg(MRegClass::Float);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(VI)})->Imm = 1;
  mk(B0, MOpc::COPY, {def(VF), use(VI)});
  mk(B0, MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("COPY mixes register classes"),
            std::string::npos);
}

// --- MIR verifier: two-address tie constraints -------------------------------

TEST(MirVerifier, RejectsViolatedTieConstraint) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts[0]);
  auto *Alu = MF->createInstr(MOpc::ALU2);
  Alu->addOperand(def(pgp(Reg::RAX)));
  Alu->addOperand(use(pgp(Reg::RCX))); // must be tied to the def
  Alu->addOperand(use(pgp(Reg::RDX)));
  Insts[0] = Alu;
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("tie constraint violated: def gp0 != use gp1"),
            std::string::npos);
  // Restoring the tie makes it pass again... almost: RCX/RDX are unwritten
  // but physical uses are not def-checked, so this is clean.
  Alu->Operands[1].Reg = pgp(Reg::RAX);
  EXPECT_EQ(verifyMir(*MF, MirStage::Final, "test"), "");
}

TEST(MirVerifier, RejectsTwoAddressWithoutTiedPair) {
  auto MF = allocatedStub();
  auto &Insts = MF->Blocks[0]->Insts;
  MF->destroyInstr(Insts[0]);
  auto *Alu = MF->createInstr(MOpc::ALU2);
  Alu->addOperand(def(pgp(Reg::RAX))); // missing the tied use
  Insts[0] = Alu;
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("lacks tied def/use operand pair"),
            std::string::npos);
}

// --- MIR verifier: def-before-use dataflow -----------------------------------

TEST(MirVerifier, RejectsUseBeforeDef) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MReg V0 = MF->newVReg(MRegClass::Int);
  MReg V1 = MF->newVReg(MRegClass::Int);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::COPY, {def(V1), use(V0)}); // v0 never defined
  mk(B0, MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("use of v0 before any definition reaches it"),
            std::string::npos);
}

TEST(MirVerifier, RejectsUseDefinedOnOnlyOnePath) {
  // v1 is defined in bb1 but not bb2; a use after the join must fail the
  // must-be-defined intersection.
  auto MF = phiDiamond();
  auto &Insts = MF->Blocks[2]->Insts;
  MF->destroyInstr(Insts[0]); // remove bb2's def of v2
  Insts.erase(Insts.begin());
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands[3].Reg = MREG_VBASE + 1; // phi now reads v1 on both edges
  Phi->Operands[3].K = MOperand::Kind::RegUse;
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("not defined on the edge from bb2"),
            std::string::npos);
}

TEST(MirVerifier, RejectsPhiReadingUndefinedValueOnEdge) {
  auto MF = phiDiamond();
  MReg V9 = MF->newVReg(MRegClass::Int);
  auto *Phi = MF->Blocks[3]->Insts[0];
  Phi->Operands[1].Reg = V9; // never defined anywhere
  EXPECT_NE(verifyMir(*MF, MirStage::Ssa, "test")
                .find("not defined on the edge from bb1"),
            std::string::npos);
}

// --- MIR verifier: call clobbers ---------------------------------------------

std::unique_ptr<MirFunction> callStub(Reg LiveAcross) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MF->addCallee("rt_test", nullptr);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(pgp(LiveAcross))})->Imm = 1;
  auto *Call = mk(B0, MOpc::CALL, {});
  Call->Imm = 0;
  Call->Aux = 0;
  mk(B0, MOpc::TEST, {use(pgp(LiveAcross)), use(pgp(LiveAcross))});
  mk(B0, MOpc::RET, {});
  return MF;
}

TEST(MirVerifier, RejectsCallerSavedRegisterLiveAcrossCall) {
  auto MF = callStub(Reg::RCX);
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("clobbered by an earlier call"),
            std::string::npos);
}

TEST(MirVerifier, AcceptsCalleeSavedRegisterLiveAcrossCall) {
  auto MF = callStub(Reg::RBX);
  EXPECT_EQ(verifyMir(*MF, MirStage::Final, "test"), "");
}

TEST(MirVerifier, AcceptsReturnRegisterReadAfterCall) {
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MF->addCallee("rt_test", nullptr);
  auto *B0 = MF->createBlock();
  auto *Call = mk(B0, MOpc::CALL, {});
  Call->Imm = 0;
  mk(B0, MOpc::TEST, {use(pgp(Reg::RAX)), use(pgp(Reg::RAX))});
  mk(B0, MOpc::RET, {});
  EXPECT_EQ(verifyMir(*MF, MirStage::Final, "test"), "");
}

TEST(MirVerifier, RejectsClobberedRegisterReadInLaterBlock) {
  // The dirty-register state must propagate across the CFG, not just
  // within one block.
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MF->addCallee("rt_test", nullptr);
  auto *B0 = MF->createBlock();
  auto *B1 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(pgp(Reg::RSI))})->Imm = 1;
  auto *Call = mk(B0, MOpc::CALL, {});
  Call->Imm = 0;
  mk(B0, MOpc::JMP, {mbb(1)});
  B0->Succs = {1};
  mk(B1, MOpc::TEST, {use(pgp(Reg::RSI)), use(pgp(Reg::RSI))});
  mk(B1, MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("clobbered by an earlier call"),
            std::string::npos);
}

TEST(MirVerifier, RejectsImplicitShiftAmountClobberedByCall) {
  // SHIFT2C implicitly reads CL; a call between setting RCX and the shift
  // clobbers it.
  auto MF = std::make_unique<MirFunction>();
  MF->Name = "f";
  MF->addCallee("rt_test", nullptr);
  auto *B0 = MF->createBlock();
  mk(B0, MOpc::MOVRI, {def(pgp(Reg::RCX))})->Imm = 3;
  auto *Call = mk(B0, MOpc::CALL, {});
  Call->Imm = 0;
  auto *Sh = mk(B0, MOpc::SHIFT2C, {def(pgp(Reg::RAX)), use(pgp(Reg::RAX))});
  (void)Sh;
  mk(B0, MOpc::RET, {});
  EXPECT_NE(verifyMir(*MF, MirStage::Final, "test")
                .find("clobbered by an earlier call"),
            std::string::npos);
}

TEST(MirVerifier, DieAbortsWithDiagnostic) {
  auto MF = allocatedStub();
  MF->Blocks[0]->Id = 5;
  EXPECT_DEATH(verifyMirOrDie(*MF, MirStage::Final, "test"),
               "block id does not match layout index");
}

// --- x64 encoding lint --------------------------------------------------------

/// The `mc` verifier's lint: decodeFunction's diagnostic ("" when clean).
static std::string lint(const std::vector<uint8_t> &Code,
                        const std::vector<x64::DecodeReloc> &Relocs = {}) {
  return x64::decodeFunction(Code.data(), Code.size(), Relocs).Error;
}

TEST(EncodingLint, AcceptsAssemblerOutput) {
  x64::Assembler A;
  A.movRI(Reg::RAX, 0x123456789abcdef0ull);
  A.aluRR(x64::Assembler::Alu::Add, x64::Width::W64, Reg::RAX, Reg::RCX);
  x64::Label L = A.newLabel();
  A.jcc(x64::Cond::E, L);
  A.aluRI(x64::Assembler::Alu::Sub, x64::Width::W32, Reg::RDX, 42);
  A.bind(L);
  A.ret();
  A.finalize();
  EXPECT_EQ(lint(A.code()), "");
}

TEST(EncodingLint, RejectsGarbageByte) {
  std::vector<uint8_t> Code = {0x06, 0xc3}; // 0x06 is not a valid opcode
  std::string Err = lint(Code);
  EXPECT_NE(Err.find("offset 0"), std::string::npos);
  EXPECT_NE(Err.find("unknown opcode byte"), std::string::npos);
  EXPECT_DEATH(x64::lintOrDie(Code.data(), Code.size(), {}, "f", "mlvm"),
               "in function 'f'.*machine-code lint failed \\(mlvm\\)");
}

TEST(EncodingLint, RejectsTruncatedInstruction) {
  std::vector<uint8_t> Code = {0xc3, 0x48}; // trailing lone REX prefix
  EXPECT_NE(lint(Code).find("truncated"), std::string::npos);
}

TEST(EncodingLint, RejectsOffByOneJumpTarget) {
  // jmp +1 lands in the middle of the following 3-byte mov.
  std::vector<uint8_t> Code = {0xe9, 0x01, 0x00, 0x00, 0x00, // jmp .+1
                               0x48, 0x89, 0xc0,             // mov rax, rax
                               0xc3};                        // ret
  std::string Err = lint(Code);
  EXPECT_NE(Err.find("targets offset 6"), std::string::npos);
  EXPECT_NE(Err.find("not an instruction start"), std::string::npos);
  Code[1] = 0x03; // jmp .+3 → offset 8, the ret: a valid boundary
  EXPECT_EQ(lint(Code), "");
}

TEST(EncodingLint, RejectsJumpBeyondFunctionEnd) {
  std::vector<uint8_t> Code = {0xe9, 0x10, 0x00, 0x00, 0x00, 0xc3};
  EXPECT_NE(lint(Code).find("not an instruction start"), std::string::npos);
}

TEST(EncodingLint, CallRel32RequiresRelocOrValidTarget) {
  std::vector<uint8_t> Code = {0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3};
  // call .+0 targets offset 5: fine. call into nowhere without a reloc
  // must fail; with a covering reloc it is a linker-patched callee.
  Code[1] = 0x20;
  EXPECT_NE(lint(Code).find("not an instruction start"), std::string::npos);
  EXPECT_EQ(lint(Code, {{1, 4}}), "");
}

TEST(EncodingLint, RejectsRelocationAtOpcodeByte) {
  std::vector<uint8_t> Code = {0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3};
  std::string Err = lint(Code, {{0, 4}});
  EXPECT_NE(Err.find("does not lie inside one instruction's payload"),
            std::string::npos);
}

TEST(EncodingLint, RejectsRelocationStraddlingInstructions) {
  std::vector<uint8_t> Code = {0xe8, 0x00, 0x00, 0x00, 0x00, 0xc3};
  std::string Err = lint(Code, {{3, 4}});
  EXPECT_NE(Err.find("does not lie inside one instruction's payload"),
            std::string::npos);
}

// --- QIR verifier additions ----------------------------------------------------

TEST(QirVerifier, RejectsAtomicAddValueTypeMismatch) {
  qir::Module M;
  qir::Function *F =
      M.createFunction("f", {qir::Type::I64}, qir::Type::I64);
  qir::Builder B(F);
  auto Slot = B.stackSlot(8);
  auto V32 = B.trunc(qir::Type::I32, F->paramValue(0));
  auto A = B.atomicAdd(Slot, V32);
  F->inst(A).Ty = qir::Type::I64; // now disagrees with the i32 operand
  B.ret(A);
  auto Err = qir::verify(M);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("atomicadd operand type mismatch"), std::string::npos);
  EXPECT_DEATH(qir::verifyOrDie(M, "direct"),
               "mismatch.*QIR verification failed \\(direct\\)");
}

TEST(QirVerifier, RejectsRotrOnI128) {
  qir::Module M;
  qir::Function *F =
      M.createFunction("f", {qir::Type::I64}, qir::Type::I64);
  qir::Builder B(F);
  auto Wide = B.sext(qir::Type::I128, F->paramValue(0));
  auto R = B.rotr(Wide, F->paramValue(0));
  B.ret(B.trunc(qir::Type::I64, R));
  auto Err = qir::verify(M);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("rotr is not defined for i128"), std::string::npos);
}

TEST(QirVerifier, RejectsCallExceedingAbiSlots) {
  qir::Module M;
  qir::SymbolId Big = M.declareRuntime(
      "rt_big", qir::Type::I64,
      {qir::Type::I128, qir::Type::I128, qir::Type::I128, qir::Type::I128},
      nullptr);
  qir::Function *F =
      M.createFunction("f", {qir::Type::I64}, qir::Type::I64);
  qir::Builder B(F);
  auto W = B.sext(qir::Type::I128, F->paramValue(0));
  auto R = B.call(Big, {W, W, W, W}); // 8 lanes > 6 ABI slots
  B.ret(R);
  auto Err = qir::verify(M);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("exceeds the 6 argument slots"), std::string::npos);
}

TEST(QirVerifier, RejectsCallWithVoidParameter) {
  qir::Module M;
  qir::SymbolId Sym =
      M.declareRuntime("rt_bad", qir::Type::I64, {qir::Type::I64}, nullptr);
  qir::Function *F =
      M.createFunction("f", {qir::Type::I64}, qir::Type::I64);
  qir::Builder B(F);
  auto R = B.call(Sym, {F->paramValue(0)});
  B.ret(R);
  // The builder refuses to construct this directly; corrupt the signature.
  M.symbol(Sym).ParamTypes[0] = qir::Type::Void;
  auto Err = qir::verify(M);
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("call parameter of void type"), std::string::npos);
}

// --- Known-bits differential oracle ---------------------------------------------

TEST(KnownBitsOracle, FiresOnLyingAnalysis) {
  qir::Module M;
  qir::Function *F = M.createFunction(
      "f", {qir::Type::I64, qir::Type::I64}, qir::Type::I64);
  qir::Builder B(F);
  B.ret(B.add(F->paramValue(0), F->paramValue(1)));
  ASSERT_EQ(qir::verify(M), std::nullopt);

  auto IR = translateToMlvm(*F, D128Mode::SplitPairs);
  EvalOptions Opts;
  Opts.KnownZero = [](const Value *) { return ~0ull; }; // claim all-zero
  uint64_t Args[2] = {1, 2};
  EvalResult R = evalFunction(*IR, Args, 2, Opts);
  ASSERT_FALSE(R.Error.empty());
  EXPECT_EQ(R.Error.rfind("known-bits", 0), 0u) << R.Error;
}

TEST(KnownBitsOracle, HonestAnalysisHoldsOnRandomFunctions) {
  EvalOptions Opts;
  Opts.KnownZero = [](const Value *V) { return knownZeroBits(V, 0); };
  for (uint64_t Seed = 1; Seed != 16; ++Seed) {
    qir::Module M;
    Rng R(Seed);
    test::RandomFnBuilder Gen(M, R);
    Gen.build("rand");
    ASSERT_EQ(qir::verify(M), std::nullopt);
    auto IR = translateToMlvm(*M.functions()[0], D128Mode::SplitPairs);
    Rng In(Seed ^ 0x5eed);
    for (int K = 0; K != 8; ++K) {
      uint64_t Args[2] = {In.next(), In.next()};
      EvalResult Res = evalFunction(*IR, Args, 2, Opts);
      EXPECT_TRUE(Res.Error.empty())
          << "seed " << Seed << " args (" << Args[0] << "," << Args[1]
          << "): " << Res.Error;
    }
  }
}

TEST(EvalReference, MatchesInterpreterOnRandomFunctions) {
  for (uint64_t Seed = 1; Seed != 16; ++Seed) {
    qir::Module M;
    Rng R(Seed);
    test::RandomFnBuilder Gen(M, R);
    Gen.build("rand");
    ASSERT_EQ(qir::verify(M), std::nullopt);

    interp::InterpBackend Baseline;
    auto Ref = Baseline.compile(M, backend::CompileOptions());
    void *Entry = Ref->entry("rand");
    ASSERT_NE(Entry, nullptr);
    auto IR = translateToMlvm(*M.functions()[0], D128Mode::SplitPairs);

    Rng In(Seed ^ 0xd1ff);
    for (int K = 0; K != 8; ++K) {
      std::vector<uint64_t> Args = {In.next(), In.next()};
      test::CaseOutcome Expected = test::invokeEntry(Entry, Args);
      EvalResult Got = evalFunction(*IR, Args.data(), Args.size());
      ASSERT_TRUE(Got.Error.empty()) << "seed " << Seed << ": " << Got.Error;
      ASSERT_EQ(Expected.Trapped, Got.Trapped) << "seed " << Seed;
      if (!Expected.Trapped) {
        ASSERT_EQ(Expected.Lo, Got.Lo) << "seed " << Seed;
      }
    }
  }
}

// --- Pipeline integration: every tier under full verification --------------------

class VerifiedPipeline : public ::testing::TestWithParam<int> {};

TEST_P(VerifiedPipeline, RandomModulesPassAllLayers) {
  // Compiles random modules with every verification layer forced on; a
  // verifier false positive (or a real pipeline bug, like GlobalISel
  // placing phi-incoming constants after the block terminator) aborts.
  backend::CompileOptions Opts;
  Opts.Verify = VerifyOptions::all();

  std::unique_ptr<backend::Backend> BE;
  switch (GetParam()) {
  case 0: BE = std::make_unique<MlvmBackend>(MlvmOptions::cheap()); break;
  case 1: BE = std::make_unique<MlvmBackend>(MlvmOptions::opt()); break;
  case 2: {
    MlvmOptions MO;
    MO.Isel = IselKind::Dag;
    BE = std::make_unique<MlvmBackend>(MO);
    break;
  }
  case 3: {
    MlvmOptions MO;
    MO.Isel = IselKind::Global;
    BE = std::make_unique<MlvmBackend>(MO);
    break;
  }
  case 4: {
    MlvmOptions MO;
    MO.Optimize = true;
    MO.Isel = IselKind::Global;
    BE = std::make_unique<MlvmBackend>(MO);
    break;
  }
  case 5: BE = std::make_unique<direct::DirectBackend>(); break;
  default: BE = std::make_unique<craneline::CranelineBackend>(); break;
  }

  for (uint64_t Seed = 1; Seed != 9; ++Seed) {
    qir::Module M;
    Rng R(Seed * 7919);
    test::RandomFnBuilder Gen(M, R);
    for (int F = 0; F != 3; ++F)
      Gen.build("rand" + std::to_string(F));
    ASSERT_EQ(qir::verify(M), std::nullopt);
    auto Compiled = BE->compile(M, Opts);
    EXPECT_NE(Compiled->entry("rand0"), nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, VerifiedPipeline, ::testing::Range(0, 7));

} // namespace
