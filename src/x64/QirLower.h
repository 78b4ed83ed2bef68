//===- x64/QirLower.h - x86-64 lowering of QIR scalar opcodes ---*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One x86-64 instruction sequence per QIR scalar opcode family, shared by
/// the two tiers that emit machine code straight from QIR: DirectEmit calls
/// it with the registers its on-the-fly allocator chose, and the stencil
/// table builds each copy-and-patch core by calling it on the fixed stencil
/// register convention. Craneline, MLVM, the interpreter and translation
/// validation do not use it, so a bug here shows up as a differential
/// failure against them.
///
/// Canonical form. Every integer value lives zero-extended in its 64-bit
/// register lane: i1/i8/i16/i32/i64/ptr in one lane, i128 and d128 in two
/// (Lanes::Lo, Lanes::Hi); an f64 lives in one xmm register. i1/i8/i16
/// arithmetic runs at 32 bits (aluWidth) and re-canonicalizes its result
/// (recanonicalize). A result whose upper bits may be anything, such as a
/// truncation or a float-to-int conversion, is masked to its width
/// (canonicalize). Every emitter here takes canonical operands and leaves a
/// canonical result.
///
/// Operands. An emitter takes its destination and its operand A. When they
/// are different registers it first copies A into the destination, so a
/// caller may pass one register for both (the stencil convention) or a
/// fresh destination (DirectEmit). The destination must not alias any other
/// operand. Sequences that need fixed registers say so.
///
/// Scratch. R10 and R11 belong to the lowering: any emitter may clobber
/// them, runtime calls go through R10, and no caller may pass either as an
/// operand or keep a live value in one across a lowering call.
///
/// Sink. LowerSink holds what differs between the two callers. A trapping
/// sequence emits `jcc rel32` to the sink's label for its trap code,
/// creating the label on first use; DirectEmit binds the labels to its
/// per-function trap stubs. The stencil table also gives the sink a patch
/// list: every trap edge and every patchable immediate or displacement is
/// then recorded as a Patch, and the table passes placeholders that force
/// the wide encodings.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_QIRLOWER_H
#define QCF_X64_QIRLOWER_H

#include "qir/Opcode.h"
#include "qir/Type.h"
#include "runtime/Trap.h"
#include "x64/Asm.h"
#include <vector>

namespace qcf::x64 {

/// The register width of a value of type \p Ty.
Width widthOf(qir::Type Ty);
/// The width ALU ops on a one-lane integer run at: 64 bits for i64/ptr,
/// else 32 bits (narrow results are then re-canonicalized).
Width aluWidth(qir::Type Ty);
/// The condition code testing \p P after `cmp a, b`.
Cond condForPred(qir::CmpPred P);

/// Re-zero-extends an i1/i8/i16 result computed by a 32-bit operation
/// (whose bits 32-63 are already zero); a no-op for wider types.
void recanonicalize(Assembler &A, Reg R, qir::Type Ty);
/// Clears every bit of \p R above the width of \p Ty (through R11).
void canonicalize(Assembler &A, Reg R, qir::Type Ty);

/// The GP registers of a value: Lo alone for one-lane types, Lo and Hi for
/// i128 and d128.
struct Lanes {
  Reg Lo;
  Reg Hi = Reg::NoReg;
};

/// A field of emitted code that is filled in later. Off is the byte offset
/// of the field; it is 4 bytes wide except for Imm64.
struct Patch {
  enum class Kind : uint8_t {
    Disp32,  ///< rbp-relative frame-slot displacement (or Gep disp).
    Imm32,   ///< 32-bit immediate (frame size, generic Gep scale).
    Imm64,   ///< 64-bit immediate (constants, runtime-call targets).
    Rel32,   ///< continuation jump; the compiler supplies the target.
    TrapOvf, ///< rel32 to the per-function overflow trap stub.
    TrapDiv, ///< rel32 to the per-function divide-by-zero trap stub.
  };
  Kind K;
  uint16_t Off;
};

/// Trap labels and, optionally, a patch list; see the file comment.
struct LowerSink {
  static constexpr Label NoLabel = ~0u;
  Label Ovf = NoLabel; ///< Overflow trap stub.
  Label Div = NoLabel; ///< Division-by-zero trap stub.
  std::vector<Patch> *Patches = nullptr;
};

/// The runtime helper that implements \p Op on i128, or null when the op
/// has an inline i128 sequence (or none). Helpers take the operands in the
/// SysV argument registers, lane by lane, and return in RAX:RDX.
const char *runtimeHelper128(qir::Opcode Op);

/// `movabs r10, Target; call r10`. Returns the offset of the imm64 field.
size_t lowerCallAbs(Assembler &A, uint64_t Target);
/// A trap stub: calls \p Target (rt_trap) with \p Code and never returns.
/// Returns the offset of the call's imm64 field.
size_t lowerTrapStub(Assembler &A, rt::TrapCode Code, uint64_t Target);

/// Add, Sub, And, Or, Xor, SAddTrap and SSubTrap on every integer type, and
/// Mul and SMulTrap on one-lane types.
void lowerArith(Assembler &A, qir::Opcode Op, qir::Type Ty, Lanes D,
                Lanes Av, Lanes Bv, LowerSink &S);
/// Wrapping i128 Mul. Operand A's low lane must be RAX (its high lane may
/// be RDX); operand B may be in neither. D may be RAX:RDX.
void lowerMul128(Assembler &A, Lanes D, Lanes Av, Lanes Bv);
/// SDiv, UDiv and SRem on one-lane types. The dividend is in RAX and the
/// divisor in \p Divisor (not RAX or RDX); the quotient or remainder lands
/// in \p Result.
void lowerDivRem(Assembler &A, qir::Opcode Op, qir::Type Ty, Reg Divisor,
                 Reg Result, LowerSink &S);
/// Shl, LShr, AShr and RotR on one-lane types. The amount is in RCX, which
/// neither D nor operand A may be.
void lowerShift(Assembler &A, qir::Opcode Op, qir::Type Ty, Reg D, Reg Av);
/// Neg and Not on every integer type.
void lowerNegNot(Assembler &A, qir::Opcode Op, qir::Type Ty, Lanes D,
                 Lanes Av);
void lowerCrc32(Assembler &A, Reg D, Reg Av, Reg Bv);
/// LongMulFold: RAX = lo ^ hi of RAX * Bv. Clobbers RDX.
void lowerLongMulFold(Assembler &A, Reg Bv);

/// Load and Store of a GP value (an f64 moves as raw bits) through \p P.
/// Narrow loads zero-extend, so loaded values are canonical.
void lowerLoad(Assembler &A, qir::Type Ty, Lanes D, Reg P);
void lowerStore(Assembler &A, qir::Type Ty, Reg P, Lanes V);
/// Gep: D = Base + Idx * Scale + Disp, or Base + Disp when Idx is NoReg.
void lowerGep(Assembler &A, Reg D, Reg Base, Reg Idx, int32_t Scale,
              int32_t Disp, LowerSink &S);

/// FAdd, FSub, FMul and FDiv.
void lowerFArith(Assembler &A, qir::Opcode Op, Xmm D, Xmm Av, Xmm Bv);
/// FNeg, flipping the sign bit through the GP register \p Tmp.
void lowerFNeg(Assembler &A, Xmm D, Xmm Av, Reg Tmp);

/// ICmp on operands of type \p OpTy; D may be operand A's low lane.
void lowerICmp(Assembler &A, qir::CmpPred P, qir::Type OpTy, Reg D, Lanes Av,
               Lanes Bv);
/// FCmp: ordered Eq, unordered Ne, and ordered relations.
void lowerFCmp(Assembler &A, qir::CmpPred P, Reg D, Xmm Av, Xmm Bv);
/// Select of a GP value of type \p Ty: D = C ? Tv : Fv.
void lowerSelect(Assembler &A, qir::Type Ty, Reg C, Lanes D, Lanes Tv,
                 Lanes Fv);
void lowerSelectF64(Assembler &A, Reg C, Xmm D, Xmm Tv, Xmm Fv);

void lowerZExt(Assembler &A, qir::Type To, Lanes D, Reg Av);
void lowerSExt(Assembler &A, qir::Type From, qir::Type To, Lanes D, Reg Av);
void lowerTrunc(Assembler &A, qir::Type To, Reg D, Reg Av);
/// SIToFP, sign-extending operand A into the GP register \p Tmp first.
void lowerSIToFP(Assembler &A, qir::Type From, Xmm D, Reg Tmp, Reg Av);
void lowerFPToSI(Assembler &A, qir::Type To, Reg D, Xmm Av);

} // namespace qcf::x64

#endif // QCF_X64_QIRLOWER_H
