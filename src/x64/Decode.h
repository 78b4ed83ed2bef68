//===- x64/Decode.h - Semantic x86-64 decoder -------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A semantic decoder for exactly the instruction surface x64::Assembler
/// emits (see Asm.cpp). decodeInst recovers operands — registers, memory
/// addressing, immediates, condition codes, widths — into a uniform
/// DecodedInst record, and decodeFunction recovers a block-level CFG from
/// branch targets. This is the front end of the translation-validation layer
/// (src/tv), which lifts decoded instructions to symbolic semantics, and
/// decodeFunction's Error is the encoding lint the `mc` verifier runs over
/// every emitted function.
///
/// The operand conventions mirror the encodings:
///  * Reg is the ModRM "reg" field operand, Rm the "r/m" operand (register
///    number in Rm, or a memory reference in M when RmIsMem);
///  * for the AluRR/MovMR store-direction forms the destination is the r/m
///    operand; for AluRM/MovRM load-direction forms it is the reg operand
///    (each DecOp's comment states which);
///  * immediates are already extended to their 64-bit semantic value.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_DECODE_H
#define QCF_X64_DECODE_H

#include "x64/Asm.h"
#include <cstddef>
#include <string>
#include <vector>

namespace qcf::x64 {

/// Decoded operation kinds, one per distinct semantic shape the Assembler
/// can produce.
enum class DecOp : uint8_t {
  // Moves. MovRR/MovMR: destination is r/m; MovRM: destination is reg.
  MovRR,
  MovRM,
  MovMR,
  MovRI,  ///< mov reg, imm (W32 form zero-extends, W64 forms are imm64 or
          ///< sign-extended imm32); destination in Rm.
  MovMI,  ///< mov [mem], imm (width W).
  MovZX,  ///< movzx reg64, r/m of width W (W is the *source* width).
  MovSX,  ///< movsx/movsxd reg64, r/m of width W (source width).
  Lea,    ///< lea reg, [mem].
  // Integer ALU. AluRR: dst = r/m (op r/m, reg form); AluRM: dst = reg
  // (op reg, [mem] form); AluRI: dst = r/m.
  AluRR,
  AluRM,
  AluRI,
  TestRR, ///< test r/m, reg (flags only).
  TestRI, ///< test r/m, imm (flags only).
  Neg,    ///< neg r/m (register forms only).
  Not,    ///< not r/m.
  ImulRR, ///< imul reg, r/m (two-operand signed multiply).
  ImulRRI,///< imul reg, r/m, imm.
  MulDiv, ///< one-operand mul/imul/div/idiv on r/m; GrpExt = 4/5/6/7.
  Cqo,    ///< sign-extend RAX into RDX.
  Cdq,    ///< sign-extend EAX into EDX.
  ShiftRI,///< shift/rotate r/m by Imm.
  ShiftRC,///< shift/rotate r/m by CL.
  Crc32,  ///< crc32 reg, r/m (64-bit operands).
  // Flags / conditions.
  Setcc,  ///< setcc r/m8 (byte write, upper bits untouched).
  Cmovcc, ///< cmovcc reg, r/m.
  // Control flow.
  Jmp,     ///< jmp rel32.
  Jcc,     ///< jcc rel32.
  JmpReg,  ///< jmp r/m (register form).
  CallReg, ///< call r/m (register form).
  CallRel, ///< call rel32.
  Ret,
  Ud2,
  Nop,
  Push, ///< push reg (register in Rm).
  Pop,  ///< pop reg (register in Rm).
  Xadd, ///< lock xadd [mem], reg.
  // SSE scalar double. Xmm numbers travel in Reg/Rm.
  MovsdXM, ///< movsd xmm(Reg), [mem]
  MovsdMX, ///< movsd [mem], xmm(Reg)
  MovsdXX, ///< movsd xmm(Reg), xmm(Rm)
  MovqXR,  ///< movq xmm(Reg), gp(Rm)
  MovqRX,  ///< movq gp(Rm), xmm(Reg)
  Addsd,
  Subsd,
  Mulsd,
  Divsd,
  Ucomisd,  ///< ucomisd xmm(Reg), xmm(Rm) — flags only
  Cvtsi2sd, ///< cvtsi2sd xmm(Reg), gp(Rm) (64-bit int source)
  Cvttsd2si,///< cvttsd2si gp(Reg), xmm(Rm)
  Xorps,    ///< xorps xmm(Reg), xmm(Rm)
};

/// One decoded instruction.
struct DecodedInst {
  uint32_t Off = 0;     ///< Byte offset of the instruction start.
  uint32_t Len = 0;     ///< Total encoded length (0 on decode failure).
  DecOp Op = DecOp::Nop;
  Width W = Width::W64; ///< Operand width (source width for MovZX/MovSX).
  uint8_t Reg = 0xff;   ///< ModRM reg-field operand (GP or XMM number).
  uint8_t Rm = 0xff;    ///< ModRM r/m operand when a register.
  bool RmIsMem = false; ///< True when the r/m operand is memory (see M).
  bool HasLock = false; ///< F0 prefix seen (lock xadd).
  Mem M;                ///< Memory operand when RmIsMem.
  int64_t Imm = 0;      ///< Immediate, extended to its semantic value.
  uint32_t ImmOff = 0;  ///< Offset of the immediate field (0 = none).
  uint32_t Rel32Off = 0;///< Offset of a rel32 field (0 = none).
  int32_t Rel32 = 0;    ///< The rel32 displacement value.
  Cond CC = Cond::O;    ///< Condition for Jcc/Setcc/Cmovcc.
  Assembler::Alu AluOp = Assembler::Alu::Add;
  Assembler::Shift ShiftOp = Assembler::Shift::Shl;
  uint8_t GrpExt = 0;   ///< Group-3 extension for MulDiv (4/5/6/7).
  const char *Error = nullptr; ///< Non-null on decode failure.

  bool isTerminator() const {
    return Op == DecOp::Jmp || Op == DecOp::JmpReg || Op == DecOp::Ret ||
           Op == DecOp::Ud2;
  }
  /// Branch target as a function-relative offset (Jmp/Jcc/CallRel only).
  size_t branchTarget() const {
    return static_cast<size_t>(Off + Len + static_cast<int64_t>(Rel32));
  }
};

/// Decodes the instruction at \p Pos. On failure the result has Len == 0
/// and Error set.
DecodedInst decodeInst(const uint8_t *Code, size_t Size, size_t Pos);

/// A basic block of decoded code: instruction index range [Begin, End),
/// plus successor block ids recovered from the terminator.
struct DecodedBlock {
  uint32_t Begin = 0;
  uint32_t End = 0;
  uint32_t Succ[2] = {~0u, ~0u}; ///< [taken, fallthrough] block ids.
  uint8_t NumSucc = 0;
};

/// A fully decoded function: the instruction list (in layout order, covering
/// the byte range exactly) and the block-level CFG recovered from branch
/// targets. Rel32 fields covered by a relocation are external (patched at
/// link time) and do not contribute CFG edges.
struct DecodedFunction {
  std::vector<DecodedInst> Insts;
  std::vector<DecodedBlock> Blocks;
  std::string Error; ///< Non-empty when decoding or CFG recovery failed.

  bool ok() const { return Error.empty(); }
  /// Index of the instruction starting at byte offset \p Off, or ~0u.
  uint32_t instAt(size_t Off) const;

  // Offset -> instruction index (sorted by construction).
  std::vector<uint32_t> StartOffs;
};

/// A byte range patched externally (relocation); rel32 branch fields inside
/// such ranges are exempt from target recovery. Offset is relative to the
/// function start; Width is 4 for rel32 call relocations, 8 for
/// absolute-address immediates.
struct DecodeReloc {
  uint64_t Offset;
  uint32_t Width;
};

/// Decodes \p Size bytes of machine code into instructions and recovers the
/// block CFG. All bytes must decode (the instruction list covers the buffer
/// exactly); intra-function branch targets must land on instruction starts;
/// each relocation must lie strictly inside one instruction's immediate or
/// displacement bytes. A failure is reported in Error with its offset.
DecodedFunction decodeFunction(const uint8_t *Code, size_t Size,
                               const std::vector<DecodeReloc> &Relocs = {});

/// The encoding lint (the `mc` layer of QCF_VERIFY): decodeFunction's
/// Error for function \p FnName, escalated to reportFatalError naming
/// \p Who (the back-end).
void lintOrDie(const uint8_t *Code, size_t Size,
               const std::vector<DecodeReloc> &Relocs,
               const std::string &FnName, const char *Who);

} // namespace qcf::x64

#endif // QCF_X64_DECODE_H
