//===- x64/Asm.h - x86-64 machine code encoder ------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A self-contained x86-64 instruction encoder. All three native back-ends
/// (DirectEmit, Craneline, MLVM's MC layer) encode through this class; each
/// wraps it with its own buffer/fixup/abstraction discipline so that the
/// *relative* emission costs the paper describes (§V-B6 vs. §VI-C4 vs.
/// §VII) are reproduced by construction.
///
/// The encoder follows DirectEmit's stated design goal (§VII-A2): it does
/// not try to pick the most compact encoding of every instruction, it
/// minimizes branches in the encoder itself.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_ASM_H
#define QCF_X64_ASM_H

#include "support/Compiler.h"
#include <cstdint>
#include <vector>

namespace qcf::x64 {

/// General-purpose registers, in encoding order.
enum class Reg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
  NoReg = 0xff,
};

/// SSE registers.
enum class Xmm : uint8_t {
  XMM0 = 0,
  XMM1,
  XMM2,
  XMM3,
  XMM4,
  XMM5,
  XMM6,
  XMM7,
  XMM8,
  XMM9,
  XMM10,
  XMM11,
  XMM12,
  XMM13,
  XMM14,
  XMM15,
};

inline uint8_t regNum(Reg R) { return static_cast<uint8_t>(R); }
inline uint8_t regNum(Xmm R) { return static_cast<uint8_t>(R); }

const char *regName(Reg R);

/// The SysV argument registers.
inline constexpr Reg GpArgRegs[6] = {Reg::RDI, Reg::RSI, Reg::RDX,
                                     Reg::RCX, Reg::R8,  Reg::R9};

/// Condition codes (tttn encoding).
enum class Cond : uint8_t {
  O = 0x0,
  NO = 0x1,
  B = 0x2,
  AE = 0x3,
  E = 0x4,
  NE = 0x5,
  BE = 0x6,
  A = 0x7,
  S = 0x8,
  NS = 0x9,
  P = 0xa,
  NP = 0xb,
  L = 0xc,
  GE = 0xd,
  LE = 0xe,
  G = 0xf,
};

inline Cond invert(Cond C) {
  return static_cast<Cond>(static_cast<uint8_t>(C) ^ 1);
}

/// Memory operand: [Base + Index*Scale + Disp].
struct Mem {
  Reg Base = Reg::NoReg;
  Reg Index = Reg::NoReg;
  uint8_t Scale = 1; ///< 1, 2, 4, or 8.
  int32_t Disp = 0;

  static Mem base(Reg B, int32_t Disp = 0) { return {B, Reg::NoReg, 1, Disp}; }
  static Mem baseIndex(Reg B, Reg I, uint8_t Scale, int32_t Disp = 0) {
    return {B, I, Scale, Disp};
  }
};

/// Label for intra-buffer branches.
using Label = uint32_t;

/// Operand width for integer operations.
enum class Width : uint8_t { W8 = 0, W16 = 1, W32 = 2, W64 = 3 };

inline Width widthForBytes(unsigned Bytes) {
  switch (Bytes) {
  case 1:
    return Width::W8;
  case 2:
    return Width::W16;
  case 4:
    return Width::W32;
  case 8:
    return Width::W64;
  }
  QCF_UNREACHABLE("invalid operand size");
}

/// x86-64 encoder writing into an internal byte buffer.
class Assembler {
public:
  // --- Buffer / label management ----------------------------------------

  const std::vector<uint8_t> &code() const { return Code; }
  size_t size() const { return Code.size(); }
  void clear() {
    Code.clear();
    Labels.clear();
    Fixups.clear();
  }

  Label newLabel() {
    Labels.push_back(-1);
    return static_cast<Label>(Labels.size() - 1);
  }

  void bind(Label L) {
    assert(Labels[L] < 0 && "label bound twice");
    Labels[L] = static_cast<int64_t>(Code.size());
  }

  int64_t labelOffset(Label L) const { return Labels[L]; }

  /// Resolves all label fixups. Must be called before using the code.
  void finalize();

  void emit8(uint8_t B) { Code.push_back(B); }
  void emit32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }
  void emit64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Code.push_back(static_cast<uint8_t>(V >> (I * 8)));
  }

  // --- Moves --------------------------------------------------------------

  void movRR(Width W, Reg Dst, Reg Src);       ///< mov dst, src
  void movRI(Reg Dst, uint64_t Imm);           ///< movabs dst, imm64 (or 32-bit forms)
  void movAbsRI(Reg Dst, uint64_t Imm);        ///< movabs dst, imm64 (always 10 bytes)
  void movRI32(Reg Dst, uint32_t Imm);         ///< mov dst32, imm32 (zero-extends)
  void movRM(Width W, Reg Dst, Mem M);         ///< mov dst, [mem]
  void movMR(Width W, Mem M, Reg Src);         ///< mov [mem], src
  void movMI32(Width W, Mem M, uint32_t Imm);  ///< mov [mem], imm32
  void movzxRM(Width SrcW, Reg Dst, Mem M);    ///< movzx dst64, <W> [mem]
  void movsxRM(Width SrcW, Reg Dst, Mem M);    ///< movsx dst64, <W> [mem]
  void movzxRR(Width SrcW, Reg Dst, Reg Src);  ///< movzx dst64, src<W>
  void movsxRR(Width SrcW, Reg Dst, Reg Src);  ///< movsx dst64, src<W>
  void lea(Reg Dst, Mem M);

  // --- Integer ALU ---------------------------------------------------------

  enum class Alu : uint8_t {
    Add = 0,
    Or = 1,
    Adc = 2,
    Sbb = 3,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
  };

  void aluRR(Alu Op, Width W, Reg Dst, Reg Src);
  void aluRI(Alu Op, Width W, Reg Dst, int32_t Imm);
  void aluRM(Alu Op, Width W, Reg Dst, Mem M);
  void testRR(Width W, Reg A, Reg B);
  void testRI(Width W, Reg A, int32_t Imm);
  void negR(Width W, Reg R);
  void notR(Width W, Reg R);
  void imulRR(Width W, Reg Dst, Reg Src);       ///< dst *= src (signed)
  void imulRRI(Width W, Reg Dst, Reg Src, int32_t Imm);
  void mulR(Width W, Reg Src);  ///< RDX:RAX = RAX * src (unsigned)
  void imulR(Width W, Reg Src); ///< RDX:RAX = RAX * src (signed)
  void divR(Width W, Reg Src);  ///< unsigned divide RDX:RAX by src
  void idivR(Width W, Reg Src); ///< signed divide RDX:RAX by src
  void cqo();                   ///< sign-extend RAX into RDX (64-bit)
  void cdq();                   ///< sign-extend EAX into EDX (32-bit)

  enum class Shift : uint8_t {
    Rol = 0,
    Ror = 1,
    Shl = 4,
    Shr = 5,
    Sar = 7,
  };
  void shiftRC(Shift Op, Width W, Reg R); ///< shift by CL
  void shiftRI(Shift Op, Width W, Reg R, uint8_t Imm);

  void crc32RR(Reg Dst, Reg Src); ///< crc32 dst, src (64-bit operands)

  // --- Flags / conditions ---------------------------------------------------

  void setcc(Cond C, Reg Dst);             ///< setcc dst8 (upper bits untouched)
  void cmovcc(Cond C, Width W, Reg Dst, Reg Src);

  // --- Control flow ----------------------------------------------------------

  void jmp(Label L);
  void jcc(Cond C, Label L);
  void jmpReg(Reg R);
  void callReg(Reg R);
  void ret();
  void ud2();
  void nop();

  // --- Stack ------------------------------------------------------------------

  void pushR(Reg R);
  void popR(Reg R);

  // --- Atomics ------------------------------------------------------------------

  void lockXaddMR(Width W, Mem M, Reg Src); ///< lock xadd [mem], src

  // --- SSE scalar double -------------------------------------------------------

  void movsdXM(Xmm Dst, Mem M);
  void movsdMX(Mem M, Xmm Src);
  void movsdXX(Xmm Dst, Xmm Src);
  void movqXR(Xmm Dst, Reg Src);
  void movqRX(Reg Dst, Xmm Src);
  void addsd(Xmm Dst, Xmm Src);
  void subsd(Xmm Dst, Xmm Src);
  void mulsd(Xmm Dst, Xmm Src);
  void divsd(Xmm Dst, Xmm Src);
  void ucomisd(Xmm A, Xmm B);
  void cvtsi2sd(Xmm Dst, Reg Src);  ///< 64-bit int -> double
  void cvttsd2si(Reg Dst, Xmm Src); ///< double -> 64-bit int (truncating)
  void xorps(Xmm Dst, Xmm Src);

private:
  void rex(bool W, uint8_t RegField, uint8_t Index, uint8_t Base,
           uint8_t ByteRegMask = 0);
  void modrm(uint8_t Mod, uint8_t RegField, uint8_t Rm);
  void memOperand(uint8_t RegField, const Mem &M);
  void prefixFor(Width W, uint8_t RegField, const Mem &M, bool Force8);
  void prefixForRR(Width W, uint8_t RegField, uint8_t Rm, bool Force8);
  void prefixForExt(Width W, uint8_t Ext, uint8_t Rm, bool Force8);
  void emitRel32Fixup(Label L);

  struct Fixup {
    size_t Pos; ///< Offset of the rel32 field.
    Label Target;
  };

  std::vector<uint8_t> Code;
  std::vector<int64_t> Labels;
  std::vector<Fixup> Fixups;
};

} // namespace qcf::x64

#endif // QCF_X64_ASM_H
