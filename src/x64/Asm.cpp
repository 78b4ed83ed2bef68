//===- x64/Asm.cpp - x86-64 machine code encoder ---------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/Asm.h"

using namespace qcf;
using namespace qcf::x64;

const char *x64::regName(Reg R) {
  static const char *Names[16] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                                  "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                                  "r12", "r13", "r14", "r15"};
  assert(R != Reg::NoReg && "no name for NoReg");
  return Names[regNum(R)];
}

// --- Low-level helpers -------------------------------------------------------

void Assembler::rex(bool W, uint8_t RegField, uint8_t Index, uint8_t Base,
                    uint8_t ByteRegMask) {
  uint8_t R = (RegField >> 3) & 1;
  uint8_t X = (Index >> 3) & 1;
  uint8_t B = (Base >> 3) & 1;
  uint8_t Rex = 0x40 | (W << 3) | (R << 2) | (X << 1) | B;
  // SPL/BPL/SIL/DIL are only addressable with a REX prefix present; the
  // mask says which of RegField (bit 0) / Base-as-rm (bit 1) are byte
  // register *operands* (a memory base register is never a byte operand).
  bool Need8 = ((ByteRegMask & 1) && RegField >= 4 && RegField <= 7) ||
               ((ByteRegMask & 2) && Base >= 4 && Base <= 7);
  if (Rex != 0x40 || Need8)
    emit8(Rex);
}

void Assembler::modrm(uint8_t Mod, uint8_t RegField, uint8_t Rm) {
  emit8(static_cast<uint8_t>((Mod << 6) | ((RegField & 7) << 3) | (Rm & 7)));
}

void Assembler::memOperand(uint8_t RegField, const Mem &M) {
  assert(M.Base != Reg::NoReg && "memory operands require a base register");
  assert(M.Index != Reg::RSP && "rsp cannot be an index register");
  uint8_t Base = regNum(M.Base);
  bool HasIndex = M.Index != Reg::NoReg;
  bool NeedSib = HasIndex || (Base & 7) == 4; // RSP/R12 require SIB.
  bool BaseIsBp = (Base & 7) == 5;            // RBP/R13 require a disp.

  uint8_t Mod;
  if (M.Disp == 0 && !BaseIsBp)
    Mod = 0;
  else if (M.Disp >= -128 && M.Disp <= 127)
    Mod = 1;
  else
    Mod = 2;

  if (NeedSib) {
    modrm(Mod, RegField, 4);
    uint8_t ScaleBits = M.Scale == 1   ? 0
                        : M.Scale == 2 ? 1
                        : M.Scale == 4 ? 2
                                       : 3;
    uint8_t Index = HasIndex ? regNum(M.Index) : 4; // 4 = no index
    emit8(static_cast<uint8_t>((ScaleBits << 6) | ((Index & 7) << 3) |
                               (Base & 7)));
  } else {
    modrm(Mod, RegField, Base);
  }

  if (Mod == 1)
    emit8(static_cast<uint8_t>(M.Disp));
  else if (Mod == 2)
    emit32(static_cast<uint32_t>(M.Disp));
}

void Assembler::prefixFor(Width W, uint8_t RegField, const Mem &M,
                          bool Force8) {
  if (W == Width::W16)
    emit8(0x66);
  uint8_t Index = M.Index == Reg::NoReg ? 0 : regNum(M.Index);
  // Only the reg field can be a byte register; the base is an address.
  rex(W == Width::W64, RegField, Index, regNum(M.Base), Force8 ? 1 : 0);
}

void Assembler::prefixForRR(Width W, uint8_t RegField, uint8_t Rm,
                            bool Force8) {
  if (W == Width::W16)
    emit8(0x66);
  // In register-register form both fields are register operands.
  rex(W == Width::W64, RegField, 0, Rm, Force8 ? 3 : 0);
}


void Assembler::prefixForExt(Width W, uint8_t Ext, uint8_t Rm, bool Force8) {
  if (W == Width::W16)
    emit8(0x66);
  // The "reg" field is an opcode extension, not a register; only the rm
  // operand can be a byte register.
  rex(W == Width::W64, Ext, 0, Rm, Force8 ? 2 : 0);
}

void Assembler::emitRel32Fixup(Label L) {
  Fixups.push_back({Code.size(), L});
  emit32(0);
}

void Assembler::finalize() {
  for (const Fixup &F : Fixups) {
    int64_t Target = Labels[F.Target];
    assert(Target >= 0 && "unbound label at finalize");
    int64_t Rel = Target - static_cast<int64_t>(F.Pos) - 4;
    assert(Rel >= INT32_MIN && Rel <= INT32_MAX && "branch out of range");
    uint32_t V = static_cast<uint32_t>(Rel);
    for (int I = 0; I != 4; ++I)
      Code[F.Pos + I] = static_cast<uint8_t>(V >> (I * 8));
  }
  Fixups.clear();
}

// --- Moves ---------------------------------------------------------------------

void Assembler::movRR(Width W, Reg Dst, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForRR(W, regNum(Src), regNum(Dst), Is8);
  emit8(Is8 ? 0x88 : 0x89);
  modrm(3, regNum(Src), regNum(Dst));
}

void Assembler::movRI(Reg Dst, uint64_t Imm) {
  if (Imm <= 0xffffffffull) {
    movRI32(Dst, static_cast<uint32_t>(Imm));
    return;
  }
  if (static_cast<int64_t>(Imm) < 0 &&
      static_cast<int64_t>(Imm) >= INT32_MIN) {
    // mov r/m64, imm32 (sign-extended): REX.W C7 /0
    rex(true, 0, 0, regNum(Dst));
    emit8(0xc7);
    modrm(3, 0, regNum(Dst));
    emit32(static_cast<uint32_t>(Imm));
    return;
  }
  rex(true, 0, 0, regNum(Dst));
  emit8(static_cast<uint8_t>(0xb8 + (regNum(Dst) & 7)));
  emit64(Imm);
}

void Assembler::movAbsRI(Reg Dst, uint64_t Imm) {
  // Always the 10-byte movabs form, regardless of the immediate's value:
  // callers that patch the trailing imm64 later (relocations recorded for
  // the persistent code cache) need the encoding to be independent of
  // whatever address happened to be live at compile time.
  rex(true, 0, 0, regNum(Dst));
  emit8(static_cast<uint8_t>(0xb8 + (regNum(Dst) & 7)));
  emit64(Imm);
}

void Assembler::movRI32(Reg Dst, uint32_t Imm) {
  rex(false, 0, 0, regNum(Dst));
  emit8(static_cast<uint8_t>(0xb8 + (regNum(Dst) & 7)));
  emit32(Imm);
}

void Assembler::movRM(Width W, Reg Dst, Mem M) {
  bool Is8 = W == Width::W8;
  prefixFor(W, regNum(Dst), M, Is8);
  emit8(Is8 ? 0x8a : 0x8b);
  memOperand(regNum(Dst), M);
}

void Assembler::movMR(Width W, Mem M, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixFor(W, regNum(Src), M, Is8);
  emit8(Is8 ? 0x88 : 0x89);
  memOperand(regNum(Src), M);
}

void Assembler::movMI32(Width W, Mem M, uint32_t Imm) {
  bool Is8 = W == Width::W8;
  prefixFor(W, 0, M, Is8);
  emit8(Is8 ? 0xc6 : 0xc7);
  memOperand(0, M);
  if (Is8)
    emit8(static_cast<uint8_t>(Imm));
  else if (W == Width::W16) {
    emit8(static_cast<uint8_t>(Imm));
    emit8(static_cast<uint8_t>(Imm >> 8));
  } else
    emit32(Imm);
}

void Assembler::movzxRM(Width SrcW, Reg Dst, Mem M) {
  switch (SrcW) {
  case Width::W8:
    prefixFor(Width::W64, regNum(Dst), M, false);
    emit8(0x0f);
    emit8(0xb6);
    memOperand(regNum(Dst), M);
    return;
  case Width::W16:
    prefixFor(Width::W64, regNum(Dst), M, false);
    emit8(0x0f);
    emit8(0xb7);
    memOperand(regNum(Dst), M);
    return;
  case Width::W32:
    movRM(Width::W32, Dst, M); // implicit zero extension
    return;
  case Width::W64:
    movRM(Width::W64, Dst, M);
    return;
  }
  QCF_UNREACHABLE("invalid width");
}

void Assembler::movsxRM(Width SrcW, Reg Dst, Mem M) {
  switch (SrcW) {
  case Width::W8:
    prefixFor(Width::W64, regNum(Dst), M, false);
    emit8(0x0f);
    emit8(0xbe);
    memOperand(regNum(Dst), M);
    return;
  case Width::W16:
    prefixFor(Width::W64, regNum(Dst), M, false);
    emit8(0x0f);
    emit8(0xbf);
    memOperand(regNum(Dst), M);
    return;
  case Width::W32:
    prefixFor(Width::W64, regNum(Dst), M, false);
    emit8(0x63); // movsxd
    memOperand(regNum(Dst), M);
    return;
  case Width::W64:
    movRM(Width::W64, Dst, M);
    return;
  }
  QCF_UNREACHABLE("invalid width");
}

void Assembler::movzxRR(Width SrcW, Reg Dst, Reg Src) {
  switch (SrcW) {
  case Width::W8:
    prefixForRR(Width::W64, regNum(Dst), regNum(Src), true);
    emit8(0x0f);
    emit8(0xb6);
    modrm(3, regNum(Dst), regNum(Src));
    return;
  case Width::W16:
    prefixForRR(Width::W64, regNum(Dst), regNum(Src), false);
    emit8(0x0f);
    emit8(0xb7);
    modrm(3, regNum(Dst), regNum(Src));
    return;
  case Width::W32:
    movRR(Width::W32, Dst, Src);
    return;
  case Width::W64:
    movRR(Width::W64, Dst, Src);
    return;
  }
  QCF_UNREACHABLE("invalid width");
}

void Assembler::movsxRR(Width SrcW, Reg Dst, Reg Src) {
  switch (SrcW) {
  case Width::W8:
    prefixForRR(Width::W64, regNum(Dst), regNum(Src), true);
    emit8(0x0f);
    emit8(0xbe);
    modrm(3, regNum(Dst), regNum(Src));
    return;
  case Width::W16:
    prefixForRR(Width::W64, regNum(Dst), regNum(Src), false);
    emit8(0x0f);
    emit8(0xbf);
    modrm(3, regNum(Dst), regNum(Src));
    return;
  case Width::W32:
    prefixForRR(Width::W64, regNum(Dst), regNum(Src), false);
    emit8(0x63);
    modrm(3, regNum(Dst), regNum(Src));
    return;
  case Width::W64:
    movRR(Width::W64, Dst, Src);
    return;
  }
  QCF_UNREACHABLE("invalid width");
}

void Assembler::lea(Reg Dst, Mem M) {
  prefixFor(Width::W64, regNum(Dst), M, false);
  emit8(0x8d);
  memOperand(regNum(Dst), M);
}

// --- Integer ALU ------------------------------------------------------------

void Assembler::aluRR(Alu Op, Width W, Reg Dst, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForRR(W, regNum(Src), regNum(Dst), Is8);
  emit8(static_cast<uint8_t>(static_cast<uint8_t>(Op) * 8 + (Is8 ? 0 : 1)));
  modrm(3, regNum(Src), regNum(Dst));
}

void Assembler::aluRI(Alu Op, Width W, Reg Dst, int32_t Imm) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, static_cast<uint8_t>(Op), regNum(Dst), Is8);
  if (Is8) {
    emit8(0x80);
    modrm(3, static_cast<uint8_t>(Op), regNum(Dst));
    emit8(static_cast<uint8_t>(Imm));
  } else if (Imm >= -128 && Imm <= 127) {
    emit8(0x83);
    modrm(3, static_cast<uint8_t>(Op), regNum(Dst));
    emit8(static_cast<uint8_t>(Imm));
  } else {
    emit8(0x81);
    modrm(3, static_cast<uint8_t>(Op), regNum(Dst));
    if (W == Width::W16) {
      emit8(static_cast<uint8_t>(Imm));
      emit8(static_cast<uint8_t>(Imm >> 8));
    } else
      emit32(static_cast<uint32_t>(Imm));
  }
}

void Assembler::aluRM(Alu Op, Width W, Reg Dst, Mem M) {
  bool Is8 = W == Width::W8;
  prefixFor(W, regNum(Dst), M, Is8);
  emit8(static_cast<uint8_t>(static_cast<uint8_t>(Op) * 8 + (Is8 ? 2 : 3)));
  memOperand(regNum(Dst), M);
}

void Assembler::testRR(Width W, Reg A, Reg B) {
  bool Is8 = W == Width::W8;
  prefixForRR(W, regNum(B), regNum(A), Is8);
  emit8(Is8 ? 0x84 : 0x85);
  modrm(3, regNum(B), regNum(A));
}

void Assembler::testRI(Width W, Reg A, int32_t Imm) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 0, regNum(A), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 0, regNum(A));
  if (Is8)
    emit8(static_cast<uint8_t>(Imm));
  else if (W == Width::W16) {
    emit8(static_cast<uint8_t>(Imm));
    emit8(static_cast<uint8_t>(Imm >> 8));
  } else
    emit32(static_cast<uint32_t>(Imm));
}

void Assembler::negR(Width W, Reg R) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 3, regNum(R), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 3, regNum(R));
}

void Assembler::notR(Width W, Reg R) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 2, regNum(R), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 2, regNum(R));
}

void Assembler::imulRR(Width W, Reg Dst, Reg Src) {
  assert(W != Width::W8 && "8-bit imul r,r is not encodable");
  prefixForRR(W, regNum(Dst), regNum(Src), false);
  emit8(0x0f);
  emit8(0xaf);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::imulRRI(Width W, Reg Dst, Reg Src, int32_t Imm) {
  assert(W != Width::W8 && "8-bit imul r,r,imm is not encodable");
  prefixForRR(W, regNum(Dst), regNum(Src), false);
  if (Imm >= -128 && Imm <= 127) {
    emit8(0x6b);
    modrm(3, regNum(Dst), regNum(Src));
    emit8(static_cast<uint8_t>(Imm));
  } else {
    emit8(0x69);
    modrm(3, regNum(Dst), regNum(Src));
    if (W == Width::W16) {
      emit8(static_cast<uint8_t>(Imm));
      emit8(static_cast<uint8_t>(Imm >> 8));
    } else
      emit32(static_cast<uint32_t>(Imm));
  }
}

void Assembler::mulR(Width W, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 4, regNum(Src), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 4, regNum(Src));
}

void Assembler::imulR(Width W, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 5, regNum(Src), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 5, regNum(Src));
}

void Assembler::divR(Width W, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 6, regNum(Src), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 6, regNum(Src));
}

void Assembler::idivR(Width W, Reg Src) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, 7, regNum(Src), Is8);
  emit8(Is8 ? 0xf6 : 0xf7);
  modrm(3, 7, regNum(Src));
}

void Assembler::cqo() {
  emit8(0x48);
  emit8(0x99);
}

void Assembler::cdq() { emit8(0x99); }

void Assembler::shiftRC(Shift Op, Width W, Reg R) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, static_cast<uint8_t>(Op), regNum(R), Is8);
  emit8(Is8 ? 0xd2 : 0xd3);
  modrm(3, static_cast<uint8_t>(Op), regNum(R));
}

void Assembler::shiftRI(Shift Op, Width W, Reg R, uint8_t Imm) {
  bool Is8 = W == Width::W8;
  prefixForExt(W, static_cast<uint8_t>(Op), regNum(R), Is8);
  emit8(Is8 ? 0xc0 : 0xc1);
  modrm(3, static_cast<uint8_t>(Op), regNum(R));
  emit8(Imm);
}

void Assembler::crc32RR(Reg Dst, Reg Src) {
  emit8(0xf2);
  rex(true, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x38);
  emit8(0xf1);
  modrm(3, regNum(Dst), regNum(Src));
}

// --- Flags / conditions --------------------------------------------------------

void Assembler::setcc(Cond C, Reg Dst) {
  prefixForExt(Width::W8, 0, regNum(Dst), true);
  emit8(0x0f);
  emit8(static_cast<uint8_t>(0x90 + static_cast<uint8_t>(C)));
  modrm(3, 0, regNum(Dst));
}

void Assembler::cmovcc(Cond C, Width W, Reg Dst, Reg Src) {
  assert(W != Width::W8 && "8-bit cmov is not encodable");
  prefixForRR(W, regNum(Dst), regNum(Src), false);
  emit8(0x0f);
  emit8(static_cast<uint8_t>(0x40 + static_cast<uint8_t>(C)));
  modrm(3, regNum(Dst), regNum(Src));
}

// --- Control flow ------------------------------------------------------------

void Assembler::jmp(Label L) {
  emit8(0xe9);
  emitRel32Fixup(L);
}

void Assembler::jcc(Cond C, Label L) {
  emit8(0x0f);
  emit8(static_cast<uint8_t>(0x80 + static_cast<uint8_t>(C)));
  emitRel32Fixup(L);
}

void Assembler::jmpReg(Reg R) {
  rex(false, 0, 0, regNum(R));
  emit8(0xff);
  modrm(3, 4, regNum(R));
}

void Assembler::callReg(Reg R) {
  rex(false, 0, 0, regNum(R));
  emit8(0xff);
  modrm(3, 2, regNum(R));
}

void Assembler::ret() { emit8(0xc3); }

void Assembler::ud2() {
  emit8(0x0f);
  emit8(0x0b);
}

void Assembler::nop() { emit8(0x90); }

// --- Stack ---------------------------------------------------------------------

void Assembler::pushR(Reg R) {
  rex(false, 0, 0, regNum(R));
  emit8(static_cast<uint8_t>(0x50 + (regNum(R) & 7)));
}

void Assembler::popR(Reg R) {
  rex(false, 0, 0, regNum(R));
  emit8(static_cast<uint8_t>(0x58 + (regNum(R) & 7)));
}

// --- Atomics -------------------------------------------------------------------

void Assembler::lockXaddMR(Width W, Mem M, Reg Src) {
  emit8(0xf0);
  bool Is8 = W == Width::W8;
  prefixFor(W, regNum(Src), M, Is8);
  emit8(0x0f);
  emit8(Is8 ? 0xc0 : 0xc1);
  memOperand(regNum(Src), M);
}

// --- SSE scalar double ---------------------------------------------------------

void Assembler::movsdXM(Xmm Dst, Mem M) {
  emit8(0xf2);
  prefixFor(Width::W32, regNum(Dst), M, false);
  emit8(0x0f);
  emit8(0x10);
  memOperand(regNum(Dst), M);
}

void Assembler::movsdMX(Mem M, Xmm Src) {
  emit8(0xf2);
  prefixFor(Width::W32, regNum(Src), M, false);
  emit8(0x0f);
  emit8(0x11);
  memOperand(regNum(Src), M);
}

void Assembler::movsdXX(Xmm Dst, Xmm Src) {
  emit8(0xf2);
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x10);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::movqXR(Xmm Dst, Reg Src) {
  emit8(0x66);
  rex(true, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x6e);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::movqRX(Reg Dst, Xmm Src) {
  emit8(0x66);
  rex(true, regNum(Src), 0, regNum(Dst));
  emit8(0x0f);
  emit8(0x7e);
  modrm(3, regNum(Src), regNum(Dst));
}

namespace {
} // namespace

void Assembler::addsd(Xmm Dst, Xmm Src) {
  emit8(0xf2);
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x58);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::subsd(Xmm Dst, Xmm Src) {
  emit8(0xf2);
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x5c);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::mulsd(Xmm Dst, Xmm Src) {
  emit8(0xf2);
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x59);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::divsd(Xmm Dst, Xmm Src) {
  emit8(0xf2);
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x5e);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::ucomisd(Xmm A, Xmm B) {
  emit8(0x66);
  rex(false, regNum(A), 0, regNum(B));
  emit8(0x0f);
  emit8(0x2e);
  modrm(3, regNum(A), regNum(B));
}

void Assembler::cvtsi2sd(Xmm Dst, Reg Src) {
  emit8(0xf2);
  rex(true, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x2a);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::cvttsd2si(Reg Dst, Xmm Src) {
  emit8(0xf2);
  rex(true, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x2c);
  modrm(3, regNum(Dst), regNum(Src));
}

void Assembler::xorps(Xmm Dst, Xmm Src) {
  rex(false, regNum(Dst), 0, regNum(Src));
  emit8(0x0f);
  emit8(0x57);
  modrm(3, regNum(Dst), regNum(Src));
}
