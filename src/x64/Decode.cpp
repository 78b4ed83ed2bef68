//===- x64/Decode.cpp - Semantic x86-64 decoder -----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/Decode.h"
#include "support/Compiler.h"
#include <algorithm>
#include <cstdio>

using namespace qcf;
using namespace qcf::x64;

namespace {

uint32_t read32(const uint8_t *Code, size_t P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(Code[P + I]) << (I * 8);
  return V;
}

uint64_t read64(const uint8_t *Code, size_t P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(Code[P + I]) << (I * 8);
  return V;
}

int64_t signExtend(uint64_t V, unsigned Bits) {
  if (Bits >= 64)
    return static_cast<int64_t>(V);
  uint64_t M = 1ull << (Bits - 1);
  return static_cast<int64_t>(((V & ((1ull << Bits) - 1)) ^ M) - M);
}

} // namespace

DecodedInst x64::decodeInst(const uint8_t *Code, size_t Size, size_t Pos) {
  DecodedInst D;
  D.Off = static_cast<uint32_t>(Pos);
  size_t P = Pos;
  bool Opnd16 = false, SawF2 = false;

  // Legacy prefixes (66 operand-size, F0 lock, F2/F3 mandatory).
  while (P < Size && (Code[P] == 0x66 || Code[P] == 0xf0 ||
                      Code[P] == 0xf2 || Code[P] == 0xf3)) {
    if (Code[P] == 0x66)
      Opnd16 = true;
    else if (Code[P] == 0xf0)
      D.HasLock = true;
    else if (Code[P] == 0xf2)
      SawF2 = true;
    ++P;
  }
  // REX.
  bool RexW = false, RexR = false, RexX = false, RexB = false;
  if (P < Size && (Code[P] & 0xf0) == 0x40) {
    RexW = (Code[P] & 0x08) != 0;
    RexR = (Code[P] & 0x04) != 0;
    RexX = (Code[P] & 0x02) != 0;
    RexB = (Code[P] & 0x01) != 0;
    ++P;
  }
  if (P >= Size) {
    D.Error = "truncated instruction (prefixes only)";
    return D;
  }

  // Non-8-bit operand width from the prefixes.
  const Width WI = RexW ? Width::W64 : Opnd16 ? Width::W16 : Width::W32;

  auto fail = [&](const char *Msg) {
    D.Error = Msg;
    D.Len = 0;
    return D;
  };
  auto done = [&](size_t End) {
    D.Len = static_cast<uint32_t>(End - Pos);
    return D;
  };

  // Parses ModRM (+ SIB + displacement) at \p Q into D.Reg / D.Rm / D.M.
  // Returns the number of bytes consumed, or 0 with D.Error set.
  auto modrm = [&](size_t Q) -> size_t {
    if (Q >= Size) {
      D.Error = "truncated ModRM operand";
      return 0;
    }
    uint8_t MB = Code[Q];
    uint8_t Mod = MB >> 6, RegF = (MB >> 3) & 7, RmF = MB & 7;
    D.Reg = RegF | (RexR ? 8 : 0);
    size_t Len = 1;
    if (Mod == 3) {
      D.Rm = RmF | (RexB ? 8 : 0);
      D.RmIsMem = false;
      return Len;
    }
    D.RmIsMem = true;
    uint8_t Base = RmF, Index = 0xff, Scale = 1;
    if (RmF == 4) { // SIB byte
      if (Q + Len >= Size) {
        D.Error = "truncated ModRM operand";
        return 0;
      }
      uint8_t Sib = Code[Q + Len];
      ++Len;
      Scale = static_cast<uint8_t>(1 << (Sib >> 6));
      uint8_t Idx = (Sib >> 3) & 7;
      if (Idx != 4 || RexX)
        Index = Idx | (RexX ? 8 : 0);
      Base = Sib & 7;
      if (Mod == 0 && Base == 5) {
        D.Error = "unsupported no-base addressing";
        return 0;
      }
    } else if (Mod == 0 && RmF == 5) {
      D.Error = "unsupported rip-relative operand";
      return 0;
    }
    int32_t Disp = 0;
    if (Mod == 1) {
      if (Q + Len + 1 > Size) {
        D.Error = "truncated ModRM operand";
        return 0;
      }
      Disp = static_cast<int8_t>(Code[Q + Len]);
      Len += 1;
    } else if (Mod == 2) {
      if (Q + Len + 4 > Size) {
        D.Error = "truncated ModRM operand";
        return 0;
      }
      Disp = static_cast<int32_t>(read32(Code, Q + Len));
      Len += 4;
    }
    D.M.Base = static_cast<Reg>(Base | (RexB ? 8 : 0));
    D.M.Index = Index == 0xff ? Reg::NoReg : static_cast<Reg>(Index);
    D.M.Scale = Scale;
    D.M.Disp = Disp;
    return Len;
  };

  // Reads a sign-extended immediate of \p Bytes at \p Q into D.Imm.
  auto immS = [&](size_t Q, unsigned Bytes) -> bool {
    if (Q + Bytes > Size) {
      D.Error = "truncated immediate";
      return false;
    }
    D.ImmOff = static_cast<uint32_t>(Q);
    uint64_t V = 0;
    for (unsigned I = 0; I != Bytes; ++I)
      V |= static_cast<uint64_t>(Code[Q + I]) << (I * 8);
    D.Imm = signExtend(V, Bytes * 8);
    return true;
  };
  auto rel32At = [&](size_t Q) -> bool {
    if (Q + 4 > Size)
      return false;
    D.Rel32Off = static_cast<uint32_t>(Q);
    D.Rel32 = static_cast<int32_t>(read32(Code, Q));
    return true;
  };

  uint8_t B = Code[P];
  size_t Q = P + 1;

  // Two-byte (and crc32's three-byte) opcode space.
  if (B == 0x0f) {
    if (Q >= Size)
      return fail("truncated 0F opcode");
    uint8_t B2 = Code[Q];
    size_t Q2 = Q + 1;

    // SSE / xadd / movzx family: ModRM follows the second opcode byte.
    auto withModRm = [&](DecOp Op, Width W, bool RegOnly) -> DecodedInst {
      size_t L = modrm(Q2);
      if (!L)
        return D;
      if (RegOnly && D.RmIsMem)
        return fail("unsupported memory operand");
      D.Op = Op;
      D.W = W;
      return done(Q2 + L);
    };

    switch (B2) {
    case 0x0b: // ud2
      D.Op = DecOp::Ud2;
      return done(Q2);
    case 0x10: { // movsd xmm, x/m (F2 prefix)
      if (!SawF2)
        return fail("unsupported SSE encoding");
      size_t L = modrm(Q2);
      if (!L)
        return D;
      D.Op = D.RmIsMem ? DecOp::MovsdXM : DecOp::MovsdXX;
      D.W = Width::W64;
      return done(Q2 + L);
    }
    case 0x11: { // movsd m, xmm (F2 prefix)
      if (!SawF2)
        return fail("unsupported SSE encoding");
      size_t L = modrm(Q2);
      if (!L)
        return D;
      if (!D.RmIsMem)
        return fail("unsupported movsd store form");
      D.Op = DecOp::MovsdMX;
      D.W = Width::W64;
      return done(Q2 + L);
    }
    case 0x2a: // cvtsi2sd xmm, r64
      if (!SawF2 || !RexW)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Cvtsi2sd, Width::W64, /*RegOnly=*/true);
    case 0x2c: // cvttsd2si r64, xmm
      if (!SawF2 || !RexW)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Cvttsd2si, Width::W64, /*RegOnly=*/true);
    case 0x2e: // ucomisd xmm, xmm
      if (!Opnd16)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Ucomisd, Width::W64, /*RegOnly=*/true);
    case 0x57: // xorps xmm, xmm
      return withModRm(DecOp::Xorps, Width::W64, /*RegOnly=*/true);
    case 0x58: // addsd
      if (!SawF2)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Addsd, Width::W64, /*RegOnly=*/true);
    case 0x59: // mulsd
      if (!SawF2)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Mulsd, Width::W64, /*RegOnly=*/true);
    case 0x5c: // subsd
      if (!SawF2)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Subsd, Width::W64, /*RegOnly=*/true);
    case 0x5e: // divsd
      if (!SawF2)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::Divsd, Width::W64, /*RegOnly=*/true);
    case 0x6e: // movq xmm, r64
      if (!Opnd16 || !RexW)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::MovqXR, Width::W64, /*RegOnly=*/true);
    case 0x7e: // movq r64, xmm
      if (!Opnd16 || !RexW)
        return fail("unsupported SSE encoding");
      return withModRm(DecOp::MovqRX, Width::W64, /*RegOnly=*/true);
    case 0xaf: // imul r, r/m
      return withModRm(DecOp::ImulRR, WI, /*RegOnly=*/false);
    case 0xb6: // movzx r64, r/m8
      return withModRm(DecOp::MovZX, Width::W8, /*RegOnly=*/false);
    case 0xb7: // movzx r64, r/m16
      return withModRm(DecOp::MovZX, Width::W16, /*RegOnly=*/false);
    case 0xbe: // movsx r64, r/m8
      return withModRm(DecOp::MovSX, Width::W8, /*RegOnly=*/false);
    case 0xbf: // movsx r64, r/m16
      return withModRm(DecOp::MovSX, Width::W16, /*RegOnly=*/false);
    case 0xc0: { // xadd r/m8, r
      size_t L = modrm(Q2);
      if (!L)
        return D;
      D.Op = DecOp::Xadd;
      D.W = Width::W8;
      return done(Q2 + L);
    }
    case 0xc1: { // xadd r/m, r
      size_t L = modrm(Q2);
      if (!L)
        return D;
      D.Op = DecOp::Xadd;
      D.W = WI;
      return done(Q2 + L);
    }
    case 0x38: // 0F 38 F1: crc32 r64, r/m64
      if (Q2 >= Size || Code[Q2] != 0xf1)
        return fail("unknown 0F 38 opcode");
      if (!SawF2)
        return fail("unsupported 0F 38 encoding");
      {
        size_t L = modrm(Q2 + 1);
        if (!L)
          return D;
        D.Op = DecOp::Crc32;
        D.W = RexW ? Width::W64 : Width::W32;
        return done(Q2 + 1 + L);
      }
    default:
      if (B2 >= 0x40 && B2 <= 0x4f) { // cmovcc
        D.CC = static_cast<Cond>(B2 & 0xf);
        return withModRm(DecOp::Cmovcc, WI, /*RegOnly=*/false);
      }
      if (B2 >= 0x80 && B2 <= 0x8f) { // jcc rel32
        if (!rel32At(Q2))
          return fail("truncated jcc rel32");
        D.Op = DecOp::Jcc;
        D.CC = static_cast<Cond>(B2 & 0xf);
        return done(Q2 + 4);
      }
      if (B2 >= 0x90 && B2 <= 0x9f) { // setcc r8
        D.CC = static_cast<Cond>(B2 & 0xf);
        DecodedInst R = withModRm(DecOp::Setcc, Width::W8, /*RegOnly=*/true);
        D.Reg = 0xff; // reg field is an unused extension
        return R;
      }
      return fail("unknown 0F opcode");
    }
  }

  // One-byte ALU opcode block: op*8 + {0: rm8,r8  1: rm,r  2: r8,rm8  3: r,rm}.
  if (B < 0x40 && (B & 7) <= 3) {
    D.AluOp = static_cast<Assembler::Alu>(B >> 3);
    uint8_t Form = B & 7;
    size_t L = modrm(Q);
    if (!L)
      return D;
    D.W = (Form == 0 || Form == 2) ? Width::W8 : WI;
    D.Op = Form <= 1 ? DecOp::AluRR : DecOp::AluRM;
    return done(Q + L);
  }
  if (B >= 0x50 && B <= 0x57) { // push r
    D.Op = DecOp::Push;
    D.Rm = (B & 7) | (RexB ? 8 : 0);
    return done(Q);
  }
  if (B >= 0x58 && B <= 0x5f) { // pop r
    D.Op = DecOp::Pop;
    D.Rm = (B & 7) | (RexB ? 8 : 0);
    return done(Q);
  }
  if (B >= 0xb8 && B <= 0xbf) { // mov r, imm32/imm64
    D.Op = DecOp::MovRI;
    D.Rm = (B & 7) | (RexB ? 8 : 0);
    if (RexW) {
      if (Q + 8 > Size)
        return fail("truncated immediate");
      D.ImmOff = static_cast<uint32_t>(Q);
      D.Imm = static_cast<int64_t>(read64(Code, Q));
      D.W = Width::W64;
      return done(Q + 8);
    }
    if (Q + 4 > Size)
      return fail("truncated immediate");
    D.ImmOff = static_cast<uint32_t>(Q);
    D.Imm = static_cast<int64_t>(read32(Code, Q)); // 32-bit mov zero-extends
    D.W = Width::W32;
    return done(Q + 4);
  }

  switch (B) {
  case 0x63: { // movsxd r64, r/m32
    size_t L = modrm(Q);
    if (!L)
      return D;
    D.Op = DecOp::MovSX;
    D.W = Width::W32;
    return done(Q + L);
  }
  case 0x69:   // imul r, r/m, imm16/32
  case 0x6b: { // imul r, r/m, imm8
    size_t L = modrm(Q);
    if (!L)
      return D;
    unsigned Bytes = B == 0x6b ? 1 : Opnd16 ? 2 : 4;
    if (!immS(Q + L, Bytes))
      return D;
    D.Op = DecOp::ImulRRI;
    D.W = WI;
    return done(Q + L + Bytes);
  }
  case 0x80:   // alu r/m8, imm8
  case 0x81:   // alu r/m, imm16/32
  case 0x83: { // alu r/m, imm8
    size_t L = modrm(Q);
    if (!L)
      return D;
    D.AluOp = static_cast<Assembler::Alu>(D.Reg & 7);
    D.Reg = 0xff;
    unsigned Bytes = B == 0x81 ? (Opnd16 ? 2u : 4u) : 1u;
    if (!immS(Q + L, Bytes))
      return D;
    D.Op = DecOp::AluRI;
    D.W = B == 0x80 ? Width::W8 : WI;
    return done(Q + L + Bytes);
  }
  case 0x84:   // test r/m8, r8
  case 0x85: { // test r/m, r
    size_t L = modrm(Q);
    if (!L)
      return D;
    D.Op = DecOp::TestRR;
    D.W = B == 0x84 ? Width::W8 : WI;
    return done(Q + L);
  }
  case 0x88:   // mov r/m8, r8
  case 0x89: { // mov r/m, r
    size_t L = modrm(Q);
    if (!L)
      return D;
    D.Op = D.RmIsMem ? DecOp::MovMR : DecOp::MovRR;
    D.W = B == 0x88 ? Width::W8 : WI;
    return done(Q + L);
  }
  case 0x8a:   // mov r8, r/m8
  case 0x8b: { // mov r, r/m
    size_t L = modrm(Q);
    if (!L)
      return D;
    if (!D.RmIsMem)
      return fail("unsupported mov direction"); // the encoder uses 88/89
    D.Op = DecOp::MovRM;
    D.W = B == 0x8a ? Width::W8 : WI;
    return done(Q + L);
  }
  case 0x8d: { // lea
    size_t L = modrm(Q);
    if (!L)
      return D;
    if (!D.RmIsMem)
      return fail("lea requires a memory operand");
    D.Op = DecOp::Lea;
    D.W = WI;
    return done(Q + L);
  }
  case 0x90: // nop
    D.Op = DecOp::Nop;
    return done(Q);
  case 0x99: // cdq/cqo
    D.Op = RexW ? DecOp::Cqo : DecOp::Cdq;
    return done(Q);
  case 0xc0:   // shift r/m8, imm8
  case 0xc1: { // shift r/m, imm8
    size_t L = modrm(Q);
    if (!L)
      return D;
    uint8_t Ext = D.Reg & 7;
    D.Reg = 0xff;
    if (Ext != 0 && Ext != 1 && Ext != 4 && Ext != 5 && Ext != 7)
      return fail("unsupported shift extension");
    D.ShiftOp = static_cast<Assembler::Shift>(Ext);
    if (Q + L + 1 > Size)
      return fail("truncated immediate");
    D.ImmOff = static_cast<uint32_t>(Q + L);
    D.Imm = Code[Q + L]; // shift count, unsigned
    D.Op = DecOp::ShiftRI;
    D.W = B == 0xc0 ? Width::W8 : WI;
    return done(Q + L + 1);
  }
  case 0xc3: // ret
    D.Op = DecOp::Ret;
    return done(Q);
  case 0xc6:   // mov r/m8, imm8
  case 0xc7: { // mov r/m, imm16/32
    size_t L = modrm(Q);
    if (!L)
      return D;
    if ((D.Reg & 7) != 0)
      return fail("unsupported group-11 extension");
    D.Reg = 0xff;
    unsigned Bytes = B == 0xc6 ? 1u : Opnd16 ? 2u : 4u;
    if (!immS(Q + L, Bytes))
      return D;
    D.Op = D.RmIsMem ? DecOp::MovMI : DecOp::MovRI;
    D.W = B == 0xc6 ? Width::W8 : WI;
    return done(Q + L + Bytes);
  }
  case 0xd2:   // shift r/m8, cl
  case 0xd3: { // shift r/m, cl
    size_t L = modrm(Q);
    if (!L)
      return D;
    uint8_t Ext = D.Reg & 7;
    D.Reg = 0xff;
    if (Ext != 0 && Ext != 1 && Ext != 4 && Ext != 5 && Ext != 7)
      return fail("unsupported shift extension");
    D.ShiftOp = static_cast<Assembler::Shift>(Ext);
    D.Op = DecOp::ShiftRC;
    D.W = B == 0xd2 ? Width::W8 : WI;
    return done(Q + L);
  }
  case 0xe8: // call rel32
    if (!rel32At(Q))
      return fail("truncated call rel32");
    D.Op = DecOp::CallRel;
    return done(Q + 4);
  case 0xe9: // jmp rel32
    if (!rel32At(Q))
      return fail("truncated jmp rel32");
    D.Op = DecOp::Jmp;
    return done(Q + 4);
  case 0xf6:   // group 3, 8-bit
  case 0xf7: { // group 3
    size_t L = modrm(Q);
    if (!L)
      return D;
    uint8_t Ext = D.Reg & 7;
    D.Reg = 0xff;
    D.W = B == 0xf6 ? Width::W8 : WI;
    switch (Ext) {
    case 0: { // test r/m, imm
      unsigned Bytes = B == 0xf6 ? 1u : Opnd16 ? 2u : 4u;
      if (!immS(Q + L, Bytes))
        return D;
      D.Op = DecOp::TestRI;
      return done(Q + L + Bytes);
    }
    case 2:
      D.Op = DecOp::Not;
      return done(Q + L);
    case 3:
      D.Op = DecOp::Neg;
      return done(Q + L);
    case 4:
    case 5:
    case 6:
    case 7:
      D.Op = DecOp::MulDiv;
      D.GrpExt = Ext;
      return done(Q + L);
    default:
      return fail("unsupported group-3 extension");
    }
  }
  case 0xff: { // group 5: /2 call r/m, /4 jmp r/m
    size_t L = modrm(Q);
    if (!L)
      return D;
    uint8_t Ext = D.Reg & 7;
    D.Reg = 0xff;
    if (Ext != 2 && Ext != 4)
      return fail("unsupported group-5 extension");
    if (D.RmIsMem)
      return fail("unsupported indirect branch through memory");
    D.Op = Ext == 2 ? DecOp::CallReg : DecOp::JmpReg;
    return done(Q + L);
  }
  default:
    return fail("unknown opcode byte");
  }
}

uint32_t DecodedFunction::instAt(size_t Off) const {
  auto It = std::lower_bound(StartOffs.begin(), StartOffs.end(),
                             static_cast<uint32_t>(Off));
  if (It == StartOffs.end() || *It != Off)
    return ~0u;
  return static_cast<uint32_t>(It - StartOffs.begin());
}

DecodedFunction x64::decodeFunction(const uint8_t *Code, size_t Size,
                                    const std::vector<DecodeReloc> &Relocs) {
  DecodedFunction F;

  size_t Pos = 0;
  while (Pos < Size) {
    DecodedInst D = decodeInst(Code, Size, Pos);
    if (D.Error) {
      F.Error = "encoding lint: offset " + std::to_string(Pos) + ": " +
                D.Error + " (byte 0x" + std::to_string(Code[Pos]) + ")";
      return F;
    }
    F.StartOffs.push_back(static_cast<uint32_t>(Pos));
    F.Insts.push_back(D);
    Pos += D.Len;
  }
  // The loop ends exactly at Size: decodeInst never returns a length that
  // overruns the buffer, and a short final instruction fails decode above.
  if (F.Insts.empty())
    return F;

  auto coveredByReloc = [&](size_t Off, size_t Width) {
    for (const DecodeReloc &R : Relocs)
      if (R.Offset <= Off && Off + Width <= R.Offset + R.Width)
        return true;
    return false;
  };

  // Branch/call targets must land on instruction starts. A rel32 field under
  // a relocation is patched at link time and points outside the function.
  for (const DecodedInst &D : F.Insts) {
    if (!D.Rel32Off || coveredByReloc(D.Rel32Off, 4))
      continue;
    size_t Target = D.branchTarget();
    if (Target >= Size || F.instAt(Target) == ~0u) {
      F.Error = "encoding lint: " +
                std::string(D.Op == DecOp::CallRel ? "call" : "branch") +
                " at offset " + std::to_string(D.Rel32Off) +
                " targets offset " + std::to_string(Target) +
                ", which is not an instruction start";
      return F;
    }
  }

  // Relocations must patch bytes strictly inside one instruction (an
  // immediate/displacement field), never an opcode byte.
  for (const DecodeReloc &R : Relocs) {
    auto It = std::upper_bound(F.StartOffs.begin(), F.StartOffs.end(),
                               static_cast<uint32_t>(R.Offset));
    if (It == F.StartOffs.begin()) {
      F.Error = "encoding lint: relocation at offset " +
                std::to_string(R.Offset) + " precedes all instructions";
      return F;
    }
    size_t Idx = static_cast<size_t>(It - F.StartOffs.begin()) - 1;
    size_t Start = F.StartOffs[Idx], End = Start + F.Insts[Idx].Len;
    if (R.Offset == Start || R.Offset + R.Width > End) {
      F.Error = "encoding lint: relocation [" + std::to_string(R.Offset) +
                "," + std::to_string(R.Offset + R.Width) +
                ") does not lie inside one instruction's payload (instruction"
                " at [" +
                std::to_string(Start) + "," + std::to_string(End) + "))";
      return F;
    }
  }

  // Block leaders: entry, every intra-function branch target, and every
  // instruction following a terminator or conditional branch.
  std::vector<uint32_t> Leaders{0};
  for (size_t I = 0; I != F.Insts.size(); ++I) {
    const DecodedInst &D = F.Insts[I];
    bool IntraBranch = (D.Op == DecOp::Jmp || D.Op == DecOp::Jcc) &&
                       !coveredByReloc(D.Rel32Off, 4);
    if (IntraBranch)
      Leaders.push_back(static_cast<uint32_t>(D.branchTarget()));
    if ((D.isTerminator() || D.Op == DecOp::Jcc) && I + 1 != F.Insts.size())
      Leaders.push_back(F.Insts[I + 1].Off);
  }
  std::sort(Leaders.begin(), Leaders.end());
  Leaders.erase(std::unique(Leaders.begin(), Leaders.end()), Leaders.end());

  auto blockOf = [&](size_t Off) {
    auto It = std::lower_bound(Leaders.begin(), Leaders.end(),
                               static_cast<uint32_t>(Off));
    return static_cast<uint32_t>(It - Leaders.begin());
  };

  for (size_t K = 0; K != Leaders.size(); ++K) {
    DecodedBlock Blk;
    Blk.Begin = F.instAt(Leaders[K]);
    Blk.End = K + 1 != Leaders.size()
                  ? F.instAt(Leaders[K + 1])
                  : static_cast<uint32_t>(F.Insts.size());
    const DecodedInst &Last = F.Insts[Blk.End - 1];
    bool HasNext = K + 1 != Leaders.size();
    switch (Last.Op) {
    case DecOp::Jmp:
      if (!coveredByReloc(Last.Rel32Off, 4))
        Blk.Succ[Blk.NumSucc++] = blockOf(Last.branchTarget());
      break;
    case DecOp::Jcc:
      if (!coveredByReloc(Last.Rel32Off, 4))
        Blk.Succ[Blk.NumSucc++] = blockOf(Last.branchTarget());
      if (HasNext)
        Blk.Succ[Blk.NumSucc++] = static_cast<uint32_t>(K + 1);
      break;
    case DecOp::Ret:
    case DecOp::Ud2:
    case DecOp::JmpReg:
      break;
    default:
      if (HasNext)
        Blk.Succ[Blk.NumSucc++] = static_cast<uint32_t>(K + 1);
      break;
    }
    F.Blocks.push_back(Blk);
  }
  return F;
}

void x64::lintOrDie(const uint8_t *Code, size_t Size,
                    const std::vector<DecodeReloc> &Relocs,
                    const std::string &FnName, const char *Who) {
  std::string Err = decodeFunction(Code, Size, Relocs).Error;
  if (Err.empty())
    return;
  fprintf(stderr, "%s: in function '%s'\n", Err.c_str(), FnName.c_str());
  reportFatalError(
      ("machine-code lint failed (" + std::string(Who) + ")").c_str());
}
