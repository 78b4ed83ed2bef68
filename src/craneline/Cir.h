//===- craneline/Cir.h - Craneline IR ---------------------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CIR, the Craneline back-end's IR, modeled on Cranelift IR (§VI):
///
///  * a small type universe — scalar integers (8..128 bits) and f64; no
///    pointer or aggregate types (the front-end lowers addresses to i64
///    arithmetic and 16-byte values to i64 pairs);
///  * fixed-size instruction records stored in one continuous array, with
///    array-backed linked lists for block layout and instruction order
///    ("some more expensive data structures ... to allow for easier
///    modification", §VI);
///  * basic blocks carry *block parameters* instead of phi instructions;
///    jumps and branches pass arguments;
///  * stack slots are declared outside the instruction stream;
///  * no intrinsics: operations without a CIR instruction become helper
///    function calls, except for the optional native extensions (crc32,
///    overflow-trapping arithmetic, full multiplication — Table II).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_CRANELINE_CIR_H
#define QCF_CRANELINE_CIR_H

#include "support/Compiler.h"
#include <cstdint>
#include <string>
#include <vector>

namespace qcf::craneline {

/// CIR value types.
enum class CType : uint8_t { I8, I16, I32, I64, I128, F64 };

inline unsigned ctypeBytes(CType Ty) {
  switch (Ty) {
  case CType::I8:
    return 1;
  case CType::I16:
    return 2;
  case CType::I32:
    return 4;
  case CType::I64:
  case CType::F64:
    return 8;
  case CType::I128:
    return 16;
  }
  QCF_UNREACHABLE("invalid ctype");
}

inline const char *ctypeName(CType Ty) {
  switch (Ty) {
  case CType::I8:
    return "i8";
  case CType::I16:
    return "i16";
  case CType::I32:
    return "i32";
  case CType::I64:
    return "i64";
  case CType::I128:
    return "i128";
  case CType::F64:
    return "f64";
  }
  QCF_UNREACHABLE("invalid ctype");
}

/// Integer comparison conditions (Cranelift IntCC).
enum class IntCC : uint8_t {
  Eq,
  Ne,
  Slt,
  Sle,
  Sgt,
  Sge,
  Ult,
  Ule,
  Ugt,
  Uge,
};

/// Float comparison conditions (ordered except Ne).
enum class FloatCC : uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// CIR opcodes.
enum class COp : uint16_t {
  // Constants.
  Iconst, ///< Imm = value (canonically masked); Ty any int type ≤ 64 bits.
  Iconst128, ///< A = index into the i128 pool.
  F64const,  ///< Imm = bit pattern.
  // Integer arithmetic.
  Iadd,
  Isub,
  Imul,
  Ineg,
  Band,
  Bor,
  Bxor,
  Bnot,
  Ishl,
  Ushr,
  Sshr,
  RotrOp,
  // Division (helper-lowered for i128; inline otherwise; traps).
  Sdiv,
  Udiv,
  Srem,
  // Comparison / selection.
  IcmpOp,  ///< Flags = IntCC.
  FcmpOp,  ///< Flags = FloatCC.
  SelectOp,
  // Conversions.
  Uextend,
  Sextend,
  Ireduce,
  FcvtFromSint,
  FcvtToSint,
  BitcastOp, ///< i64 <-> f64.
  // Floating point.
  Fadd,
  Fsub,
  Fmul,
  Fdiv,
  Fneg,
  // Memory (addresses are i64 values).
  LoadOp,    ///< Ty = loaded type; A = address, Imm = offset.
  StoreOp,   ///< A = address, B = value, Imm = offset.
  StackAddr, ///< A = stack slot index, Imm = offset.
  AtomicAdd, ///< A = address, B = value; returns the old value.
  // Calls: Imm = absolute callee address (hard-wired, §VI-B);
  // A = arg offset in the value pool, B = arg count, C = signature id.
  CallInd,
  RetHi, ///< Second result (rdx) of a two-register-returning call; A = call.
  // Wide-value plumbing (Cranelift's iconcat/isplit).
  Iconcat,  ///< (i64 lo, i64 hi) -> i128
  IsplitLo, ///< i128 -> i64 (low half)
  IsplitHi, ///< i128 -> i64 (high half)
  Umulhi,   ///< high 64 bits of unsigned 64x64 multiply
  // Native extensions (Table II); only created when enabled.
  Crc32Native,   ///< (i64 seed, i64 value) -> i64
  IaddOvfTrap,   ///< overflow-trapping signed add (i32/i64/i128)
  IsubOvfTrap,
  ImulOvfTrap,   ///< i32/i64 only; i128 stays a helper call
  ImulFull,      ///< 64x64 -> 128-bit full multiply (lo, hi) as i128
  // Control flow. Block args live in the value pool.
  Jump,   ///< A = target block, B = arg offset, C = arg count.
  Brif,   ///< A = condition; B/C = edge ids into the EdgeRefs table.
  Return, ///< A = value or INVALID, B = second lane value or INVALID.
  TrapOp, ///< Imm = trap code.
};

using CValue = uint32_t;
using CBlock = uint32_t;
using CInstId = uint32_t;
inline constexpr uint32_t C_INVALID = 0xffffffffu;

/// Fixed-size instruction record.
struct CInst {
  COp Op;
  CType Ty;
  uint8_t Flags;
  CValue A = C_INVALID;
  uint32_t B = C_INVALID;
  uint32_t C = C_INVALID;
  uint64_t Imm = 0;
};

/// Where a value comes from.
struct CValueData {
  CType Ty;
  bool IsBlockParam;
  uint32_t Def;      ///< Defining instruction, or owning block.
  uint32_t ParamIdx; ///< For block params.
};

/// One branch edge: target block plus arguments.
struct CEdge {
  CBlock Target;
  uint32_t ArgOff;
  uint32_t ArgCount;
};

/// Call signature: how many argument slots, and the return shape.
struct CSig {
  uint8_t NumArgSlots;  ///< 64-bit slots (i128 counts twice).
  uint8_t RetLanes;     ///< 0, 1, or 2 result registers.
};

/// A CIR function. Instruction order inside a block and the block layout
/// are array-backed linked lists, as in Cranelift.
class CFunction {
public:
  std::string Name;

  // Value/instruction/block storage.
  std::vector<CInst> Insts;
  std::vector<CValueData> Values;
  std::vector<CValue> InstResult; ///< Inst id -> result value (or invalid).

  // Array-backed linked lists: next/prev instruction per inst id, and the
  // first/last instruction per block.
  std::vector<uint32_t> InstNext, InstPrev;
  struct BlockData {
    uint32_t FirstInst = C_INVALID;
    uint32_t LastInst = C_INVALID;
    std::vector<CValue> Params;
  };
  std::vector<BlockData> Blocks;
  std::vector<uint32_t> BlockNext; ///< Layout order linked list.
  CBlock FirstBlock = C_INVALID, LastBlock = C_INVALID;

  // Pools.
  std::vector<CValue> ValuePool; ///< Jump/call argument lists.
  std::vector<CEdge> Edges;
  std::vector<CSig> Sigs;
  std::vector<std::pair<uint64_t, uint64_t>> I128Pool; ///< (lo, hi)

  // Stack slots (declared outside the instruction stream).
  std::vector<uint32_t> StackSlotSizes;

  // Function signature (as 64-bit lanes).
  unsigned NumParamSlots = 0;
  std::vector<CValue> ParamValues; ///< One per entry block param.
  uint8_t RetLanes = 0;
  bool RetIsF64 = false;

  // --- Construction helpers ------------------------------------------------

  CBlock createBlock() {
    Blocks.emplace_back();
    BlockNext.push_back(C_INVALID);
    if (FirstBlock == C_INVALID) {
      FirstBlock = LastBlock = static_cast<CBlock>(Blocks.size() - 1);
    } else {
      BlockNext[LastBlock] = static_cast<CBlock>(Blocks.size() - 1);
      LastBlock = static_cast<CBlock>(Blocks.size() - 1);
    }
    return static_cast<CBlock>(Blocks.size() - 1);
  }

  CValue addBlockParam(CBlock B, CType Ty) {
    CValue V = static_cast<CValue>(Values.size());
    Values.push_back({Ty, true, B,
                      static_cast<uint32_t>(Blocks[B].Params.size())});
    Blocks[B].Params.push_back(V);
    return V;
  }

  /// Appends an instruction to \p B and creates its result value (or
  /// C_INVALID for result-less instructions).
  CValue append(CBlock B, CInst I, bool HasResult) {
    uint32_t Id = static_cast<uint32_t>(Insts.size());
    Insts.push_back(I);
    InstNext.push_back(C_INVALID);
    InstPrev.push_back(Blocks[B].LastInst);
    InstResult.push_back(C_INVALID);
    if (Blocks[B].LastInst != C_INVALID)
      InstNext[Blocks[B].LastInst] = Id;
    else
      Blocks[B].FirstInst = Id;
    Blocks[B].LastInst = Id;
    if (!HasResult)
      return C_INVALID;
    CValue V = static_cast<CValue>(Values.size());
    Values.push_back({I.Ty, false, Id, 0});
    InstResult[Id] = V;
    return V;
  }

  CType valueType(CValue V) const { return Values[V].Ty; }
};

} // namespace qcf::craneline

#endif // QCF_CRANELINE_CIR_H
