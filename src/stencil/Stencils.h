//===- stencil/Stencils.h - Pre-built copy-and-patch stencils ---*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stencil table for the copy-and-patch back-end: pre-encoded x86-64
/// fragments (built once per process through x64::Assembler, the moral
/// equivalent of a build-time stencil generator — tools/qcf_stencilgen
/// dumps the same table for inspection) plus the patch records describing
/// which bytes the compiler must fill in. Fragments come in two flavours:
///
///  * structural fragments — frame-slot loads/stores, prologue/epilogue,
///    continuation jumps, the runtime-call core, trap stubs — which the
///    compiler strings together around every operation, and
///  * operation cores — one fragment per (opcode x type x variant)
///    implementing the operation on a fixed register convention:
///    operand A in RAX(/RDX for the high lane), operand B in RCX(/R8),
///    select conditions in R9, f64 operands in XMM0/XMM1; results land in
///    RAX(/RDX) or XMM0.
///
/// Each core is built by calling x64/QirLower.h, the same lowering
/// DirectEmit emits through, so the two back-ends share one instruction
/// sequence per opcode and the canonical form that header defines.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_STENCIL_STENCILS_H
#define QCF_STENCIL_STENCILS_H

#include "qir/Opcode.h"
#include "qir/Type.h"
#include "x64/QirLower.h"
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace qcf::stencil {

/// One patchable field inside a fragment (the record the shared lowering
/// emits).
using x64::Patch;

const char *patchKindName(Patch::Kind K);

/// A pre-encoded machine-code fragment plus its patch records.
struct Fragment {
  std::vector<uint8_t> Bytes;
  std::vector<Patch> Patches;
};

/// Variant discriminators for Select cores.
enum : uint8_t { SelOneLane = 0, SelTwoLane = 1, SelF64 = 2 };
/// Gep core variants: 0 = no index; 1/2/4/8 = lea with that scale;
/// GepGenericScale = imul by an arbitrary imm32 scale, then lea.
enum : uint8_t { GepGenericScale = 9 };

/// The process-wide stencil table. Built eagerly on first use (thread-safe
/// function-local static); immutable afterwards.
class StencilTable {
public:
  static const StencilTable &get();

  // --- Structural fragments -----------------------------------------------
  Fragment Prologue;    ///< push rbp; mov rbp,rsp; sub rsp,imm32 (Imm32)
  Fragment Epilogue;    ///< mov rsp,rbp; pop rbp; ret
  Fragment Ud2;         ///< ud2
  Fragment Jmp;         ///< jmp rel32 (Rel32)
  Fragment TestJnz;     ///< test rax,rax; jnz rel32 (Rel32)
  /// jcc rel32 (Rel32), indexed by qir::CmpPred: the fused ICmp+CondBr
  /// form, branching on the comparison's still-live flags (setcc, movzx,
  /// and the home-slot store between cmp and branch touch no flags).
  Fragment JccPred[10];
  Fragment CallR10;     ///< movabs r10,imm64 (Imm64); call r10
  Fragment TrapStub[2]; ///< [0]=overflow, [1]=div-by-zero: mov edi,code;
                        ///< movabs r10,imm64 (Imm64: rt_trap); call; ud2

  Fragment LdA;    ///< mov rax, [rbp+disp32] (Disp32)
  Fragment LdAHi;  ///< mov rdx, [rbp+disp32]
  Fragment LdB;    ///< mov rcx, [rbp+disp32]
  Fragment LdBHi;  ///< mov r8, [rbp+disp32]
  Fragment LdCond; ///< mov r9, [rbp+disp32]
  Fragment LdAX;   ///< movsd xmm0, [rbp+disp32]
  Fragment LdBX;   ///< movsd xmm1, [rbp+disp32]
  Fragment StA;    ///< mov [rbp+disp32], rax
  Fragment StAHi;  ///< mov [rbp+disp32], rdx
  Fragment StAX;   ///< movsd [rbp+disp32], xmm0
  Fragment LdTmp;  ///< mov r11, [rbp+disp32] (phi shadow moves)
  Fragment StTmp;  ///< mov [rbp+disp32], r11

  Fragment LdArg[6];     ///< mov <argreg[i]>, [rbp+disp32]
  Fragment StParamGp[6]; ///< mov [rbp+disp32], <argreg[i]>
  Fragment StParamXmm[8]; ///< movsd [rbp+disp32], xmm<i>

  Fragment ConstA;   ///< movabs rax, imm64 (Imm64)
  Fragment ConstAHi; ///< movabs rdx, imm64 (Imm64)
  Fragment LeaSlotA; ///< lea rax, [rbp+disp32] (Disp32)

  // --- Operation cores ----------------------------------------------------

  /// Looks up an operation core; the discriminators are the operand/result
  /// type and a per-opcode variant (compare predicate, select class, Gep
  /// scale, extension source/target type). Asserts on a missing core.
  const Fragment &core(qir::Opcode Op, uint8_t A = 0, uint8_t B = 0) const {
    assert(A < NumVariants && B < NumVariants && "stencil variant too large");
    size_t Slot = slotOf(Op, A, B);
    assert(Slot < CoreIndex.size() && "missing stencil core");
    uint16_t Pos = CoreIndex[Slot];
    assert(Pos != 0 && "missing stencil core");
    return Cores[Pos - 1].second;
  }

  static uint32_t coreKey(qir::Opcode Op, uint8_t A, uint8_t B) {
    return (static_cast<uint32_t>(Op) << 16) | (static_cast<uint32_t>(A) << 8) |
           B;
  }

  /// All cores, sorted by coreKey() so qcf_stencilgen dumps are
  /// deterministic.
  const std::vector<std::pair<uint32_t, Fragment>> &cores() const {
    return Cores;
  }

private:
  /// Each discriminator is a qir::Type, a qir::CmpPred or a variant enum
  /// above; all stay below this bound.
  static constexpr unsigned NumVariants = 10;
  static size_t slotOf(qir::Opcode Op, uint8_t A, uint8_t B) {
    return (static_cast<size_t>(Op) * NumVariants + A) * NumVariants + B;
  }

  StencilTable();
  void add(qir::Opcode Op, uint8_t A, uint8_t B, Fragment F);
  std::vector<std::pair<uint32_t, Fragment>> Cores;
  /// 1 + the position in Cores of each (opcode, A, B); 0 when absent.
  std::vector<uint16_t> CoreIndex;
};

} // namespace qcf::stencil

#endif // QCF_STENCIL_STENCILS_H
