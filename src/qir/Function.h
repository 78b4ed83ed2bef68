//===- qir/Function.h - QIR functions and modules ---------------*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-memory representation of QIR. Following the description of
/// Umbra IR (§III-B, [14]), the representation is optimized for fast
/// generation and linear traversal:
///
///  * instructions are fixed-size 32-byte records stored in one contiguous
///    array per function, in basic-block layout order;
///  * a value is identified by the index of its defining instruction
///    (function parameters are Param instructions in the entry block);
///  * variable-length payloads (phi incomings, call arguments, 128-bit
///    constants) live in side pools referenced by offset+count;
///  * every record carries a free scratch slot that back-ends may use to
///    attach linear ids or home locations without hash-table lookups —
///    the paper calls this out as a key compile-time trick of the
///    DirectEmit back-end (§VII-A2).
///
//===----------------------------------------------------------------------===//

#ifndef QCF_QIR_FUNCTION_H
#define QCF_QIR_FUNCTION_H

#include "qir/Opcode.h"
#include "qir/Type.h"
#include "support/Int128.h"
#include <memory>
#include <string>
#include <vector>

namespace qcf::qir {

/// SSA value id == index of the defining instruction.
using ValueId = uint32_t;
/// Basic block id == index into Function's block array.
using BlockId = uint32_t;

inline constexpr ValueId INVALID_VALUE = 0xffffffffu;
inline constexpr BlockId INVALID_BLOCK = 0xffffffffu;

/// One fixed-size instruction record (32 bytes).
struct Inst {
  Opcode Op;
  Type Ty;          ///< Result type (Void if no result).
  uint8_t Flags;    ///< CmpPred for ICmp/FCmp; otherwise 0.
  uint32_t A;       ///< Operand / block id / pool offset (see Opcode.h).
  uint32_t B;
  uint32_t C;
  uint64_t Imm;     ///< Immediate payload.
  uint32_t Scratch; ///< Free slot for back-end use; not part of IR identity.

  CmpPred cmpPred() const { return static_cast<CmpPred>(Flags); }
};

static_assert(sizeof(Inst) == 32, "instruction records must stay compact");

/// A basic block: a contiguous instruction range [Begin, End) plus its
/// layout position. Predecessors are derived, not stored.
struct Block {
  uint32_t Begin = 0;
  uint32_t End = 0;
  bool Started = false;

  bool empty() const { return Begin == End; }
};

/// One phi incoming edge.
struct PhiIn {
  BlockId Pred = INVALID_BLOCK;
  ValueId Val = INVALID_VALUE;
};

/// Declaration of an external runtime function callable from QIR.
struct RuntimeSig {
  std::string Name;
  Type RetType = Type::Void;
  std::vector<Type> ParamTypes;
  void *Address = nullptr; ///< Resolved host address (null until bound).
};

using SymbolId = uint32_t;

class Module;

/// A QIR function in SSA form.
class Function {
public:
  Function(Module *Parent, std::string Name, std::vector<Type> ParamTypes,
           Type RetType)
      : Parent(Parent), Name(std::move(Name)),
        ParamTypes(std::move(ParamTypes)), RetType(RetType) {}

  Module *parent() const { return Parent; }
  const std::string &name() const { return Name; }
  Type returnType() const { return RetType; }
  const std::vector<Type> &paramTypes() const { return ParamTypes; }
  unsigned numParams() const { return static_cast<unsigned>(ParamTypes.size()); }

  uint32_t numInsts() const { return static_cast<uint32_t>(Insts.size()); }
  uint32_t numBlocks() const { return static_cast<uint32_t>(Blocks.size()); }

  Inst &inst(ValueId V) {
    assert(V < Insts.size() && "value id out of range");
    return Insts[V];
  }
  const Inst &inst(ValueId V) const {
    assert(V < Insts.size() && "value id out of range");
    return Insts[V];
  }

  Block &block(BlockId B) {
    assert(B < Blocks.size() && "block id out of range");
    return Blocks[B];
  }
  const Block &block(BlockId B) const {
    assert(B < Blocks.size() && "block id out of range");
    return Blocks[B];
  }

  /// Type of an SSA value.
  Type valueType(ValueId V) const { return inst(V).Ty; }

  /// The ValueId of parameter \p Index (Param instructions lead the entry
  /// block in parameter order).
  ValueId paramValue(unsigned Index) const {
    assert(Index < ParamTypes.size() && "parameter index out of range");
    return Index; // Builder emits Param instructions first.
  }

  /// Phi incomings of a Phi instruction.
  const PhiIn *phiIncomings(const Inst &I) const {
    assert(I.Op == Opcode::Phi && "not a phi");
    return PhiIns.data() + I.A;
  }
  unsigned numPhiIncomings(const Inst &I) const {
    assert(I.Op == Opcode::Phi && "not a phi");
    return I.B;
  }

  /// Call arguments of a Call instruction.
  const ValueId *callArgs(const Inst &I) const {
    assert(I.Op == Opcode::Call && "not a call");
    return CallArgs.data() + I.A;
  }
  unsigned numCallArgs(const Inst &I) const {
    assert(I.Op == Opcode::Call && "not a call");
    return I.B;
  }
  SymbolId callee(const Inst &I) const {
    assert(I.Op == Opcode::Call && "not a call");
    return static_cast<SymbolId>(I.Imm);
  }

  Int128 i128Constant(const Inst &I) const {
    assert(I.Op == Opcode::ConstI128 && "not an i128 constant");
    return I128Pool[I.A];
  }

  /// Successor blocks of a terminator.
  unsigned numSuccessors(const Inst &Term) const {
    switch (Term.Op) {
    case Opcode::Br:
      return 1;
    case Opcode::CondBr:
      return 2;
    default:
      return 0;
    }
  }
  BlockId successor(const Inst &Term, unsigned I) const {
    if (Term.Op == Opcode::Br) {
      assert(I == 0 && "Br has a single successor");
      return Term.A;
    }
    assert(Term.Op == Opcode::CondBr && I < 2 && "invalid successor index");
    return I == 0 ? Term.B : Term.C;
  }

  /// Terminator of a non-empty block.
  const Inst &terminator(BlockId B) const {
    const Block &Blk = block(B);
    assert(Blk.End > Blk.Begin && "block has no instructions");
    return Insts[Blk.End - 1];
  }

  // Raw storage; the builder and back-ends access these directly for
  // linear traversal.
  std::vector<Inst> Insts;
  std::vector<Block> Blocks;
  std::vector<PhiIn> PhiIns;
  std::vector<ValueId> CallArgs;
  std::vector<Int128> I128Pool;

private:
  Module *Parent;
  std::string Name;
  std::vector<Type> ParamTypes;
  Type RetType;
};

/// A QIR module: functions plus the table of runtime symbols they may call.
class Module {
public:
  /// Creates a function; the returned pointer is owned by the module.
  Function *createFunction(std::string Name, std::vector<Type> ParamTypes,
                           Type RetType) {
    Functions.push_back(std::make_unique<Function>(
        this, std::move(Name), std::move(ParamTypes), RetType));
    return Functions.back().get();
  }

  /// Declares (or re-uses) a runtime symbol and returns its id.
  SymbolId declareRuntime(const std::string &Name, Type RetType,
                          std::vector<Type> ParamTypes,
                          void *Address = nullptr) {
    for (SymbolId I = 0; I != Symbols.size(); ++I)
      if (Symbols[I].Name == Name)
        return I;
    Symbols.push_back({Name, RetType, std::move(ParamTypes), Address});
    return static_cast<SymbolId>(Symbols.size() - 1);
  }

  const RuntimeSig &symbol(SymbolId Id) const {
    assert(Id < Symbols.size() && "symbol id out of range");
    return Symbols[Id];
  }
  RuntimeSig &symbol(SymbolId Id) {
    assert(Id < Symbols.size() && "symbol id out of range");
    return Symbols[Id];
  }
  uint32_t numSymbols() const { return static_cast<uint32_t>(Symbols.size()); }

  const std::vector<std::unique_ptr<Function>> &functions() const {
    return Functions;
  }

  Function *functionByName(const std::string &Name) const {
    for (const auto &F : Functions)
      if (F->name() == Name)
        return F.get();
    return nullptr;
  }

private:
  friend inline void cloneSymbols(const Module &Src, Module &Dst);

  std::vector<std::unique_ptr<Function>> Functions;
  std::vector<RuntimeSig> Symbols;
};

/// Reorders the block table into layout order (see Normalize.cpp).
void normalizeLayout(Function &F);

} // namespace qcf::qir

#endif // QCF_QIR_FUNCTION_H
