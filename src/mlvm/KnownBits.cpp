//===- mlvm/KnownBits.cpp - Known-bits analysis over MLVM-IR ---------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "mlvm/KnownBits.h"

using namespace qcf;
using namespace qcf::mlvm;

uint64_t mlvm::knownZeroBits(const Value *V, unsigned Depth,
                             uint64_t *QueryCount) {
  if (QueryCount)
    ++*QueryCount;
  if (Depth > 6)
    return 0;
  uint64_t TypeZeros = ~qir::typeMask(V->type());
  if (V->kind() == Value::Kind::ConstInt)
    return ~static_cast<const ConstantInt *>(V)->Val | TypeZeros;
  if (V->kind() != Value::Kind::Inst)
    return TypeZeros;
  auto *I = static_cast<const Instruction *>(V);
  switch (I->Op) {
  case IROp::And:
    return knownZeroBits(I->operand(0), Depth + 1, QueryCount) |
           knownZeroBits(I->operand(1), Depth + 1, QueryCount);
  case IROp::Or:
  case IROp::Xor:
    return knownZeroBits(I->operand(0), Depth + 1, QueryCount) &
           knownZeroBits(I->operand(1), Depth + 1, QueryCount);
  case IROp::ZExt:
  case IROp::ICmp:
  case IROp::FCmp:
    return TypeZeros |
           (I->Op == IROp::ZExt
                ? (knownZeroBits(I->operand(0), Depth + 1, QueryCount) |
                   ~qir::typeMask(I->operand(0)->type()))
                : ~1ull);
  case IROp::LShr:
    return TypeZeros;
  default:
    return TypeZeros;
  }
}
