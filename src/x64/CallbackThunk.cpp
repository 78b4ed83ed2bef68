//===- x64/CallbackThunk.cpp - Closure thunks for host callbacks ----------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//

#include "x64/CallbackThunk.h"
#include "x64/Asm.h"
#include <cstring>

using namespace qcf;
using namespace qcf::x64;

void *ThunkAllocator::createThunk(Handler H, void *Ctx) {
  Assembler A;
  // Shift integer args right: r9<-r8, r8<-rcx, rcx<-rdx, rdx<-rsi,
  // rsi<-rdi, then rdi<-ctx; tail-call the handler.
  A.movRR(Width::W64, Reg::R9, Reg::R8);
  A.movRR(Width::W64, Reg::R8, Reg::RCX);
  A.movRR(Width::W64, Reg::RCX, Reg::RDX);
  A.movRR(Width::W64, Reg::RDX, Reg::RSI);
  A.movRR(Width::W64, Reg::RSI, Reg::RDI);
  A.movRI(Reg::RDI, reinterpret_cast<uint64_t>(Ctx));
  A.movRI(Reg::R10, reinterpret_cast<uint64_t>(H));
  A.jmpReg(Reg::R10);
  A.finalize();

  ExecArena::Block &B =
      Thunks.emplace_back(ExecArena::global().allocate(A.size()));
  std::memcpy(B.Rw, A.code().data(), A.size());
  B.seal();
  return const_cast<uint8_t *>(B.Rx);
}
