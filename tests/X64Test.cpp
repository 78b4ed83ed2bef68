//===- tests/X64Test.cpp - x86-64 encoder tests ----------------------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two layers of encoder validation: (1) differential encoding tests
/// against GNU as, byte for byte; (2) execution tests that run assembled
/// code in-process, including the SysV two-register conventions for
/// __int128 / 16-byte struct values that every back-end relies on. The
/// code heap (x64::ExecArena) is tested here too: block ownership, int3
/// fill and reuse, fork isolation and the no-memfd fallback.
///
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"
#include "support/Hash.h"
#include "x64/Asm.h"
#include "x64/CallbackThunk.h"
#include "x64/ExecArena.h"
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace qcf;
using namespace qcf::x64;

namespace {

/// One differential case: QCF-emitted bytes vs. GNU as text.
struct AsmCase {
  std::string Text;
  std::vector<uint8_t> Bytes;
};

std::vector<AsmCase> &casesUnderTest() {
  static std::vector<AsmCase> Cases;
  return Cases;
}

void addCase(const std::string &Text, Assembler &A) {
  casesUnderTest().push_back({Text, A.code()});
  A.clear();
}

/// Assembles all recorded cases with GNU as (one marker-separated blob)
/// and compares byte-for-byte.
void runDifferentialCheck() {
  // 8-byte marker that our encoder never emits in these cases.
  static const uint8_t Marker[] = {0x0f, 0x1f, 0x84, 0x00,
                                   0xde, 0xad, 0xbe, 0xef};
  std::string AsmText = ".text\n";
  for (const AsmCase &C : casesUnderTest()) {
    AsmText += C.Text + "\n";
    AsmText += ".byte 0x0f,0x1f,0x84,0x00,0xde,0xad,0xbe,0xef\n";
  }

  char Dir[] = "/tmp/qcfasmXXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  std::string SPath = std::string(Dir) + "/t.s";
  std::string OPath = std::string(Dir) + "/t.o";
  std::string BPath = std::string(Dir) + "/t.bin";
  {
    std::ofstream Out(SPath);
    Out << AsmText;
  }
  std::string Cmd = "as --64 -o " + OPath + " " + SPath + " 2>/dev/null";
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << "GNU as rejected:\n" << AsmText;
  Cmd = "objcopy -O binary --only-section=.text " + OPath + " " + BPath;
  ASSERT_EQ(std::system(Cmd.c_str()), 0);

  std::ifstream In(BPath, std::ios::binary);
  std::vector<uint8_t> Blob((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
  std::string Cleanup = std::string("rm -rf ") + Dir;
  (void)std::system(Cleanup.c_str());

  // Split on the marker.
  std::vector<std::vector<uint8_t>> Pieces;
  size_t Start = 0;
  for (size_t I = 0; I + sizeof(Marker) <= Blob.size(); ++I) {
    if (std::memcmp(Blob.data() + I, Marker, sizeof(Marker)) == 0) {
      Pieces.emplace_back(Blob.begin() + Start, Blob.begin() + I);
      I += sizeof(Marker) - 1;
      Start = I + 1;
    }
  }
  ASSERT_EQ(Pieces.size(), casesUnderTest().size());

  for (size_t I = 0; I != Pieces.size(); ++I) {
    const AsmCase &C = casesUnderTest()[I];
    if (C.Bytes != Pieces[I]) {
      std::string Ours, Gnu;
      char Hex[8];
      for (uint8_t B : C.Bytes) {
        std::snprintf(Hex, sizeof(Hex), "%02x ", B);
        Ours += Hex;
      }
      for (uint8_t B : Pieces[I]) {
        std::snprintf(Hex, sizeof(Hex), "%02x ", B);
        Gnu += Hex;
      }
      ADD_FAILURE() << "encoding mismatch for `" << C.Text << "`\n  qcf: "
                    << Ours << "\n  gas: " << Gnu;
    }
  }
  casesUnderTest().clear();
}

} // namespace

TEST(X64Encoder, DifferentialAgainstGnuAs) {
  Assembler A;

  A.movRR(Width::W64, Reg::RAX, Reg::RBX);
  addCase("mov rax, rbx", A);
  A.movRR(Width::W64, Reg::R15, Reg::RSP);
  addCase("mov r15, rsp", A);
  A.movRR(Width::W32, Reg::RCX, Reg::R9);
  addCase("mov ecx, r9d", A);
  A.movRR(Width::W16, Reg::RDX, Reg::RSI);
  addCase("mov dx, si", A);
  A.movRR(Width::W8, Reg::RAX, Reg::RSI);
  addCase("mov al, sil", A);

  A.movRI(Reg::RAX, 0x1122334455667788ull);
  addCase("movabs rax, 0x1122334455667788", A);
  A.movRI(Reg::R11, 0x7f);
  addCase("mov r11d, 0x7f", A);
  A.movRI(Reg::RDX, static_cast<uint64_t>(-5));
  addCase("mov rdx, -5", A);
  A.movRI32(Reg::RBP, 0xdeadbeef);
  addCase("mov ebp, 0xdeadbeef", A);

  A.movRM(Width::W64, Reg::RAX, Mem::base(Reg::RBX, 16));
  addCase("mov rax, [rbx+16]", A);
  A.movRM(Width::W64, Reg::RAX, Mem::base(Reg::RSP, 8));
  addCase("mov rax, [rsp+8]", A);
  A.movRM(Width::W64, Reg::RCX, Mem::base(Reg::RBP));
  addCase("mov rcx, [rbp]", A);
  A.movRM(Width::W64, Reg::RCX, Mem::base(Reg::R13));
  addCase("mov rcx, [r13]", A);
  A.movRM(Width::W64, Reg::RCX, Mem::base(Reg::R12, -200));
  addCase("mov rcx, [r12-200]", A);
  A.movRM(Width::W32, Reg::RSI, Mem::baseIndex(Reg::RDI, Reg::RDX, 4, 12));
  addCase("mov esi, [rdi+rdx*4+12]", A);
  A.movRM(Width::W8, Reg::RBX, Mem::baseIndex(Reg::R8, Reg::R9, 1));
  addCase("mov bl, [r8+r9]", A);

  A.movMR(Width::W64, Mem::base(Reg::RDI, 24), Reg::RSI);
  addCase("mov [rdi+24], rsi", A);
  A.movMR(Width::W16, Mem::base(Reg::RAX), Reg::RCX);
  addCase("mov [rax], cx", A);
  A.movMR(Width::W8, Mem::base(Reg::RBX, 1), Reg::RDI);
  addCase("mov [rbx+1], dil", A);
  A.movMI32(Width::W64, Mem::base(Reg::RSP, 32), 0x1234);
  addCase("mov qword ptr [rsp+32], 0x1234", A);
  A.movMI32(Width::W32, Mem::base(Reg::RBP, -4), 77);
  addCase("mov dword ptr [rbp-4], 77", A);
  A.movMI32(Width::W8, Mem::base(Reg::RCX), 0xab);
  addCase("mov byte ptr [rcx], 0xab", A);

  A.movzxRM(Width::W8, Reg::RAX, Mem::base(Reg::RSI, 3));
  addCase("movzx rax, byte ptr [rsi+3]", A);
  A.movzxRM(Width::W16, Reg::R10, Mem::base(Reg::RDI));
  addCase("movzx r10, word ptr [rdi]", A);
  A.movsxRM(Width::W8, Reg::RDX, Mem::base(Reg::RBX));
  addCase("movsx rdx, byte ptr [rbx]", A);
  A.movsxRM(Width::W32, Reg::RCX, Mem::base(Reg::RAX, 4));
  addCase("movsxd rcx, dword ptr [rax+4]", A);
  A.movzxRR(Width::W8, Reg::RAX, Reg::RBP);
  addCase("movzx rax, bpl", A);
  A.movsxRR(Width::W16, Reg::R9, Reg::RDX);
  addCase("movsx r9, dx", A);
  A.movsxRR(Width::W32, Reg::RAX, Reg::RBX);
  addCase("movsxd rax, ebx", A);

  A.lea(Reg::RAX, Mem::baseIndex(Reg::RBX, Reg::RCX, 8, -7));
  addCase("lea rax, [rbx+rcx*8-7]", A);

  A.aluRR(Assembler::Alu::Add, Width::W64, Reg::RAX, Reg::RBX);
  addCase("add rax, rbx", A);
  A.aluRR(Assembler::Alu::Sub, Width::W32, Reg::R14, Reg::RDI);
  addCase("sub r14d, edi", A);
  A.aluRR(Assembler::Alu::And, Width::W64, Reg::RSI, Reg::R15);
  addCase("and rsi, r15", A);
  A.aluRR(Assembler::Alu::Xor, Width::W8, Reg::RBX, Reg::RBP);
  addCase("xor bl, bpl", A);
  A.aluRR(Assembler::Alu::Adc, Width::W64, Reg::RDX, Reg::RCX);
  addCase("adc rdx, rcx", A);
  A.aluRR(Assembler::Alu::Sbb, Width::W64, Reg::RDX, Reg::RCX);
  addCase("sbb rdx, rcx", A);
  A.aluRR(Assembler::Alu::Cmp, Width::W64, Reg::RAX, Reg::R8);
  addCase("cmp rax, r8", A);
  A.aluRI(Assembler::Alu::Add, Width::W64, Reg::RSP, -16);
  addCase("add rsp, -16", A);
  A.aluRI(Assembler::Alu::Sub, Width::W64, Reg::RSP, 1000);
  addCase("sub rsp, 1000", A);
  A.aluRI(Assembler::Alu::Cmp, Width::W32, Reg::R9, 500);
  addCase("cmp r9d, 500", A);
  A.aluRI(Assembler::Alu::And, Width::W8, Reg::RBX, 0x0f);
  addCase("and bl, 0x0f", A);
  A.aluRM(Assembler::Alu::Add, Width::W64, Reg::RAX, Mem::base(Reg::RDI, 8));
  addCase("add rax, [rdi+8]", A);

  A.testRR(Width::W64, Reg::RAX, Reg::RAX);
  addCase("test rax, rax", A);
  A.testRI(Width::W32, Reg::RDX, 1);
  addCase("test edx, 1", A);
  A.negR(Width::W64, Reg::RCX);
  addCase("neg rcx", A);
  A.notR(Width::W32, Reg::R8);
  addCase("not r8d", A);

  A.imulRR(Width::W64, Reg::RAX, Reg::RBX);
  addCase("imul rax, rbx", A);
  A.imulRRI(Width::W64, Reg::RCX, Reg::RDX, 100);
  addCase("imul rcx, rdx, 100", A);
  A.imulRRI(Width::W32, Reg::RAX, Reg::RAX, 100000);
  addCase("imul eax, eax, 100000", A);
  A.mulR(Width::W64, Reg::RSI);
  addCase("mul rsi", A);
  A.imulR(Width::W64, Reg::R11);
  addCase("imul r11", A);
  A.divR(Width::W64, Reg::RBX);
  addCase("div rbx", A);
  A.idivR(Width::W32, Reg::RCX);
  addCase("idiv ecx", A);
  A.cqo();
  addCase("cqo", A);
  A.cdq();
  addCase("cdq", A);

  A.shiftRC(Assembler::Shift::Shl, Width::W64, Reg::RAX);
  addCase("shl rax, cl", A);
  A.shiftRC(Assembler::Shift::Sar, Width::W32, Reg::R10);
  addCase("sar r10d, cl", A);
  A.shiftRI(Assembler::Shift::Shr, Width::W64, Reg::RDX, 5);
  addCase("shr rdx, 5", A);
  A.shiftRI(Assembler::Shift::Ror, Width::W64, Reg::RSI, 32);
  addCase("ror rsi, 32", A);
  A.shiftRI(Assembler::Shift::Rol, Width::W64, Reg::R9, 3);
  addCase("rol r9, 3", A);

  A.crc32RR(Reg::RAX, Reg::RDX);
  addCase("crc32 rax, rdx", A);
  A.crc32RR(Reg::R9, Reg::R10);
  addCase("crc32 r9, r10", A);

  A.setcc(Cond::E, Reg::RAX);
  addCase("sete al", A);
  A.setcc(Cond::L, Reg::RSI);
  addCase("setl sil", A);
  A.setcc(Cond::A, Reg::R12);
  addCase("seta r12b", A);
  A.cmovcc(Cond::NE, Width::W64, Reg::RAX, Reg::RBX);
  addCase("cmovne rax, rbx", A);

  A.jmpReg(Reg::RAX);
  addCase("jmp rax", A);
  A.callReg(Reg::R10);
  addCase("call r10", A);
  A.ret();
  addCase("ret", A);
  A.ud2();
  addCase("ud2", A);
  A.pushR(Reg::RBP);
  addCase("push rbp", A);
  A.pushR(Reg::R15);
  addCase("push r15", A);
  A.popR(Reg::RBX);
  addCase("pop rbx", A);
  A.popR(Reg::R12);
  addCase("pop r12", A);

  A.lockXaddMR(Width::W64, Mem::base(Reg::RDI), Reg::RAX);
  addCase("lock xadd [rdi], rax", A);
  A.lockXaddMR(Width::W32, Mem::base(Reg::R8, 4), Reg::R9);
  addCase("lock xadd [r8+4], r9d", A);

  A.movsdXM(Xmm::XMM0, Mem::base(Reg::RAX, 8));
  addCase("movsd xmm0, [rax+8]", A);
  A.movsdMX(Mem::base(Reg::RSP, 16), Xmm::XMM7);
  addCase("movsd [rsp+16], xmm7", A);
  A.movsdXX(Xmm::XMM1, Xmm::XMM9);
  addCase("movsd xmm1, xmm9", A);
  A.movqXR(Xmm::XMM2, Reg::RDI);
  addCase("movq xmm2, rdi", A);
  A.movqRX(Reg::RAX, Xmm::XMM3);
  addCase("movq rax, xmm3", A);
  A.addsd(Xmm::XMM0, Xmm::XMM1);
  addCase("addsd xmm0, xmm1", A);
  A.subsd(Xmm::XMM4, Xmm::XMM12);
  addCase("subsd xmm4, xmm12", A);
  A.mulsd(Xmm::XMM5, Xmm::XMM6);
  addCase("mulsd xmm5, xmm6", A);
  A.divsd(Xmm::XMM0, Xmm::XMM15);
  addCase("divsd xmm0, xmm15", A);
  A.ucomisd(Xmm::XMM1, Xmm::XMM2);
  addCase("ucomisd xmm1, xmm2", A);
  A.cvtsi2sd(Xmm::XMM0, Reg::RCX);
  addCase("cvtsi2sd xmm0, rcx", A);
  A.cvttsd2si(Reg::RDX, Xmm::XMM8);
  addCase("cvttsd2si rdx, xmm8", A);
  A.xorps(Xmm::XMM0, Xmm::XMM0);
  addCase("xorps xmm0, xmm0", A);

  // Emit ".intel_syntax noprefix" via a wrapper: GNU as needs the directive.
  for (AsmCase &C : casesUnderTest())
    C.Text = ".intel_syntax noprefix\n" + C.Text;
  // (The directive is idempotent per line group.)
  runDifferentialCheck();
}

// --- Execution tests ---------------------------------------------------------

namespace {

/// Copies assembled code into a code-heap block and returns the entry.
template <typename FnT>
FnT makeCallable(Assembler &A, ExecArena::Block &Mem) {
  A.finalize();
  Mem = ExecArena::global().allocate(A.size());
  std::memcpy(Mem.Rw, A.code().data(), A.size());
  Mem.seal();
  return reinterpret_cast<FnT>(const_cast<uint8_t *>(Mem.Rx));
}

} // namespace

TEST(X64Exec, AddFunction) {
  Assembler A;
  A.movRR(Width::W64, Reg::RAX, Reg::RDI);
  A.aluRR(Assembler::Alu::Add, Width::W64, Reg::RAX, Reg::RSI);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<int64_t (*)(int64_t, int64_t)>(A, Mem);
  EXPECT_EQ(Fn(2, 40), 42);
  EXPECT_EQ(Fn(-7, 7), 0);
}

TEST(X64Exec, LoopWithLabels) {
  // Sum 0..n-1.
  Assembler A;
  Label Head = A.newLabel(), Done = A.newLabel();
  A.movRI32(Reg::RAX, 0);
  A.movRI32(Reg::RCX, 0);
  A.bind(Head);
  A.aluRR(Assembler::Alu::Cmp, Width::W64, Reg::RCX, Reg::RDI);
  A.jcc(Cond::GE, Done);
  A.aluRR(Assembler::Alu::Add, Width::W64, Reg::RAX, Reg::RCX);
  A.aluRI(Assembler::Alu::Add, Width::W64, Reg::RCX, 1);
  A.jmp(Head);
  A.bind(Done);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<int64_t (*)(int64_t)>(A, Mem);
  EXPECT_EQ(Fn(10), 45);
  EXPECT_EQ(Fn(0), 0);
  EXPECT_EQ(Fn(1000), 499500);
}

TEST(X64Exec, Crc32MatchesIntrinsic) {
  Assembler A;
  A.movRR(Width::W64, Reg::RAX, Reg::RDI);
  A.crc32RR(Reg::RAX, Reg::RSI);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<uint64_t (*)(uint64_t, uint64_t)>(A, Mem);
  EXPECT_EQ(Fn(0, 0x1122334455667788ull),
            crc32u64(0, 0x1122334455667788ull));
  EXPECT_EQ(Fn(0xf45f077febc43d1bull, 42), crc32u64(0xf45f077febc43d1bull, 42));
}

extern "C" int64_t qcfTestCallTarget(int64_t A, int64_t B) { return A * B + 1; }

TEST(X64Exec, CallHostFunctionViaRegister) {
  Assembler A;
  A.pushR(Reg::RAX); // align stack to 16 at the call
  A.movRI(Reg::R10, reinterpret_cast<uint64_t>(&qcfTestCallTarget));
  A.callReg(Reg::R10);
  A.popR(Reg::RCX);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<int64_t (*)(int64_t, int64_t)>(A, Mem);
  EXPECT_EQ(Fn(6, 7), 43);
}

extern "C" __int128 qcfTestI128Target(__int128 A, __int128 B) { return A + B; }

TEST(X64Exec, Int128TwoRegisterAbi) {
  // Verify the lane convention: (lo1=rdi, hi1=rsi, lo2=rdx, hi2=rcx) and
  // the result in rax (lo) : rdx (hi). This is the assumption all QCF
  // back-ends make when expanding i128 call arguments into slots.
  Assembler A;
  A.pushR(Reg::RAX);
  A.movRI(Reg::R10, reinterpret_cast<uint64_t>(&qcfTestI128Target));
  A.callReg(Reg::R10);
  A.popR(Reg::RCX);
  A.ret();
  ExecArena::Block Mem;
  struct Pair {
    uint64_t Lo, Hi;
  };
  auto *Fn =
      makeCallable<Pair (*)(uint64_t, uint64_t, uint64_t, uint64_t)>(A, Mem);
  Pair R = Fn(/*lo1*/ ~0ull, /*hi1*/ 1, /*lo2*/ 2, /*hi2*/ 3);
  // (2^64 + 2^64-1) + (3*2^64 + 2) = 5*2^64 + 1
  EXPECT_EQ(R.Lo, 1u);
  EXPECT_EQ(R.Hi, 5u);
}

extern "C" qcf::rt::StringVal qcfTestStrId(qcf::rt::StringVal S) { return S; }

TEST(X64Exec, StringValTwoRegisterAbi) {
  // StringVal by value: lanes in rdi:rsi, returned in rax:rdx.
  Assembler A;
  A.pushR(Reg::RAX);
  A.movRI(Reg::R10, reinterpret_cast<uint64_t>(&qcfTestStrId));
  A.callReg(Reg::R10);
  A.popR(Reg::RCX);
  A.ret();
  ExecArena::Block Mem;
  struct Pair {
    uint64_t Lo, Hi;
  };
  auto *Fn = makeCallable<Pair (*)(uint64_t, uint64_t)>(A, Mem);
  rt::StringVal S = rt::StringVal::makeRef("hello world!", 12);
  Pair R = Fn(S.lo(), S.hi());
  rt::StringVal Back = rt::StringVal::fromLanes(R.Lo, R.Hi);
  EXPECT_EQ(Back.str(), "hello world!");
}

TEST(X64Exec, FloatArithmetic) {
  // double f(double a, double b) { return a * b - a; }
  Assembler A;
  A.movsdXX(Xmm::XMM2, Xmm::XMM0);
  A.mulsd(Xmm::XMM2, Xmm::XMM1);
  A.subsd(Xmm::XMM2, Xmm::XMM0);
  A.movsdXX(Xmm::XMM0, Xmm::XMM2);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<double (*)(double, double)>(A, Mem);
  EXPECT_DOUBLE_EQ(Fn(3.0, 5.0), 12.0);
}

TEST(X64Exec, AtomicAddReturnsOldValue) {
  Assembler A;
  A.movRR(Width::W64, Reg::RAX, Reg::RSI);
  A.lockXaddMR(Width::W64, Mem::base(Reg::RDI), Reg::RAX);
  A.ret();
  ExecArena::Block Mem;
  auto *Fn = makeCallable<int64_t (*)(int64_t *, int64_t)>(A, Mem);
  int64_t Cell = 100;
  EXPECT_EQ(Fn(&Cell, 5), 100);
  EXPECT_EQ(Cell, 105);
}

TEST(X64Thunk, BindsContext) {
  ThunkAllocator Thunks;
  int Ctx = 1234;
  auto Handler = [](void *C, uint64_t A, uint64_t B, uint64_t, uint64_t,
                    uint64_t) -> uint64_t {
    return *static_cast<int *>(C) + A * 10 + B;
  };
  void *Thunk = Thunks.createThunk(Handler, &Ctx);
  auto *Fn = reinterpret_cast<uint64_t (*)(uint64_t, uint64_t)>(Thunk);
  EXPECT_EQ(Fn(5, 6), 1234u + 56u);
}

TEST(X64Thunk, ManyThunksSpanPages) {
  ThunkAllocator Thunks;
  std::vector<std::pair<void *, uint64_t>> All;
  static uint64_t Ctxs[200];
  auto Handler = [](void *C, uint64_t, uint64_t, uint64_t, uint64_t,
                    uint64_t) -> uint64_t { return *static_cast<uint64_t *>(C); };
  for (uint64_t I = 0; I != 200; ++I) {
    Ctxs[I] = I * 3;
    All.push_back({Thunks.createThunk(Handler, &Ctxs[I]), I * 3});
  }
  for (auto &[Thunk, Expected] : All) {
    auto *Fn = reinterpret_cast<uint64_t (*)()>(Thunk);
    EXPECT_EQ(Fn(), Expected);
  }
}

TEST(X64ExecArena, BlockMoveSemantics) {
  ExecArena &Heap = ExecArena::global();
  const uint64_t Live0 = Heap.liveBytes();
  ExecArena::Block A = Heap.allocate(100);
  const uint8_t *Rx = A.Rx;
  ASSERT_NE(Rx, nullptr);
  EXPECT_EQ(A.Size, 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Rx) % 64, 0u);
  ExecArena::Block B = std::move(A);
  EXPECT_EQ(B.Rx, Rx);
  EXPECT_FALSE(A);
  ExecArena::Block C = Heap.allocate(1);
  C = std::move(B); // Frees C's own block.
  EXPECT_EQ(C.Rx, Rx);
  EXPECT_FALSE(B);
  EXPECT_GT(Heap.liveBytes(), Live0);
  C = ExecArena::Block();
  EXPECT_EQ(Heap.liveBytes(), Live0);
}

TEST(X64ExecArena, FreedBlockTrapsThenIsReused) {
  ExecArena &Heap = ExecArena::global();
  ExecArena::Block Pin = Heap.allocate(64); // Keeps the chunk mapped.
  ExecArena::Block A = Heap.allocate(200);
  std::memset(A.Rw, 0x90, A.Size);
  A.seal();
  const uint8_t *Rx = A.Rx;
  A = ExecArena::Block();
  for (size_t I = 0; I != 200; ++I)
    ASSERT_EQ(Rx[I], 0xcc) << "byte " << I << " of a freed block";
  ExecArena::Block B = Heap.allocate(200);
  EXPECT_EQ(B.Rx, Rx);
}

// Two forked children each allocate, write a distinct pattern, and meet
// at a pipe barrier before checking their own bytes through Rx: a heap
// that carves both blocks from a chunk mapped before fork() hands them
// the same shared memory, and one child reads the other's code.
TEST(X64ExecArena, ForkedChildrenNeverShareCode) {
  ExecArena &Heap = ExecArena::global();
  constexpr size_t N = 256;
  ExecArena::Block Parent = Heap.allocate(N);
  std::memset(Parent.Rw, 0x5a, N);
  Parent.seal();
  int Ready[2], Go[2];
  ASSERT_EQ(::pipe(Ready), 0);
  ASSERT_EQ(::pipe(Go), 0);
  pid_t Kids[2];
  for (int K = 0; K != 2; ++K) {
    Kids[K] = ::fork();
    ASSERT_GE(Kids[K], 0);
    if (Kids[K] == 0) {
      const uint8_t Pattern = uint8_t(0xa0 + K);
      ExecArena::Block B = Heap.allocate(N);
      std::memset(B.Rw, Pattern, N);
      B.seal();
      char C = 0;
      bool Ok = ::write(Ready[1], &C, 1) == 1 && ::read(Go[0], &C, 1) == 1;
      for (size_t I = 0; I != N; ++I)
        Ok = Ok && B.Rx[I] == Pattern && Parent.Rx[I] == 0x5a;
      ::_exit(Ok ? 0 : 1);
    }
  }
  char C = 0;
  for (int K = 0; K != 2; ++K)
    ASSERT_EQ(::read(Ready[0], &C, 1), 1);
  ASSERT_EQ(::write(Go[1], "gg", 2), 2);
  for (pid_t Pid : Kids) {
    int Status = 0;
    ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "a child saw bytes it did not write";
  }
  for (size_t I = 0; I != N; ++I)
    ASSERT_EQ(Parent.Rx[I], 0x5a) << "byte " << I << " of the parent block";
  for (int Fd : {Ready[0], Ready[1], Go[0], Go[1]})
    ::close(Fd);
}

// Without memfd every block is a private mapping that seal() flips to
// read/execute. A child whose RLIMIT_NOFILE sits at its lowest free
// descriptor cannot create a memfd (EMFILE) and must still get code that
// runs; every chunk it inherited is retired by the fork.
TEST(X64ExecArena, PrivateMappingWithoutMemfd) {
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    int Probe = ::open("/dev/null", O_RDONLY);
    ::close(Probe);
    rlimit Lim;
    if (Probe < 0 || ::getrlimit(RLIMIT_NOFILE, &Lim) != 0)
      ::_exit(2);
    Lim.rlim_cur = rlim_t(Probe);
    if (::setrlimit(RLIMIT_NOFILE, &Lim) != 0)
      ::_exit(3);
    if (::syscall(SYS_memfd_create, "probe", 0) >= 0 || errno != EMFILE)
      ::_exit(4);
    ExecArena &Heap = ExecArena::global();
    const uint64_t Live0 = Heap.liveBytes();
    {
      ExecArena::Block B = Heap.allocate(6);
      if (B.Rw != B.Rx) // One view: not a memfd chunk.
        ::_exit(5);
      const uint8_t MovEax42Ret[] = {0xb8, 42, 0, 0, 0, 0xc3};
      std::memcpy(B.Rw, MovEax42Ret, sizeof(MovEax42Ret));
      B.seal();
      if (reinterpret_cast<int (*)()>(const_cast<uint8_t *>(B.Rx))() != 42)
        ::_exit(6);
    }
    ::_exit(Heap.liveBytes() == Live0 ? 0 : 7);
  }
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
}

TEST(X64Encoder, LabelFixupsInBothDirections) {
  Assembler A;
  Label Fwd = A.newLabel(), Back = A.newLabel();
  A.bind(Back);
  A.nop();
  A.jmp(Fwd);
  A.jcc(Cond::E, Back);
  A.bind(Fwd);
  A.ret();
  A.finalize();
  // jmp rel32 at offset 1..5; target = offset 11 (after jcc) => rel = 11-6=5.
  EXPECT_EQ(A.code()[1], 0xe9);
  int32_t Rel;
  std::memcpy(&Rel, A.code().data() + 2, 4);
  EXPECT_EQ(Rel, 6); // jcc is 6 bytes; target right after it.
}

TEST(X64Encoder, InvertCond) {
  EXPECT_EQ(invert(Cond::E), Cond::NE);
  EXPECT_EQ(invert(Cond::L), Cond::GE);
  EXPECT_EQ(invert(Cond::A), Cond::BE);
  EXPECT_EQ(invert(invert(Cond::S)), Cond::S);
}
