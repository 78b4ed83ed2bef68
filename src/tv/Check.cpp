//===- tv/Check.cpp - Trace comparison and validation driver ---------------===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top half of translation validation: drives the two steppers over
/// seeded rounds, compares the observable-event traces, and renders
/// mismatches as minimized counterexamples (function, round, event index,
/// both sides' locations, the symbolic term each side computed, and the
/// concrete witness values).
///
/// Argument generation is small-biased on purpose: loop trip counts, slot
/// offsets and comparison boundaries live near zero, so rounds seeded with
/// 0/1/2/-1/2^31 exercise both sides of most branches within a handful of
/// rounds, while one lane of pure hash randomness guards against
/// coincidental agreement.
///
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "support/Compiler.h"
#include "tv/Sim.h"
#include "tv/Tv.h"
#include "x64/CodeImage.h"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace qcf;
using namespace qcf::tv;
using qir::Type;

namespace {

uint64_t hashStr(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S)
    H = hashU64(H ^ static_cast<uint8_t>(C));
  return H;
}

uint8_t retKindOf(Type T) {
  switch (T) {
  case Type::Void:
    return 0;
  case Type::I1:
    return 1;
  case Type::I8:
    return 8;
  case Type::I16:
    return 16;
  case Type::I32:
    return 32;
  case Type::F64:
    return 65;
  case Type::I128:
  case Type::D128:
    return 66;
  default:
    return 64; // I64 and Ptr
  }
}

const char *kindName(Event::Kind K) {
  switch (K) {
  case Event::Call:
    return "call";
  case Event::Trap:
    return "trap";
  case Event::Ret:
    return "ret";
  case Event::Fault:
    return "fault";
  }
  return "?";
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

std::string evStr(const Event &E) {
  std::string S = kindName(E.K);
  if (E.K == Event::Call)
    S += " " + E.Sym;
  if (E.K == Event::Trap)
    S += " code=" + std::to_string(E.TrapCode);
  if (!E.Where.empty())
    S += " at " + E.Where;
  return S;
}

std::string valueLine(const char *Side, uint64_t V, TermRef T, TermArena &TA) {
  std::string S = std::string("  ") + Side + " " + hex(V);
  if (T != NO_TERM)
    S += " = " + TA.str(T);
  return S + "\n";
}

/// Compares the two traces of one round; "" when they agree.
std::string cmpTraces(const qir::Function &F, unsigned Round, const Trace &QT,
                      const Trace &MT, TermArena &TA) {
  auto rep = [&](size_t Idx, const std::string &Reason,
                 const std::string &Extra = "") {
    std::string S = "tv: mismatch in '" + F.name() + "' (round " +
                    std::to_string(Round) + ", event " + std::to_string(Idx) +
                    "): " + Reason + "\n";
    S += "  qir:      " + (Idx < QT.Events.size() ? evStr(QT.Events[Idx])
                                                  : std::string("<no event>")) +
         "\n";
    S += "  machine:  " + (Idx < MT.Events.size() ? evStr(MT.Events[Idx])
                                                  : std::string("<no event>")) +
         "\n";
    return S + Extra;
  };

  size_t N = std::min(QT.Events.size(), MT.Events.size());
  for (size_t I = 0; I != N; ++I) {
    const Event &Q = QT.Events[I];
    const Event &Mv = MT.Events[I];
    if (Q.K != Mv.K)
      return rep(I, std::string("event kind differs (qir ") + kindName(Q.K) +
                        ", machine " + kindName(Mv.K) + ")");

    switch (Q.K) {
    case Event::Call: {
      if (Q.Sym != Mv.Sym)
        return rep(I, "call target differs ('" + Q.Sym + "' vs '" + Mv.Sym +
                          "')");
      for (unsigned K = 0; K != Q.NumArgs; ++K) {
        bool QS = !Q.Snap[K].empty(), MS = !Mv.Snap[K].empty();
        if (QS && MS) {
          // Both sides pass a private pointer; its numeric value is
          // side-local, the pointed-to bytes must agree.
          size_t L = Q.Snap[K].size();
          if (Mv.Snap[K].size() < L ||
              std::memcmp(Q.Snap[K].data(), Mv.Snap[K].data(), L) != 0) {
            size_t D = 0;
            while (D < L && D < Mv.Snap[K].size() &&
                   Q.Snap[K][D] == Mv.Snap[K][D])
              ++D;
            return rep(I,
                       "argument " + std::to_string(K) +
                           " points to differing memory (first difference at "
                           "byte " +
                           std::to_string(D) + ")",
                       valueLine("qir byte:    ",
                                 D < L ? Q.Snap[K][D] : 0, NO_TERM, TA) +
                           valueLine("machine byte:",
                                     D < Mv.Snap[K].size() ? Mv.Snap[K][D] : 0,
                                     NO_TERM, TA));
          }
          continue;
        }
        if (QS != MS)
          return rep(I, "argument " + std::to_string(K) +
                            ": only one side passes a private pointer",
                     valueLine("qir value:    ", Q.Args[K], Q.ArgT[K], TA) +
                         valueLine("machine value:", Mv.Args[K], Mv.ArgT[K],
                                   TA));
        uint64_t Msk = Q.ArgBits[K] >= 64 ? ~0ull
                                          : ((1ull << Q.ArgBits[K]) - 1);
        if ((Q.Args[K] ^ Mv.Args[K]) & Msk)
          return rep(I, "argument " + std::to_string(K) + " differs",
                     valueLine("qir value:    ", Q.Args[K] & Msk, Q.ArgT[K],
                               TA) +
                         valueLine("machine value:", Mv.Args[K] & Msk,
                                   Mv.ArgT[K], TA));
      }
      if (Q.Digest != Mv.Digest)
        return rep(I, "global stores before the call differ",
                   valueLine("qir digest:    ", Q.Digest, NO_TERM, TA) +
                       valueLine("machine digest:", Mv.Digest, NO_TERM, TA));
      break;
    }

    case Event::Trap:
      if (Q.TrapCode != Mv.TrapCode)
        return rep(I, "trap code differs (" + std::to_string(Q.TrapCode) +
                          " vs " + std::to_string(Mv.TrapCode) + ")");
      if (Q.Digest != Mv.Digest)
        return rep(I, "global stores before the trap differ",
                   valueLine("qir digest:    ", Q.Digest, NO_TERM, TA) +
                       valueLine("machine digest:", Mv.Digest, NO_TERM, TA));
      break;

    case Event::Ret: {
      Type RT = F.returnType();
      if (RT == Type::F64) {
        if (Q.RetLo != Mv.RetF)
          return rep(I, "return value (f64) differs",
                     valueLine("qir value:    ", Q.RetLo, Q.RetLoT, TA) +
                         valueLine("machine value:", Mv.RetF, NO_TERM, TA));
      } else if (RT == Type::I128 || RT == Type::D128) {
        if (Q.RetLo != Mv.RetLo || Q.RetHi != Mv.RetHi)
          return rep(I, "return value (two-lane) differs",
                     valueLine("qir lo:    ", Q.RetLo, Q.RetLoT, TA) +
                         valueLine("machine lo:", Mv.RetLo, Mv.RetLoT, TA) +
                         valueLine("qir hi:    ", Q.RetHi, Q.RetHiT, TA) +
                         valueLine("machine hi:", Mv.RetHi, Mv.RetHiT, TA));
      } else if (RT != Type::Void) {
        uint64_t Msk = qir::typeMask(RT);
        if ((Q.RetLo ^ Mv.RetLo) & Msk)
          return rep(I, "return value differs",
                     valueLine("qir value:    ", Q.RetLo & Msk, Q.RetLoT, TA) +
                         valueLine("machine value:", Mv.RetLo & Msk,
                                   Mv.RetLoT, TA));
      }
      if (Q.Digest != Mv.Digest)
        return rep(I, "global stores at return differ",
                   valueLine("qir digest:    ", Q.Digest, NO_TERM, TA) +
                       valueLine("machine digest:", Mv.Digest, NO_TERM, TA));
      break;
    }

    case Event::Fault:
      break;
    }
  }

  if (QT.Events.size() != MT.Events.size() && !QT.Bounded && !MT.Bounded)
    return rep(N, "trace length differs (qir " +
                      std::to_string(QT.Events.size()) + " events, machine " +
                      std::to_string(MT.Events.size()) + ")");
  return "";
}

/// Per-round argument generation; lanes are flattened in parameter order
/// (two-lane parameters contribute two).
void genArgs(const qir::Function &F, const RoundCtx &RC, TermArena &TA,
             std::vector<uint64_t> &Lanes, std::vector<TermRef> &Terms,
             std::vector<uint8_t> &IsF64) {
  auto intLane = [&](unsigned K, uint64_t Msk) -> uint64_t {
    uint64_t H = mix(RC.Seed, 0xa59 + K * 2);
    switch (H & 7) {
    case 0:
      return 0;
    case 1:
      return 1;
    case 2:
      return 2;
    case 3:
      return Msk; // all ones: -1 at the parameter's width
    case 4:
      return 7;
    case 5:
      return (1ull << 31) & Msk;
    case 6:
      return (0ull - 3) & Msk;
    default:
      return (H >> 8) & Msk;
    }
  };
  static const double F64Pool[8] = {0.0,   1.0,     -1.5,    2.5,
                                    1e9, -0.25, 3.14159, 1e-3};

  for (unsigned P = 0; P != F.numParams(); ++P) {
    Type Ty = F.paramTypes()[P];
    unsigned K = static_cast<unsigned>(Lanes.size());
    switch (Ty) {
    case Type::Ptr:
      Lanes.push_back(ArgSpaceBase + P * ArgSpaceStride);
      Terms.push_back(TA.param(K));
      IsF64.push_back(0);
      break;
    case Type::F64: {
      uint64_t H = mix(RC.Seed, 0xf64 + K * 2);
      uint64_t B;
      std::memcpy(&B, &F64Pool[H & 7], 8);
      Lanes.push_back(B);
      Terms.push_back(TA.param(K));
      IsF64.push_back(1);
      break;
    }
    case Type::I128:
    case Type::D128:
      Lanes.push_back(intLane(K, ~0ull));
      Terms.push_back(TA.param(K));
      IsF64.push_back(0);
      Lanes.push_back(intLane(K + 1, ~0ull));
      Terms.push_back(TA.param(K + 1));
      IsF64.push_back(0);
      break;
    default:
      Lanes.push_back(intLane(K, qir::typeMask(Ty)));
      Terms.push_back(TA.param(K));
      IsF64.push_back(0);
      break;
    }
  }
}

} // namespace

TvOptions TvOptions::fromEnv() {
  TvOptions O;
  if (const char *E = std::getenv("QCF_TV_MAX_TERMS"))
    if (unsigned long long V = std::strtoull(E, nullptr, 10))
      O.MaxTerms = static_cast<size_t>(V);
  if (const char *E = std::getenv("QCF_TV_ROUNDS"))
    if (unsigned long long V = std::strtoull(E, nullptr, 10))
      O.Rounds = static_cast<unsigned>(V);
  return O;
}

std::string tv::validateFunction(const qir::Function &F, const TvFunction &MF,
                                 const TvOptions &Opts, TvStats *Stats) {
  auto T0 = std::chrono::steady_clock::now();
  TvStats Local;
  std::string Result;
  bool Skipped = false;

  std::vector<x64::DecodeReloc> DRel;
  DRel.reserve(MF.Relocs.size());
  for (const TvReloc &R : MF.Relocs)
    DRel.push_back({R.Offset, R.Width});
  x64::DecodedFunction DF = x64::decodeFunction(MF.Code, MF.Size, DRel);

  if (!DF.ok()) {
    Result = "tv: cannot decode machine code for '" + F.name() +
             "': " + DF.Error + "\n";
  } else {
    // Model boundaries: more argument slots than registers, or f64
    // runtime-call arguments (no such runtime symbol exists today), make
    // the function a sound skip, never a silent pass of unchecked code
    // paths — the skip is visible in verify.tv counters.
    unsigned GpSlots = 0, XmmSlots = 0;
    for (unsigned P = 0; P != F.numParams(); ++P) {
      Type Ty = F.paramTypes()[P];
      if (Ty == Type::F64)
        ++XmmSlots;
      else
        GpSlots += qir::isTwoLane(Ty) ? 2 : 1;
    }
    bool F64Callee = false;
    const qir::Module *M = F.parent();
    for (uint32_t I = 0; I != F.numInsts() && !F64Callee; ++I)
      if (F.Insts[I].Op == qir::Opcode::Call)
        for (Type PT : M->symbol(F.callee(F.Insts[I])).ParamTypes)
          if (PT == Type::F64)
            F64Callee = true;

    if (GpSlots > 6 || XmmSlots > 8 || F64Callee) {
      Skipped = true;
    } else {
      std::map<std::string, uint8_t> RK;
      for (qir::SymbolId S = 0; S != M->numSymbols(); ++S)
        RK[M->symbol(S).Name] = retKindOf(M->symbol(S).RetType);

      SlotLayout Slots = computeSlotLayout(F);
      TermArena TA(Opts.MaxTerms);

      for (unsigned R = 0; R != Opts.Rounds && Result.empty() && !Skipped;
           ++R) {
        RoundCtx RC;
        RC.Round = R;
        RC.Seed = mix(Opts.Seed, mix(hashStr(F.name()), 0x9000 + R));
        RC.OracleSeed = mix(RC.Seed, 0x0eac1e);
        RC.RetKind = &RK;

        std::vector<uint64_t> Lanes;
        std::vector<TermRef> Terms;
        std::vector<uint8_t> IsF64;
        genArgs(F, RC, TA, Lanes, Terms, IsF64);

        Trace QT = runQirRound(F, *M, Slots, RC, Lanes, Terms, TA);
        if (QT.Skip) {
          Skipped = true;
          break;
        }
        if (!QT.Error.empty()) {
          Result = "tv: qir stepper error in '" + F.name() + "' (round " +
                   std::to_string(R) + "): " + QT.Error + "\n";
          break;
        }
        Trace MT = runMachRound(DF, MF.Code, MF.Size, MF.Relocs, Slots, RC,
                                Lanes, Terms, IsF64, TA);
        if (MT.Skip) {
          Skipped = true;
          break;
        }
        if (!MT.Error.empty()) {
          Result = "tv: mismatch in '" + F.name() + "' (round " +
                   std::to_string(R) + "): " + MT.Error + "\n";
          break;
        }
        Result = cmpTraces(F, R, QT, MT, TA);
      }
      Local.Terms = TA.size();
    }
    Local.Blocks = DF.Blocks.size();
  }

  if (Skipped)
    Local.Skipped = 1;
  else
    Local.Functions = 1;
  if (!Result.empty())
    Local.Mismatches = 1;
  Local.Ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());

  if (Stats) {
    Stats->Functions += Local.Functions;
    Stats->Blocks += Local.Blocks;
    Stats->Terms += Local.Terms;
    Stats->Mismatches += Local.Mismatches;
    Stats->Skipped += Local.Skipped;
    Stats->Ns += Local.Ns;
  }
  return Result;
}

std::string tv::validateModule(const qir::Module &M,
                               const std::vector<TvFunction> &Fns,
                               const TvOptions &Opts,
                               obs::MetricsRegistry *Metrics) {
  TvStats St;
  std::string FirstErr;
  for (const TvFunction &MF : Fns) {
    const qir::Function *F = M.functionByName(MF.Name);
    if (!F || !MF.Code || MF.Size == 0)
      continue;
    std::string R = validateFunction(*F, MF, Opts, &St);
    if (!R.empty() && FirstErr.empty())
      FirstErr = R;
  }
  if (Metrics) {
    Metrics->counter("verify.tv.functions").add(St.Functions);
    Metrics->counter("verify.tv.blocks").add(St.Blocks);
    Metrics->counter("verify.tv.terms").add(St.Terms);
    Metrics->counter("verify.tv.mismatches").add(St.Mismatches);
    if (St.Skipped)
      Metrics->counter("verify.tv.skipped").add(St.Skipped);
    Metrics->histogram("tv_ns").observe(St.Ns);
  }
  return FirstErr;
}

void tv::validateOrDie(const qir::Module &M, const std::vector<TvFunction> &Fns,
                       obs::MetricsRegistry *Metrics, const char *Who) {
  std::string Err = validateModule(M, Fns, TvOptions::fromEnv(), Metrics);
  if (Err.empty())
    return;
  fprintf(stderr, "%s", Err.c_str());
  reportFatalError(
      ("translation validation failed (" + std::string(Who) + ")").c_str());
}

std::vector<TvFunction> tv::imageFunctions(const x64::CodeImage &Img) {
  std::vector<TvFunction> Out;
  for (const x64::CodeImage::Function &Fn : Img.functions()) {
    TvFunction TF;
    TF.Name = Fn.Name;
    TF.Code = Img.base() + Fn.Offset;
    TF.Size = Fn.Size;
    for (const x64::CodeImage::Reloc &R : Img.relocs())
      if (R.Offset >= Fn.Offset && R.Offset - Fn.Offset < Fn.Size)
        TF.Relocs.push_back({R.Offset - Fn.Offset, 8, R.Symbol});
    Out.push_back(std::move(TF));
  }
  return Out;
}
