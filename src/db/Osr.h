//===- db/Osr.h - Morsel-boundary tier swap (mid-query OSR) -----*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The swap protocol for mid-query adaptive recompilation: a pipeline's
/// entry point is published through a \ref TierCell, and the pipeline
/// loop re-reads the cell at each morsel pickup. When the optimizing
/// tier's compile lands, the executor publishes the new entry; the next
/// morsel runs optimized code. Because all pipeline state lives in runtime
/// structs behind the ctx pointer (hash tables, sort buffers, output
/// buffer) and none in the generated frame, a pipeline function is
/// re-entrant at morsel granularity — the only contract a swap must
/// respect is that both entries interpret the ctx slot layout identically
/// (\ref TierEntry::Contract).
///
/// Threads: one thread runs a pipeline, and it both publishes into and
/// reads from the cell, so the cell is a plain pointer. The only
/// cross-thread hand-off is the optimized module itself, which a compile
/// worker installs through backend::TierUp; TierUp's own synchronisation
/// makes the module's code visible before installed() returns it. Morsels
/// are taken in order by one loop, so each range runs exactly once, by
/// exactly one entry. See DESIGN.md "Fast now, optimized later".
///
//===----------------------------------------------------------------------===//

#ifndef QCF_DB_OSR_H
#define QCF_DB_OSR_H

#include <cstdint>
#include <string>

namespace qcf::db {

/// Signature of every compiled pipeline entry point: scan [Begin, End) of
/// the pipeline's source with all cross-morsel state behind Ctx.
using PipeFn = void (*)(void *Ctx, int64_t Begin, int64_t End);

/// Tier ids used in TierEntry and the per-tier execution accounting.
enum OsrTier : uint32_t { OsrTierFast = 0, OsrTierOpt = 1 };

/// One published pipeline entry: the code pointer, which tier it belongs
/// to, and its context-compatibility token. Immutable once published.
struct TierEntry {
  PipeFn Fn = nullptr;
  uint32_t Tier = OsrTierFast;
  /// Context-compatibility contract: two entries may be swapped for one
  /// another only if their tokens match, i.e. they were compiled from the
  /// same QIR pipeline function against the same ctx slot layout. See
  /// \ref osrContract.
  uint64_t Contract = 0;
};

/// The contract token of pipeline function \p FnName under a plan with
/// \p NumCtxSlots context slots. Both tiers of a swap are compiled from
/// the same plan module, so matching tokens are guaranteed by
/// construction inside the executor; the check exists to reject foreign
/// entries (a different pipeline, a plan recompiled against a different
/// slot layout) if a future tier source wires in incompatible code.
inline uint64_t osrContract(const std::string &FnName, uint32_t NumCtxSlots) {
  uint64_t H = 1469598103934665603ull; // FNV-1a
  for (char C : FnName) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  H ^= uint64_t(NumCtxSlots) * 0x9e3779b97f4a7c15ull;
  return H;
}

/// The cell the pipeline loop re-reads at every morsel pickup. Holds a
/// pointer to an immutable TierEntry owned by the executor frame (which
/// outlives the pipeline).
class TierCell {
public:
  explicit TierCell(const TierEntry *Initial) : Cur(Initial) {}

  TierCell(const TierCell &) = delete;
  TierCell &operator=(const TierCell &) = delete;

  /// The entry to run the next morsel with.
  const TierEntry *load() const { return Cur; }

  /// Publishes \p Next as the current entry. Refuses (returning false,
  /// cell unchanged) when \p Next is null, has no code, or violates the
  /// context-compatibility contract of the currently published entry.
  bool publish(const TierEntry *Next) {
    if (!Next || !Next->Fn || Next->Contract != Cur->Contract)
      return false;
    Cur = Next;
    return true;
  }

private:
  const TierEntry *Cur;
};

} // namespace qcf::db

#endif // QCF_DB_OSR_H
