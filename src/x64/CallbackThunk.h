//===- x64/CallbackThunk.h - Closure thunks for host callbacks --*- C++ -*-===//
//
// Part of the QCF project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny machine-code trampolines that bind a context pointer to a C
/// handler, producing a plain function pointer. The interpreter back-end
/// uses these so that runtime functions taking generated-code callbacks
/// (e.g. rt_sort's comparator, §III-A) can "call into" interpreted
/// functions exactly like into JIT-compiled ones.
///
//===----------------------------------------------------------------------===//

#ifndef QCF_X64_CALLBACKTHUNK_H
#define QCF_X64_CALLBACKTHUNK_H

#include "x64/ExecArena.h"
#include <cstdint>
#include <vector>

namespace qcf::x64 {

/// Builds thunks of the shape:
///   thunk(a0..a4) -> handler(ctx, a0..a4)
/// i.e. the integer arguments are shifted one slot right and the bound
/// context pointer becomes the first argument. At most 5 pass-through
/// integer arguments are supported (6 GP argument registers total).
class ThunkAllocator {
public:
  using Handler = uint64_t (*)(void *Ctx, uint64_t, uint64_t, uint64_t,
                               uint64_t, uint64_t);

  /// Creates a thunk, sealed and callable at once; the returned pointer
  /// stays valid as long as this allocator lives.
  void *createThunk(Handler H, void *Ctx);

private:
  std::vector<ExecArena::Block> Thunks; ///< One code-heap block each.
};

} // namespace qcf::x64

#endif // QCF_X64_CALLBACKTHUNK_H
