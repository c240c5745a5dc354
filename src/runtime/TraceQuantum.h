//===- runtime/TraceQuantum.h - Budgeted trace slicing ---------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trace-quantum slicer both collectors share. The trace runs serially
/// on the collecting thread with the world stopped: the scavenge's pause is
/// bounded by the bytes traced above the threatening boundary, which is
/// small by construction, so the scan is not spread over threads.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_TRACEQUANTUM_H
#define DTB_RUNTIME_TRACEQUANTUM_H

#include "runtime/Object.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dtb {
namespace runtime {

/// Runs one budget-bounded trace *quantum* over \p Gray: repeatedly takes
/// the longest prefix whose cumulative gross bytes fit the remaining
/// budget (always at least one item, so an oversized object cannot stall
/// the trace) and scans it as one round. Scan(Object *) appends the
/// children it discovers to \p Gray. Returns the gross bytes scanned;
/// \p Gray keeps any unscanned tail when the budget runs out first.
/// BudgetBytes == 0 means unbounded (monolithic trace).
///
/// When budgeted, \p Gray is kept sorted by birth (unique per object), so
/// the prefix each quantum selects depends only on the heap — this is what
/// makes a budgeted trace bit-identical to the monolithic one.
template <typename ScanFn>
uint64_t runTraceQuantum(std::vector<Object *> &Gray, uint64_t BudgetBytes,
                         const ScanFn &Scan) {
  const bool Canonical = BudgetBytes != 0;
  auto ByBirth = [](const Object *A, const Object *B) {
    return A->birth() < B->birth();
  };
  if (Canonical)
    std::sort(Gray.begin(), Gray.end(), ByBirth);

  uint64_t Scanned = 0;
  size_t Head = 0;
  while (Head != Gray.size() && (BudgetBytes == 0 || Scanned < BudgetBytes)) {
    uint64_t Remaining = Canonical ? BudgetBytes - Scanned : UINT64_MAX;
    size_t Take = 0;
    uint64_t RoundBytes = 0;
    while (Head + Take != Gray.size()) {
      uint64_t Gross = Gray[Head + Take]->grossBytes();
      if (Take != 0 && RoundBytes + Gross > Remaining)
        break;
      RoundBytes += Gross;
      Take += 1;
      if (RoundBytes >= Remaining)
        break;
    }
    Scanned += RoundBytes;

    // Scan appends to Gray, so index rather than hold iterators.
    const size_t OldSize = Gray.size();
    for (size_t End = Head + Take; Head != End; ++Head)
      Scan(Gray[Head]);
    if (Canonical && Gray.size() != OldSize) {
      std::sort(Gray.begin() + static_cast<ptrdiff_t>(OldSize), Gray.end(),
                ByBirth);
      std::inplace_merge(Gray.begin() + static_cast<ptrdiff_t>(Head),
                         Gray.begin() + static_cast<ptrdiff_t>(OldSize),
                         Gray.end(), ByBirth);
    }
  }
  Gray.erase(Gray.begin(), Gray.begin() + static_cast<ptrdiff_t>(Head));
  return Scanned;
}

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_TRACEQUANTUM_H
