//===- perfbench/src/Oracle.h - Liveness from the trace alone ---*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's correctness oracle: which objects are live at a clock,
/// computed by sweeping a generated trace's (birth, death, size) records.
/// It shares no code with the simulator's HeapModel or the runtime's
/// collectors, so it can judge both.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PERFBENCH_ORACLE_H
#define DTB_PERFBENCH_ORACLE_H

#include "trace/Trace.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using dtb::trace::AllocClock;

/// Objects and bytes of a set of records.
struct LiveSet {
  uint64_t Objects = 0;
  uint64_t Bytes = 0;
  bool operator==(const LiveSet &) const = default;
};

/// Live objects of a trace at any clock: an object is live at T when it
/// was born at or before T and dies after T (the trace's own rule).
class LivenessOracle {
public:
  /// \p SizeOf gives the bytes a record occupies: the trace size for the
  /// simulator, the gross object size for the runtime.
  LivenessOracle(
      const dtb::trace::Trace &T,
      const std::function<uint64_t(const dtb::trace::AllocationRecord &)>
          &SizeOf);

  /// Objects born at or before \p Now that die after it.
  LiveSet liveAt(AllocClock Now) const;

  /// Objects that die after \p Now, whenever they were born — the live set
  /// once the whole trace has been allocated.
  LiveSet diesAfter(AllocClock Now) const;

private:
  /// Cumulative objects/bytes of all records with a key at or before \p T
  /// (\p Keys ascending; \p Prefix[i] covers the first i keys).
  static LiveSet prefixAt(const std::vector<AllocClock> &Keys,
                          const std::vector<uint64_t> &Prefix, AllocClock T);

  std::vector<AllocClock> Births; // Ascending (trace order).
  std::vector<uint64_t> BirthBytes; // Prefix sums, size + 1.
  std::vector<AllocClock> Deaths;   // Finite deaths, ascending.
  std::vector<uint64_t> DeathBytes; // Prefix sums, size + 1.
};

} // namespace perfbench

#endif // DTB_PERFBENCH_ORACLE_H
