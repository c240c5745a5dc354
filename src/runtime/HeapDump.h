//===- runtime/HeapDump.h - Heap demographics introspection ----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Introspection over a live heap's age demographics — the information a
/// threatening-boundary policy acts on, made visible. Buckets the
/// resident objects by age (now − birth) on a log scale and reports,
/// per bucket, resident and reachable bytes; the difference is garbage
/// that a boundary older than the bucket would reclaim.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_RUNTIME_HEAPDUMP_H
#define DTB_RUNTIME_HEAPDUMP_H

#include "core/AllocClock.h"
#include "runtime/Degradation.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dtb {
namespace runtime {

class Heap;

/// One age band of the demographics report.
struct AgeBand {
  /// Age range [AgeLo, AgeHi) in allocated bytes.
  core::AllocClock AgeLo = 0;
  core::AllocClock AgeHi = 0;
  uint64_t ResidentObjects = 0;
  uint64_t ResidentBytes = 0;
  /// Bytes in this band reachable from the roots.
  uint64_t ReachableBytes = 0;
};

/// The full demographics snapshot.
struct HeapDemographics {
  uint64_t ResidentObjects = 0;
  uint64_t ResidentBytes = 0;
  uint64_t ReachableBytes = 0;
  size_t RememberedSetEntries = 0;
  /// Oldest-first age bands, log2-scaled starting at \c BaseAgeBytes.
  std::vector<AgeBand> Bands;
  /// Degradation-ladder summary: total events ever recorded (including
  /// ones dropped from the heap's bounded log), per-kind counts over the
  /// retained log, and pre-rendered lines for the most recent events.
  uint64_t DegradationEventsTotal = 0;
  std::array<uint64_t, NumDegradationKinds> DegradationCounts{};
  std::vector<std::string> RecentDegradations;
  /// Open-incremental-cycle state (Heap::incrementalCycleInfo mirror;
  /// all-zero when no cycle is open). A heap dumped mid-cycle is mostly
  /// explained by these: the boundary/black window says what is
  /// threatened, the gray backlog says how far marking got.
  bool CycleActive = false;
  core::AllocClock CycleBoundary = 0;
  core::AllocClock CycleBlackClock = 0;
  uint64_t CycleGrayObjects = 0;
  uint64_t CycleGrayBytes = 0;
  uint64_t CyclePendingGrayObjects = 0;
  uint64_t CycleTracedBytes = 0;
  uint64_t CycleQuanta = 0;
  uint64_t CycleBudgetBytes = 0;
  /// Multi-mutator runtime state (all-zero / "not-collecting" for a heap
  /// with no registered contexts): the phase machine, registered context
  /// count, and the TLAB/safepoint counters from Heap::mutatorStats().
  std::string Phase = "not-collecting";
  uint64_t MutatorContexts = 0;
  uint64_t SafepointRendezvous = 0;
  uint64_t TlabBlocksResident = 0;
  uint64_t TlabCarvedBytes = 0;
  uint64_t TlabWastedBytes = 0;
  uint64_t PublishedObjects = 0;
  uint64_t BarrierFlushes = 0;
  /// One row per registered context (registration order), from
  /// MutatorContext::stats(). The telemetry-gated fields (waste,
  /// high-water, polls, parks) read zero under -DDTB_ENABLE_TELEMETRY=OFF.
  struct MutatorRow {
    uint64_t Id = 0;
    std::string State = "at-safepoint";
    uint64_t Allocations = 0;
    uint64_t AllocatedBytes = 0;
    uint64_t TlabRefills = 0;
    uint64_t TlabWastedBytes = 0;
    uint64_t BarrierBufferedEntries = 0;
    uint64_t BarrierHighWater = 0;
    uint64_t BarrierFlushes = 0;
    uint64_t SafepointYields = 0;
    uint64_t SafepointPolls = 0;
    uint64_t Parks = 0;
    uint64_t TriggeredCollections = 0;
  };
  std::vector<MutatorRow> Mutators;
  /// The most recent safepoint rendezvous (Serial 0 = none yet).
  uint64_t RendezvousSerial = 0;
  double RendezvousTtspMillis = 0.0;
  uint64_t RendezvousArrivals = 0;
  uint64_t RendezvousStragglerContext = 0;
  std::string RendezvousStraggler = "none";
  /// Flight-recorder tail: total events ever recorded plus pre-rendered
  /// lines for the retained ones (oldest first).
  uint64_t FlightEventsRecorded = 0;
  std::vector<std::string> FlightEvents;
};

/// Collects a demographics snapshot of \p H. \p BaseAgeBytes is the width
/// of the youngest band; each subsequent band doubles.
HeapDemographics collectDemographics(const Heap &H,
                                     core::AllocClock BaseAgeBytes = 4096);

/// Pretty-prints the snapshot with text bars to \p Out.
void printDemographics(const HeapDemographics &Demo, std::FILE *Out);

} // namespace runtime
} // namespace dtb

#endif // DTB_RUNTIME_HEAPDUMP_H
