//===- perfbench/src/RtInputs.h - Runtime workload inputs -------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The input of a runtime workload (a serverload trace recast as objects
/// on chains) and the end-of-run check shared by rt-graph, rt-copy and
/// rt-threads.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PERFBENCH_RTINPUTS_H
#define DTB_PERFBENCH_RTINPUTS_H

#include "Bench.h"
#include "Layers.h"
#include "Oracle.h"

#include "runtime/Heap.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One object of a runtime workload's input: its gross size, the chain
/// (bucket) it hangs from, and the trigger epoch it is allocated in.
struct RtOp {
  uint32_t Gross = 0;
  uint32_t Bucket = 0;
  uint32_t Epoch = 0;
};

/// A runtime workload's inputs. Epoch e covers trace clocks
/// (e * IntervalBytes, (e + 1) * IntervalBytes]; a collection runs as the
/// mutator enters each new epoch, and bucket k holds the objects that die
/// at or before clock k * IntervalBytes (the last bucket the immortals).
struct RtInputs {
  std::vector<RtOp> Ops;
  uint64_t IntervalBytes = 0;
  uint32_t NumBuckets = 0;
  uint32_t FinalEpoch = 0;
  uint64_t TotalGrossBytes = 0;
  /// Tenant of each op (rt-threads only).
  std::vector<uint32_t> TenantOf;
};

/// The inputs plus their oracle and how long generating the trace took.
struct RtWorkload {
  RtInputs In;
  std::unique_ptr<LivenessOracle> Oracle;
  uint64_t GenerateNanos = 0;
};

/// What one runtime replay measured from outside the program. With several
/// mutator threads, their times are summed.
struct ReplayStats {
  uint64_t WallNanos = 0;
  /// Time the mutator threads ran, summed over them.
  uint64_t MutatorNanos = 0;
  uint64_t AllocatedBytes = 0;
  /// Collections from request to release, and from request to the
  /// callback (world stopped and published).
  uint64_t CollectNanos = 0;
  uint64_t RendezvousNanos = 0;
  uint64_t Collections = 0;
  uint64_t TracedBytes = 0;
  uint64_t ObjectsTraced = 0;
  uint64_t RemsetRoots = 0;
  uint64_t ObjectsMoved = 0;
  uint64_t ReclaimedBytes = 0;
  uint64_t TlabRefills = 0;
  uint64_t BarrierFlushes = 0;
  uint64_t SafepointYields = 0;
  LayerTotals Decisions;
  LayerTotals Queries;
  SampledTimer Alloc;
  SampledTimer Barrier;
};

/// Sets a runtime workload's per-layer metrics: the means over the traced
/// run's timed replays \p Timed, the median trace generation time, and the
/// overhead of the timed replays against the untimed ones.
void setRuntimeLayers(RunResult &R, const std::vector<ReplayStats> &Timed,
                      const std::vector<ReplayStats> &Plain,
                      const dtb::SampleSet &GenerateSeconds);

/// Gross bytes the runtime object for a trace record of \p Size occupies:
/// header, one pointer slot and a raw payload that holds the record's tag.
uint32_t grossBytesFor(uint32_t Size);

/// Generates serverload \p Scenario scaled to \p TotalBytes with a seed
/// derived from \p Seed, and recasts it with epochs of \p IntervalBytes.
RtWorkload makeRtWorkload(const std::string &Scenario, uint64_t TotalBytes,
                          uint64_t IntervalBytes, uint64_t Seed,
                          bool WithTenants);

/// Recasts \p T with epochs of \p IntervalBytes and builds its oracle.
RtWorkload recastTrace(const dtb::trace::Trace &T, uint64_t IntervalBytes,
                       std::vector<uint32_t> TenantOf);

/// Called with the heap and its root table just before the end-of-pass
/// check; the self-test uses it to corrupt the heap.
using HeapHook =
    std::function<void(dtb::runtime::Heap &, dtb::runtime::Object *)>;

/// Replays all of \p W once into a fresh heap under DTBFM and applies
/// every check of rt-graph (the self-test feeds it corrupted inputs).
RunResult replayRtGraphOnce(const RtWorkload &W,
                            dtb::runtime::CollectorKind Collector,
                            const HeapHook &BeforeEndCheck = nullptr);

/// Replays all of \p W (with tenants) once on \p Threads mutator threads
/// (3: one per tenant; 1: all tenants) and applies rt-threads' checks,
/// with the liveness model raised by \p ModelExtraBytes (non-zero only in
/// the self-test).
RunResult replayRtThreadsOnce(const RtWorkload &W, unsigned Threads,
                              uint64_t ModelExtraBytes);

/// Checks the end state of a runtime pass after collectAtBoundary(0):
/// the heap holds exactly the oracle's live objects \p Want plus the root
/// \p Tables, and walking every chain of every table finds each object's
/// tag in the bucket its death put it in, once.
std::string checkRtEndState(const dtb::runtime::Heap &H,
                            const std::vector<dtb::runtime::Object *> &Tables,
                            const RtInputs &In, const LiveSet &Want);

} // namespace perfbench

#endif // DTB_PERFBENCH_RTINPUTS_H
