//===- perfbench/src/RtGraph.cpp - One mutator on the direct heap ---------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// rt-graph (mark-sweep) and rt-copy (copying): one mutator on the direct
/// Heap API replays frontend lifetimes under DTBFM. Objects are reachable
/// only through chains hanging off one old root table, and every
/// allocation stores one old-to-young pointer through writeSlot, so the
/// barrier, the remembered-set scan, the trace and the sweep (or the
/// evacuation) all do real work. The heap's own trigger is off; the
/// mutator requests a collection through runAtSafepoint at every epoch
/// boundary and times it. One pass replays the whole trace into a fresh
/// heap; each collection and the end-of-pass check are operations.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "RtInputs.h"
#include "Workloads.h"

#include "core/Policies.h"
#include "runtime/Heap.h"

#include <cstring>

using namespace perfbench;
using namespace dtb;

namespace {

constexpr uint64_t TotalBytes = 150'000'000;
constexpr uint64_t IntervalBytes = 256 * 1024;
/// The frontend scenario's Trace_max : trigger ratio (48 KB : 16 KB).
constexpr uint64_t TraceMaxBytes = 3 * IntervalBytes;
/// Share of the trace replayed by the set-up warm-up.
constexpr size_t WarmupDivisor = 10;

/// Replays ops [0, Count) into a fresh heap. Collection pauses go to
/// \p Pauses; every collection's check and the end-of-pass check go to
/// \p Result (when non-null).
template <bool Traced>
ReplayStats runPass(const RtWorkload &W, runtime::CollectorKind Collector,
                    size_t Count, std::vector<double> &Pauses,
                    uint64_t &ResidentMax, RunResult *Result,
                    const HeapHook &BeforeEndCheck = nullptr) {
  const RtInputs &In = W.In;
  ReplayStats P;

  runtime::HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.Collector = Collector;
  runtime::Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = TraceMaxBytes;
  auto Owned = std::make_unique<TimedPolicy>(
      core::createPolicy("dtbfm", PolicyConfig));
  Owned->setTimedQueries(Traced);
  TimedPolicy &Policy = *Owned;
  H.setPolicy(std::move(Owned));

  // The global root is the table's only reference; the copying collector
  // updates it when the table moves.
  runtime::Object *Table = H.allocate(In.NumBuckets, 0);
  H.addGlobalRoot(&Table);
  uint64_t TableGross = Table->grossBytes();

  auto barrier = [&](runtime::Object *Source, uint32_t Slot,
                     runtime::Object *Value) {
    if constexpr (Traced)
      P.Barrier.run([&] { H.writeSlot(Source, Slot, Value); });
    else
      H.writeSlot(Source, Slot, Value);
  };

  // Resident bytes after each collection, checked once the pass is over.
  std::vector<std::pair<uint32_t, uint64_t>> AfterCollect;
  uint32_t Epoch = 0;
  uint64_t Begin = nowNanos();
  for (size_t I = 0; I != Count; ++I) {
    const RtOp &Op = In.Ops[I];
    if (Op.Epoch != Epoch) {
      // Entering a new epoch: the chains of the objects that died by its
      // start go, then the collection runs.
      while (Epoch != Op.Epoch)
        barrier(Table, ++Epoch, nullptr);
      uint64_t Requested = nowNanos();
      uint64_t Entered = 0;
      core::ScavengeRecord Record;
      H.runAtSafepoint([&](runtime::Heap &Stopped) {
        Entered = nowNanos();
        ResidentMax = std::max(ResidentMax, Stopped.residentBytes());
        Record = Stopped.collect();
      });
      uint64_t Released = nowNanos();
      Pauses.push_back(nanosToMillis(Released - Requested));
      P.CollectNanos += Released - Requested;
      P.RendezvousNanos += Entered - Requested;
      P.Collections += 1;
      P.TracedBytes += Record.TracedBytes;
      P.ReclaimedBytes += Record.ReclaimedBytes;
      const runtime::CollectionStats &Stats = H.lastCollectionStats();
      P.ObjectsTraced += Stats.ObjectsTraced;
      P.RemsetRoots += Stats.RememberedSetRoots;
      P.ObjectsMoved += Stats.ObjectsMoved;
      AfterCollect.push_back({Epoch, H.residentBytes()});
    }
    runtime::Object *O;
    if constexpr (Traced)
      O = P.Alloc.run([&] { return H.allocate(1, Op.Gross - 32); });
    else
      O = H.allocate(1, Op.Gross - 32);
    uint64_t Tag = I;
    std::memcpy(O->rawData(), &Tag, sizeof(Tag));
    barrier(O, 0, Table->slot(Op.Bucket));
    barrier(Table, Op.Bucket, O);
  }
  P.WallNanos = nowNanos() - Begin;
  P.MutatorNanos = P.WallNanos;
  for (size_t I = 0; I != Count; ++I)
    P.AllocatedBytes += In.Ops[I].Gross;
  P.Decisions = Policy.Decisions;
  P.Queries = Policy.Queries;

  if (!Result)
    return P;
  for (const auto &[At, Resident] : AfterCollect) {
    LiveSet Live = W.Oracle->liveAt(At * In.IntervalBytes);
    Result->operation(
        Resident >= Live.Bytes + TableGross
            ? ""
            : "collection at epoch " + std::to_string(At) + " left " +
                  std::to_string(Resident) + " resident bytes, below the " +
                  std::to_string(Live.Bytes + TableGross) + " live");
  }
  if (BeforeEndCheck)
    BeforeEndCheck(H, Table);
  H.collectAtBoundary(0);
  Result->operation(checkRtEndState(
      H, {Table}, In, W.Oracle->diesAfter(Epoch * In.IntervalBytes)));
  return P;
}

} // namespace

RunResult perfbench::runRtGraph(const RunOptions &Options,
                                runtime::CollectorKind Collector) {
  RunResult Result;

  // Set-up: generate the trace, recast it, build the oracle and warm the
  // allocator and collector up on a prefix; repeated for a median.
  dtb::SampleSet SetupSeconds, GenerateSeconds;
  RtWorkload W;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    W = RtWorkload(); // Free the previous repetition's inputs first.
    uint64_t Begin = nowNanos();
    W = makeRtWorkload("frontend", TotalBytes, IntervalBytes, Options.Seed,
                       /*WithTenants=*/false);
    std::vector<double> Pauses;
    uint64_t Ignored = 0;
    runPass<false>(W, Collector, W.In.Ops.size() / WarmupDivisor, Pauses,
                   Ignored, nullptr);
    SetupSeconds.add(nanosToSeconds(nowNanos() - Begin));
    GenerateSeconds.add(nanosToSeconds(W.GenerateNanos));
  }

  std::vector<ReplayStats> Timed, Plain;
  std::vector<RoundSample> Samples;
  uint64_t ResidentMax = 0;
  uint64_t PhaseBegin = nowNanos();
  size_t All = W.In.Ops.size();
  while (!measuredEnough(Samples, PhaseBegin, Options.Seconds)) {
    bool Timing = Options.Traced && Timed.size() == Plain.size();
    RoundSample Sample;
    ReplayStats P =
        Timing ? runPass<true>(W, Collector, All, Sample.PausesMs,
                               ResidentMax, &Result)
               : runPass<false>(W, Collector, All, Sample.PausesMs,
                                ResidentMax, &Result);
    Sample.Seconds = nanosToSeconds(P.WallNanos);
    Sample.MB = toMB(P.AllocatedBytes);
    Samples.push_back(std::move(Sample));
    (Timing ? Timed : Plain).push_back(std::move(P));
  }

  // The workload exists to make the trace layer work: a run in which no
  // collection traced (or, copying, moved) anything measured nothing.
  uint64_t Traced = 0, Moved = 0;
  for (const auto *Passes : {&Timed, &Plain})
    for (const ReplayStats &P : *Passes) {
      Traced += P.ObjectsTraced;
      Moved += P.ObjectsMoved;
    }
  if (Traced == 0 ||
      (Collector == runtime::CollectorKind::Copying && Moved == 0)) {
    Result.Correct = false;
    Result.Problems.push_back("the collections traced or moved no objects");
  }

  if (!Options.Traced)
    setEndToEnd(Result, SetupSeconds, Samples, ResidentMax);
  else
    setRuntimeLayers(Result, Timed, Plain, GenerateSeconds);
  return Result;
}

RunResult perfbench::replayRtGraphOnce(const RtWorkload &W,
                                       runtime::CollectorKind Collector,
                                       const HeapHook &BeforeEndCheck) {
  RunResult Result;
  std::vector<double> Pauses;
  uint64_t ResidentMax = 0;
  runPass<false>(W, Collector, W.In.Ops.size(), Pauses, ResidentMax,
                 &Result, BeforeEndCheck);
  return Result;
}
