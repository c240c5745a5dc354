//===- perfbench/src/RtInputs.cpp - Runtime workload inputs ---------------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a serverload trace into a runtime workload: every record becomes
/// one object that hangs at the head of a chain off a root table. Chain
/// (bucket) k holds the objects that die in trigger epoch k, so the
/// mutator kills exactly the dead objects by clearing one table slot per
/// epoch, and the reachable set at each epoch boundary is the oracle's
/// live set at that clock.
///
//===----------------------------------------------------------------------===//

#include "RtInputs.h"

#include "runtime/Object.h"
#include "serverload/ServerLoad.h"

#include <algorithm>
#include <cstring>

using namespace perfbench;
using namespace dtb;

uint32_t perfbench::grossBytesFor(uint32_t Size) {
  // Header + one slot + at least the 8-byte tag, rounded to 8 bytes.
  uint32_t Gross = std::max<uint32_t>(Size, sizeof(runtime::Object) + 16);
  return (Gross + 7) & ~uint32_t(7);
}

RtWorkload perfbench::makeRtWorkload(const std::string &Scenario,
                                     uint64_t TotalBytes,
                                     uint64_t IntervalBytes, uint64_t Seed,
                                     bool WithTenants) {
  const serverload::ServerScenario *Base =
      serverload::findServerScenario(Scenario);
  serverload::ServerScenario S = serverload::scaledScenario(*Base, TotalBytes);
  S.Seed = deriveSeed(Seed, 100);

  std::vector<uint32_t> TenantOf;
  uint64_t Begin = nowNanos();
  trace::Trace T =
      serverload::generateServerTrace(S, WithTenants ? &TenantOf : nullptr);
  uint64_t GenerateNanos = nowNanos() - Begin;
  RtWorkload W = recastTrace(T, IntervalBytes, std::move(TenantOf));
  W.GenerateNanos = GenerateNanos;
  return W;
}

RtWorkload perfbench::recastTrace(const trace::Trace &T, uint64_t IntervalBytes,
                                  std::vector<uint32_t> TenantOf) {
  RtWorkload W;
  RtInputs &In = W.In;
  In.IntervalBytes = IntervalBytes;
  In.TenantOf = std::move(TenantOf);
  const std::vector<trace::AllocationRecord> &Records = T.records();
  In.FinalEpoch =
      static_cast<uint32_t>((Records.back().Birth - 1) / IntervalBytes);
  In.NumBuckets = In.FinalEpoch + 3;
  In.Ops.reserve(Records.size());
  for (const trace::AllocationRecord &R : Records) {
    RtOp Op;
    Op.Gross = grossBytesFor(R.Size);
    Op.Epoch = static_cast<uint32_t>((R.Birth - 1) / IntervalBytes);
    if (R.Death == trace::NeverDies)
      Op.Bucket = In.NumBuckets - 1;
    else
      Op.Bucket = static_cast<uint32_t>(std::min<uint64_t>(
          (R.Death + IntervalBytes - 1) / IntervalBytes, In.FinalEpoch + 1));
    In.TotalGrossBytes += Op.Gross;
    In.Ops.push_back(Op);
  }
  W.Oracle = std::make_unique<LivenessOracle>(
      T, [](const trace::AllocationRecord &R) -> uint64_t {
        return grossBytesFor(R.Size);
      });
  return W;
}

void perfbench::setRuntimeLayers(RunResult &R,
                                 const std::vector<ReplayStats> &Timed,
                                 const std::vector<ReplayStats> &Plain,
                                 const dtb::SampleSet &GenerateSeconds) {
  double N = static_cast<double>(Timed.size());
  auto mean = [&](auto Field) {
    double Sum = 0.0;
    for (const ReplayStats &S : Timed)
      Sum += static_cast<double>(Field(S));
    return Sum / N;
  };
  double Mutator = mean([](const ReplayStats &S) { return S.MutatorNanos; });
  double Collect = mean([](const ReplayStats &S) { return S.CollectNanos; });
  double Rendezvous =
      mean([](const ReplayStats &S) { return S.RendezvousNanos; });
  double Decide = mean([](const ReplayStats &S) { return S.Decisions.Nanos; });
  double Query = mean([](const ReplayStats &S) { return S.Queries.Nanos; });
  double Alloc =
      mean([](const ReplayStats &S) { return S.Alloc.estimatedSeconds(); });
  double Barrier =
      mean([](const ReplayStats &S) { return S.Barrier.estimatedSeconds(); });
  R.set("serverload.generate_s", GenerateSeconds.median(), "s");
  R.set("core.policy_s", (Decide - Query) * 1e-9, "s");
  R.set("core.policy_calls",
        mean([](const ReplayStats &S) { return S.Decisions.Calls; }), "count");
  R.set("runtime.alloc_s", Alloc, "s");
  R.set("runtime.alloc_calls",
        mean([](const ReplayStats &S) { return S.Alloc.calls(); }), "count");
  R.set("runtime.barrier_s", Barrier, "s");
  R.set("runtime.barrier_calls",
        mean([](const ReplayStats &S) { return S.Barrier.calls(); }), "count");
  R.set("runtime.collect_s", Collect * 1e-9, "s");
  R.set("runtime.collections",
        mean([](const ReplayStats &S) { return S.Collections; }), "count");
  R.set("runtime.rendezvous_s", Rendezvous * 1e-9, "s");
  R.set("runtime.scavenge_s", (Collect - Rendezvous - Decide) * 1e-9, "s");
  R.set("runtime.demographics_query_s", Query * 1e-9, "s");
  R.set("runtime.demographics_queries",
        mean([](const ReplayStats &S) { return S.Queries.Calls; }), "count");
  R.set("runtime.traced_mb",
        toMB(1) * mean([](const ReplayStats &S) { return S.TracedBytes; }),
        "MB");
  R.set("runtime.objects_traced",
        mean([](const ReplayStats &S) { return S.ObjectsTraced; }), "count");
  R.set("runtime.remset_roots",
        mean([](const ReplayStats &S) { return S.RemsetRoots; }), "count");
  R.set("runtime.objects_moved",
        mean([](const ReplayStats &S) { return S.ObjectsMoved; }), "count");
  R.set("runtime.reclaimed_mb",
        toMB(1) * mean([](const ReplayStats &S) { return S.ReclaimedBytes; }),
        "MB");
  R.set("runtime.tlab_refills",
        mean([](const ReplayStats &S) { return S.TlabRefills; }), "count");
  R.set("runtime.barrier_flushes",
        mean([](const ReplayStats &S) { return S.BarrierFlushes; }), "count");
  R.set("runtime.safepoint_yields",
        mean([](const ReplayStats &S) { return S.SafepointYields; }), "count");
  R.set("mutator.other_s", Mutator * 1e-9 - Alloc - Barrier - Collect * 1e-9,
        "s");
  dtb::SampleSet TimedSeconds, PlainSeconds;
  for (const ReplayStats &S : Timed)
    TimedSeconds.add(nanosToSeconds(S.WallNanos));
  for (const ReplayStats &S : Plain)
    PlainSeconds.add(nanosToSeconds(S.WallNanos));
  setTraceOverhead(R, TimedSeconds, PlainSeconds);
}

std::string perfbench::checkRtEndState(
    const runtime::Heap &H, const std::vector<runtime::Object *> &Tables,
    const RtInputs &In, const LiveSet &Want) {
  uint64_t TableBytes = 0;
  for (const runtime::Object *Table : Tables)
    TableBytes += Table->grossBytes();
  if (H.residentObjects() != Want.Objects + Tables.size() ||
      H.residentBytes() != Want.Bytes + TableBytes)
    return "after a full collection the heap holds " +
           std::to_string(H.residentObjects()) + " objects / " +
           std::to_string(H.residentBytes()) + " bytes, the oracle " +
           std::to_string(Want.Objects + Tables.size()) + " / " +
           std::to_string(Want.Bytes + TableBytes);

  std::vector<bool> Seen(In.Ops.size(), false);
  LiveSet Found;
  for (const runtime::Object *Table : Tables) {
    for (uint32_t Bucket = 0; Bucket != Table->numSlots(); ++Bucket) {
      core::AllocClock Younger = ~core::AllocClock(0);
      for (const runtime::Object *O = Table->slot(Bucket); O; O = O->slot(0)) {
        uint64_t Tag = 0;
        std::memcpy(&Tag, O->rawData(), sizeof(Tag));
        std::string At = "chain " + std::to_string(Bucket) + ": ";
        if (Tag >= In.Ops.size() || Seen[Tag])
          return At + "tag " + std::to_string(Tag) + " unknown or repeated";
        if (In.Ops[Tag].Bucket != Bucket)
          return At + "object " + std::to_string(Tag) + " belongs in chain " +
                 std::to_string(In.Ops[Tag].Bucket);
        if (O->grossBytes() != In.Ops[Tag].Gross)
          return At + "object " + std::to_string(Tag) + " has " +
                 std::to_string(O->grossBytes()) + " bytes, not " +
                 std::to_string(In.Ops[Tag].Gross);
        if (O->birth() >= Younger)
          return At + "births out of order at object " + std::to_string(Tag);
        Younger = O->birth();
        Seen[Tag] = true;
        Found.Objects += 1;
        Found.Bytes += O->grossBytes();
      }
    }
  }
  if (!(Found == Want))
    return "the chains hold " + std::to_string(Found.Objects) + " objects / " +
           std::to_string(Found.Bytes) + " bytes, the oracle " +
           std::to_string(Want.Objects) + " / " + std::to_string(Want.Bytes);
  return "";
}
