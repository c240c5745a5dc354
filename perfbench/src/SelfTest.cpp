//===- perfbench/src/SelfTest.cpp - The checks catch corruption -----------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --self-test: every correctness check the workloads apply
/// passes on clean inputs and fails on a corrupted one. The inputs are
/// small (one paper trace, a few-MB serverload trace), so this runs in a
/// few seconds. Exits 0 when every case behaves, 1 otherwise.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "RtInputs.h"
#include "Workloads.h"

#include "core/Policies.h"
#include "serverload/ServerLoad.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <iostream>

using namespace perfbench;
using namespace dtb;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What) {
  std::cout << (Ok ? "ok    " : "FAIL  ") << What << "\n";
  Failures += Ok ? 0 : 1;
}

/// True when \p Problem reports a failure whose text contains \p Needle.
bool failsWith(const std::string &Problem, const std::string &Needle) {
  return !Problem.empty() && Problem.find(Needle) != std::string::npos;
}

bool anyProblemWith(const RunResult &R, const std::string &Needle) {
  for (const std::string &P : R.Problems)
    if (P.find(Needle) != std::string::npos)
      return true;
  return false;
}

/// \p T with every death replaced by \p NewDeath(record).
trace::Trace withDeaths(
    const trace::Trace &T,
    const std::function<trace::AllocClock(const trace::AllocationRecord &)>
        &NewDeath) {
  std::vector<trace::AllocationRecord> Records = T.records();
  for (trace::AllocationRecord &R : Records)
    R.Death = NewDeath(R);
  return trace::Trace(std::move(Records));
}

uint64_t traceSize(const trace::AllocationRecord &R) { return R.Size; }
uint64_t grossSize(const trace::AllocationRecord &R) {
  return grossBytesFor(R.Size);
}

void simChecks() {
  const workload::WorkloadSpec *Spec = workload::findWorkload("espresso1");
  trace::Trace T = workload::generateTrace(*Spec);
  core::PolicyConfig Paper;
  sim::SimulatorConfig Config;
  Config.ProgramSeconds = Spec->ProgramSeconds;
  auto run = [&](const std::string &Name) {
    std::unique_ptr<core::BoundaryPolicy> P = core::createPolicy(Name, Paper);
    return sim::simulate(T, *P, Config);
  };
  sim::SimulationResult Full = run("full");
  sim::SimulationResult Fixed1 = run("fixed1");
  TimedPolicy Wrapped(core::createPolicy("dtbmem", Paper));
  sim::SimulationResult Timed = sim::simulate(T, Wrapped, Config);
  sim::SimulationResult Bare = run("dtbmem");

  LivenessOracle Clean(T, traceSize);
  expect(checkSimHistory(Full.History, Clean, true).empty(),
         "sim: FULL history passes against the clean oracle");
  expect(checkSimHistory(Fixed1.History, Clean, false).empty(),
         "sim: FIXED1 history passes against the clean oracle");
  expect(checkFullTable2("espresso1", Full.MemMeanBytes).empty(),
         "sim: FULL mean memory is within 15% of Table 2");
  expect(sameHistory(Timed.History, Bare.History),
         "sim: the timed policy leaves the DTBMEM history unchanged");

  LivenessOracle DieAtBirth(
      withDeaths(T, [](const trace::AllocationRecord &R) { return R.Birth; }),
      traceSize);
  expect(failsWith(checkSimHistory(Fixed1.History, DieAtBirth, false),
                   "more than"),
         "sim: traced <= live fails when the oracle says nothing lives");
  LivenessOracle NeverDie(
      withDeaths(T, [](const trace::AllocationRecord &) {
        return trace::NeverDies;
      }),
      traceSize);
  expect(failsWith(checkSimHistory(Full.History, NeverDie, true),
                   "FULL traced"),
         "sim: FULL traced == live fails when the oracle says all live");
  expect(failsWith(checkSimHistory(Fixed1.History, NeverDie, false), "below"),
         "sim: resident >= live fails when the oracle says all live");
  expect(!checkFullTable2("espresso1", Full.MemMeanBytes * 1.3).empty(),
         "sim: Table 2 check fails on a mean memory 30% too high");
  core::ScavengeHistory Bent;
  for (core::ScavengeRecord Rec : Bare.History.records()) {
    Rec.Boundary += Rec.Index == 2 ? 1 : 0;
    Bent.append(Rec);
  }
  expect(!sameHistory(Bent, Bare.History),
         "sim: history comparison fails when one boundary moved");
}

void rtChecks() {
  serverload::ServerScenario S =
      serverload::scaledScenario(*serverload::findServerScenario("frontend"),
                                 4'000'000);
  trace::Trace T = serverload::generateServerTrace(S);
  const uint64_t Interval = 16 * 1024;

  for (auto Collector :
       {runtime::CollectorKind::MarkSweep, runtime::CollectorKind::Copying}) {
    std::string Name = Collector == runtime::CollectorKind::MarkSweep
                           ? "rt-graph"
                           : "rt-copy";
    RtWorkload W = recastTrace(T, Interval, {});
    RunResult Clean = replayRtGraphOnce(W, Collector);
    expect(Clean.Failed == 0 && Clean.Attempted > 10,
           Name + ": every collection and the end state pass on clean input");

    // An oracle that keeps everything alive: resident >= live must fail.
    W.Oracle = std::make_unique<LivenessOracle>(
        withDeaths(T, [](const trace::AllocationRecord &) {
          return trace::NeverDies;
        }),
        grossSize);
    RunResult AllLive = replayRtGraphOnce(W, Collector);
    expect(anyProblemWith(AllLive, "resident bytes, below"),
           Name + ": resident >= live fails when the oracle says all live");

    // An oracle in which the last object the mutator drops stays alive:
    // the exact end state must fail.
    trace::AllocClock End = W.In.FinalEpoch * Interval, LastDeath = 0;
    for (const trace::AllocationRecord &R : T.records())
      if (R.Death <= End)
        LastDeath = std::max(LastDeath, R.Death);
    W.Oracle = std::make_unique<LivenessOracle>(
        withDeaths(T,
                   [&](const trace::AllocationRecord &R) {
                     return R.Death == LastDeath ? trace::NeverDies : R.Death;
                   }),
        grossSize);
    RunResult OneMore = replayRtGraphOnce(W, Collector);
    expect(anyProblemWith(OneMore, "after a full collection"),
           Name + ": the exact end state fails when one dead object is "
                  "expected live");

    // A heap whose chains were swapped behind the barrier's back: the
    // chain walk must find tags in the wrong chain.
    W = recastTrace(T, Interval, {});
    RunResult Swapped = replayRtGraphOnce(
        W, Collector, [](runtime::Heap &H, runtime::Object *Table) {
          runtime::Object *Immortals = Table->slot(Table->numSlots() - 1);
          runtime::Object *Last = Table->slot(Table->numSlots() - 2);
          H.dangerouslyWriteSlotWithoutBarrier(Table, Table->numSlots() - 1,
                                               Last);
          H.dangerouslyWriteSlotWithoutBarrier(Table, Table->numSlots() - 2,
                                               Immortals);
        });
    expect(anyProblemWith(Swapped, "belongs in chain"),
           Name + ": the chain walk fails when two chains are swapped");
  }

  serverload::ServerScenario M =
      serverload::scaledScenario(*serverload::findServerScenario("multitenant"),
                                 4'000'000);
  std::vector<uint32_t> TenantOf;
  trace::Trace TM = serverload::generateServerTrace(M, &TenantOf);
  for (unsigned Threads : {1u, 3u}) {
    std::string Name = Threads == 1 ? "rt-tlab" : "rt-threads";
    RtWorkload W = recastTrace(TM, Interval, TenantOf);
    RunResult Clean = replayRtThreadsOnce(W, Threads, 0);
    expect(Clean.Failed == 0 && Clean.Attempted > 1,
           Name + ": every collection and the end state pass on clean input");
    RunResult Inflated = replayRtThreadsOnce(W, Threads, 1'000'000'000);
    expect(anyProblemWith(Inflated, "below the model"),
           Name + ": resident >= model fails when the model is inflated");
    W.Oracle = std::make_unique<LivenessOracle>(
        withDeaths(TM, [](const trace::AllocationRecord &) {
          return trace::NeverDies;
        }),
        grossSize);
    RunResult AllLive = replayRtThreadsOnce(W, Threads, 0);
    expect(anyProblemWith(AllLive, "after a full collection"),
           Name + ": the exact end state fails when the oracle says all live");
  }
}

} // namespace

int perfbench::runSelfTest() {
  simChecks();
  rtChecks();
  std::cout << (Failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return Failures == 0 ? 0 : 1;
}
