//===- tests/sim_simulator_test.cpp ---------------------------------------==//
//
// Tests for the trace-driven simulator: trigger behaviour, per-scavenge
// accounting identities, metric reduction, and memory-curve recording.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "core/OptimalPolicies.h"
#include "core/Policies.h"
#include "support/Random.h"
#include "trace/TraceStats.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::sim;
using core::AllocClock;

namespace {

/// A trace of Count objects of Size bytes; each object dies LifetimeBytes
/// after its birth (immortal if 0).
trace::Trace makeUniformTrace(size_t Count, uint32_t Size,
                              AllocClock LifetimeBytes) {
  std::vector<trace::AllocationRecord> Records;
  AllocClock Clock = 0;
  for (size_t I = 0; I != Count; ++I) {
    Clock += Size;
    Records.push_back({Clock, Size,
                       LifetimeBytes == 0 ? trace::NeverDies
                                          : Clock + LifetimeBytes});
  }
  return trace::Trace(std::move(Records));
}

SimulatorConfig smallConfig() {
  SimulatorConfig Config;
  Config.TriggerBytes = 10'000;
  Config.ProgramSeconds = 1.0;
  return Config;
}

} // namespace

TEST(SimulatorTest, TriggerSpacing) {
  // 100 KB of allocation with a 10 KB trigger: 10 scavenges (the last
  // allocation lands exactly on the final trigger point).
  trace::Trace T = makeUniformTrace(1000, 100, 500);
  core::FullPolicy Policy;
  SimulationResult R = simulate(T, Policy, smallConfig());
  EXPECT_EQ(R.NumScavenges, 10u);
  // Scavenges are spaced ~TriggerBytes apart.
  for (size_t I = 1; I < R.History.records().size(); ++I) {
    AllocClock Gap = R.History.records()[I].Time -
                     R.History.records()[I - 1].Time;
    EXPECT_GE(Gap, 10'000u - 100u);
    EXPECT_LE(Gap, 10'000u + 100u);
  }
}

TEST(SimulatorTest, AccountingIdentitiesHoldPerScavenge) {
  trace::Trace T = makeUniformTrace(2000, 64, 3000);
  core::FixedAgePolicy Policy(1);
  SimulationResult R = simulate(T, Policy, smallConfig());
  ASSERT_GT(R.NumScavenges, 0u);
  for (const core::ScavengeRecord &Rec : R.History.records()) {
    EXPECT_EQ(Rec.MemBeforeBytes, Rec.SurvivedBytes + Rec.ReclaimedBytes);
    EXPECT_LE(Rec.Boundary, Rec.Time);
    EXPECT_LE(Rec.TracedBytes, Rec.MemBeforeBytes);
  }
}

TEST(SimulatorTest, FullPolicyLeavesExactlyLiveBytes) {
  // After a FULL scavenge at time t, survivors are exactly the objects
  // live at t — cross-check against the trace oracle.
  trace::Trace T = makeUniformTrace(3000, 50, 7777);
  core::FullPolicy Policy;
  SimulationResult R = simulate(T, Policy, smallConfig());
  ASSERT_GT(R.NumScavenges, 2u);
  for (const core::ScavengeRecord &Rec : R.History.records()) {
    uint64_t OracleLive = 0;
    for (const trace::AllocationRecord &Obj : T.records()) {
      if (Obj.Birth <= Rec.Time && Obj.liveAt(Rec.Time))
        OracleLive += Obj.Size;
    }
    EXPECT_EQ(Rec.SurvivedBytes, OracleLive) << "scavenge " << Rec.Index;
    EXPECT_EQ(Rec.TracedBytes, OracleLive);
  }
}

TEST(SimulatorTest, TotalTracedAndPauseReduction) {
  trace::Trace T = makeUniformTrace(1000, 100, 500);
  core::FullPolicy Policy;
  SimulatorConfig Config = smallConfig();
  SimulationResult R = simulate(T, Policy, Config);

  uint64_t Sum = 0;
  for (const core::ScavengeRecord &Rec : R.History.records())
    Sum += Rec.TracedBytes;
  EXPECT_EQ(R.TotalTracedBytes, Sum);
  EXPECT_EQ(R.PauseMillis.size(), R.NumScavenges);

  // Pause = traced / 500 bytes-per-ms under the default machine model.
  double FirstPause = R.PauseMillis.samples().front();
  double FirstTraced =
      static_cast<double>(R.History.records().front().TracedBytes);
  EXPECT_DOUBLE_EQ(FirstPause, FirstTraced / 500.0);

  // Overhead% = (traced / 500KBps) / ProgramSeconds * 100.
  EXPECT_DOUBLE_EQ(R.CpuOverheadPercent,
                   static_cast<double>(Sum) / 500'000.0 / 1.0 * 100.0);
}

TEST(SimulatorTest, MemoryMaxAtLeastPreScavengeResidency) {
  trace::Trace T = makeUniformTrace(1000, 100, 2000);
  core::FullPolicy Policy;
  SimulationResult R = simulate(T, Policy, smallConfig());
  for (const core::ScavengeRecord &Rec : R.History.records())
    EXPECT_GE(R.MemMaxBytes, Rec.MemBeforeBytes);
}

TEST(SimulatorTest, NoGcWithoutTriggerableAllocation) {
  // Trace smaller than the trigger: no scavenges; memory mean equals the
  // No-GC profile.
  trace::Trace T = makeUniformTrace(50, 100, 0);
  core::FullPolicy Policy;
  SimulatorConfig Config;
  Config.TriggerBytes = 1'000'000;
  SimulationResult R = simulate(T, Policy, Config);
  EXPECT_EQ(R.NumScavenges, 0u);
  trace::TraceStats S = trace::computeTraceStats(T);
  EXPECT_DOUBLE_EQ(R.MemMeanBytes, S.NoGcMeanBytes);
  EXPECT_EQ(R.MemMaxBytes, T.totalAllocated());
}

TEST(SimulatorTest, MemoryCurveRecordsScavengeDrops) {
  trace::Trace T = makeUniformTrace(1000, 100, 500);
  core::FullPolicy Policy;
  SimulatorConfig Config = smallConfig();
  Config.RecordMemoryCurve = true;
  Config.CurveSampleBytes = 2'000;
  SimulationResult R = simulate(T, Policy, Config);
  ASSERT_FALSE(R.Curve.empty());

  // Curve clocks are non-decreasing and post-scavenge points drop.
  AllocClock Prev = 0;
  size_t Drops = 0;
  for (size_t I = 0; I != R.Curve.size(); ++I) {
    EXPECT_GE(R.Curve[I].Clock, Prev);
    Prev = R.Curve[I].Clock;
    if (R.Curve[I].AfterScavenge) {
      ASSERT_GT(I, 0u);
      EXPECT_LE(R.Curve[I].ResidentBytes, R.Curve[I - 1].ResidentBytes);
      ++Drops;
    }
  }
  EXPECT_EQ(Drops, R.NumScavenges);
}

TEST(SimulatorTest, PolicyReusableAcrossRuns) {
  trace::Trace T = makeUniformTrace(1000, 100, 500);
  core::DtbPausePolicy Policy(5'000);
  SimulationResult A = simulate(T, Policy, smallConfig());
  SimulationResult B = simulate(T, Policy, smallConfig());
  EXPECT_EQ(A.TotalTracedBytes, B.TotalTracedBytes);
  EXPECT_EQ(A.NumScavenges, B.NumScavenges);
  EXPECT_DOUBLE_EQ(A.MemMeanBytes, B.MemMeanBytes);
}

TEST(SimulatorTest, HugeObjectCrossingSeveralTriggersCausesOneScavenge) {
  std::vector<trace::AllocationRecord> Records;
  Records.push_back({/*Birth=*/50'000, /*Size=*/50'000,
                     /*Death=*/trace::NeverDies});
  Records.push_back({/*Birth=*/50'100, /*Size=*/100,
                     /*Death=*/trace::NeverDies});
  trace::Trace T(std::move(Records));
  core::FullPolicy Policy;
  SimulatorConfig Config;
  Config.TriggerBytes = 10'000;
  Config.ProgramSeconds = 1.0;
  SimulationResult R = simulate(T, Policy, Config);
  // The 50 KB allocation crosses five trigger points but fires once; the
  // following 100-byte allocation does not reach the next trigger.
  EXPECT_EQ(R.NumScavenges, 1u);
}

TEST(SimulatorTest, NaiveHeapQueriesMatchIndexedQueries) {
  // The heap model answers the policies' demographics queries from
  // incremental indexes; the retained O(residents) scans are the baseline
  // they must reproduce exactly. A memory budget just above the mean live
  // size makes the oracle's boundary search query at every scavenge.
  trace::Trace T =
      workload::generateTrace(workload::makeSteadyStateSpec(300'000, 7));
  auto MemBudget = static_cast<uint64_t>(
      trace::computeTraceStats(T).LiveMeanBytes * 1.2);
  SimulatorConfig Config = smallConfig();

  core::OptimalMemoryPolicy Indexed(MemBudget);
  SimulationResult A = simulate(T, Indexed, Config);
  Config.UseNaiveHeapQueries = true;
  core::OptimalMemoryPolicy Scanned(MemBudget);
  SimulationResult B = simulate(T, Scanned, Config);

  ASSERT_GT(A.NumScavenges, 0u);
  EXPECT_EQ(A.NumScavenges, B.NumScavenges);
  EXPECT_EQ(A.TotalTracedBytes, B.TotalTracedBytes);
  ASSERT_EQ(A.History.size(), B.History.size());
  for (uint64_t I = 1; I <= A.History.size(); ++I) {
    const core::ScavengeRecord &X = A.History.record(I);
    const core::ScavengeRecord &Y = B.History.record(I);
    EXPECT_EQ(X.Time, Y.Time) << "scavenge " << I;
    EXPECT_EQ(X.Boundary, Y.Boundary) << "scavenge " << I;
    EXPECT_EQ(X.TracedBytes, Y.TracedBytes) << "scavenge " << I;
    EXPECT_EQ(X.MemBeforeBytes, Y.MemBeforeBytes) << "scavenge " << I;
    EXPECT_EQ(X.SurvivedBytes, Y.SurvivedBytes) << "scavenge " << I;
    EXPECT_EQ(X.ReclaimedBytes, Y.ReclaimedBytes) << "scavenge " << I;
  }
}
