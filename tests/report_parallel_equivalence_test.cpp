//===- tests/report_parallel_equivalence_test.cpp -------------------------==//
//
// The parallel experiment engine must be *bit-identical* to a serial run:
// tasks are pure functions of (trace, policy, config) depositing into
// preassigned slots, and all floating-point reductions happen in a fixed
// serial order. These tests enforce that for ExperimentGrid and
// runSeedSweep across thread counts.
//
//===----------------------------------------------------------------------===//

#include "report/BenchDriver.h"
#include "report/Experiments.h"
#include "report/SeedSweep.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::report;

namespace {

std::vector<workload::WorkloadSpec> smallWorkloads() {
  std::vector<workload::WorkloadSpec> Workloads = {
      workload::makeSteadyStateSpec(200'000, 1),
      workload::makeSteadyStateSpec(300'000, 2),
      workload::makeSteadyStateSpec(250'000, 3)};
  Workloads[1].Name = "steady2";
  Workloads[1].DisplayName = "STEADY2";
  Workloads[2].Name = "steady3";
  Workloads[2].DisplayName = "STEADY3";
  return Workloads;
}

ExperimentConfig smallConfig(unsigned Threads) {
  ExperimentConfig Config;
  Config.TriggerBytes = 20'000;
  Config.TraceMaxBytes = 5'000;
  Config.MemMaxBytes = 60'000;
  Config.Threads = Threads;
  return Config;
}

const std::vector<std::string> Policies = {"full", "fixed1", "fixed4",
                                           "dtbmem", "feedmed", "dtbfm"};

/// Field-by-field bitwise comparison of two simulation results.
void expectIdentical(const sim::SimulationResult &A,
                     const sim::SimulationResult &B,
                     const std::string &Label) {
  // Doubles compared with EXPECT_EQ (exact bits, not a tolerance): the
  // whole point is that parallel scheduling must not change arithmetic.
  EXPECT_EQ(A.MemMeanBytes, B.MemMeanBytes) << Label;
  EXPECT_EQ(A.MemMaxBytes, B.MemMaxBytes) << Label;
  EXPECT_EQ(A.TotalTracedBytes, B.TotalTracedBytes) << Label;
  EXPECT_EQ(A.CpuOverheadPercent, B.CpuOverheadPercent) << Label;
  EXPECT_EQ(A.NumScavenges, B.NumScavenges) << Label;
  EXPECT_EQ(A.PauseMillis.samples(), B.PauseMillis.samples()) << Label;
  ASSERT_EQ(A.History.size(), B.History.size()) << Label;
  for (uint64_t I = 1; I <= A.History.size(); ++I) {
    const core::ScavengeRecord &RA = A.History.record(I);
    const core::ScavengeRecord &RB = B.History.record(I);
    EXPECT_EQ(RA.Time, RB.Time) << Label << " record " << I;
    EXPECT_EQ(RA.Boundary, RB.Boundary) << Label << " record " << I;
    EXPECT_EQ(RA.TracedBytes, RB.TracedBytes) << Label << " record " << I;
    EXPECT_EQ(RA.MemBeforeBytes, RB.MemBeforeBytes) << Label;
    EXPECT_EQ(RA.SurvivedBytes, RB.SurvivedBytes) << Label;
    EXPECT_EQ(RA.ReclaimedBytes, RB.ReclaimedBytes) << Label;
  }
}

void expectIdentical(const RunningStats &A, const RunningStats &B,
                     const std::string &Label) {
  EXPECT_EQ(A.count(), B.count()) << Label;
  EXPECT_EQ(A.mean(), B.mean()) << Label;
  EXPECT_EQ(A.min(), B.min()) << Label;
  EXPECT_EQ(A.max(), B.max()) << Label;
  EXPECT_EQ(A.variance(), B.variance()) << Label;
}

} // namespace

TEST(ParallelEquivalenceTest, ExperimentGridMatchesSerial) {
  ExperimentGrid Serial(smallWorkloads(), Policies, smallConfig(1));
  for (unsigned Threads : {2u, 4u, 7u}) {
    ExperimentGrid Parallel(smallWorkloads(), Policies,
                            smallConfig(Threads));
    for (const std::string &Policy : Policies)
      for (const workload::WorkloadSpec &Spec : Serial.workloads())
        expectIdentical(Serial.result(Policy, Spec.Name),
                        Parallel.result(Policy, Spec.Name),
                        Policy + "/" + Spec.Name + " @" +
                            std::to_string(Threads) + " threads");

    for (const workload::WorkloadSpec &Spec : Serial.workloads()) {
      const trace::TraceStats &A = Serial.baseline(Spec.Name);
      const trace::TraceStats &B = Parallel.baseline(Spec.Name);
      EXPECT_EQ(A.TotalAllocatedBytes, B.TotalAllocatedBytes) << Spec.Name;
      EXPECT_EQ(A.LiveMeanBytes, B.LiveMeanBytes) << Spec.Name;
      EXPECT_EQ(A.LiveMaxBytes, B.LiveMaxBytes) << Spec.Name;
      EXPECT_EQ(A.NoGcMeanBytes, B.NoGcMeanBytes) << Spec.Name;
    }
  }
}

TEST(ParallelEquivalenceTest, SeedSweepMatchesSerial) {
  SeedSweepResult Serial =
      runSeedSweep(smallWorkloads(), Policies, smallConfig(1), 3);
  SeedSweepResult Parallel =
      runSeedSweep(smallWorkloads(), Policies, smallConfig(4), 3);

  ASSERT_EQ(Serial.Cells.size(), Parallel.Cells.size());
  for (size_t I = 0; I != Serial.Cells.size(); ++I) {
    const SeedCell &A = Serial.Cells[I];
    const SeedCell &B = Parallel.Cells[I];
    EXPECT_EQ(A.Policy, B.Policy);
    EXPECT_EQ(A.Workload, B.Workload);
    std::string Label = A.Policy + "/" + A.Workload;
    expectIdentical(A.MemMeanKB, B.MemMeanKB, Label + " MemMeanKB");
    expectIdentical(A.MemMaxKB, B.MemMaxKB, Label + " MemMaxKB");
    expectIdentical(A.MedianPauseMs, B.MedianPauseMs,
                    Label + " MedianPauseMs");
    expectIdentical(A.Pause90Ms, B.Pause90Ms, Label + " Pause90Ms");
    expectIdentical(A.TracedKB, B.TracedKB, Label + " TracedKB");
  }

  ASSERT_EQ(Serial.LiveMeanKB.size(), Parallel.LiveMeanKB.size());
  for (size_t I = 0; I != Serial.LiveMeanKB.size(); ++I)
    expectIdentical(Serial.LiveMeanKB[I].second,
                    Parallel.LiveMeanKB[I].second,
                    Serial.LiveMeanKB[I].first + " LiveMeanKB");
}

TEST(ParallelEquivalenceTest, BenchRecordBitIdenticalAcrossThreads) {
  // The continuous-perf gate depends on this: a BENCH record is
  // byte-for-byte the same JSON for any worker count — including every per-phase allocation-clock
  // attribution — so a --threads 4 CI run compares clean against a
  // --threads 1 baseline.
  BenchDriverOptions Options;
  Options.Suite = "quick";

  Options.Threads = 1;
  BenchSuiteResult Serial = runBenchSuite(Options);
  std::string SerialJson = toJson(Serial.Record);
  for (unsigned Threads : {2u, 4u}) {
    Options.Threads = Threads;
    BenchSuiteResult Parallel = runBenchSuite(Options);
    EXPECT_EQ(toJson(Parallel.Record), SerialJson)
        << "BENCH record differs at " << Threads << " threads";

    // The merged per-domain phase attributions agree entry by entry, not
    // just through the serialized record.
    ASSERT_EQ(Serial.Profiles.size(), Parallel.Profiles.size());
    for (const auto &[Domain, Profile] : Serial.Profiles) {
      ASSERT_TRUE(Parallel.Profiles.count(Domain)) << Domain;
      const auto &A = Profile.aggregates();
      const auto &B = Parallel.Profiles.at(Domain).aggregates();
      ASSERT_EQ(A.size(), B.size()) << Domain;
      for (const auto &[Name, Agg] : A) {
        ASSERT_TRUE(B.count(Name)) << Domain << "/" << Name;
        EXPECT_EQ(Agg.Count, B.at(Name).Count) << Domain << "/" << Name;
        EXPECT_EQ(Agg.SelfCost, B.at(Name).SelfCost)
            << Domain << "/" << Name;
        EXPECT_EQ(Agg.TotalCost, B.at(Name).TotalCost)
            << Domain << "/" << Name;
        EXPECT_EQ(Agg.SelfCostSamples.samples(),
                  B.at(Name).SelfCostSamples.samples())
            << Domain << "/" << Name;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, RepeatedParallelRunsAreDeterministic) {
  // Two parallel runs with the same thread count also agree — scheduling
  // never leaks into results.
  ExperimentGrid A(smallWorkloads(), Policies, smallConfig(4));
  ExperimentGrid B(smallWorkloads(), Policies, smallConfig(4));
  for (const std::string &Policy : Policies)
    for (const workload::WorkloadSpec &Spec : A.workloads())
      expectIdentical(A.result(Policy, Spec.Name),
                      B.result(Policy, Spec.Name),
                      Policy + "/" + Spec.Name);
}
