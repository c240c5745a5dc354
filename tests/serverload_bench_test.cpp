//===- tests/serverload_bench_test.cpp - Server bench suite tests --------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// The server suite's gating contract: the deterministic record is
// byte-identical for every thread count, carries pause p99/p99.9 and
// memory-overshoot quantiles for every catalog scenario x policy, and an
// injected tail regression actually fails the compare (exit 1).
//
//===----------------------------------------------------------------------===//

#include "report/BenchCompare.h"
#include "report/BenchDriver.h"
#include "report/BenchRecord.h"

#include "core/Policies.h"
#include "serverload/ServerLoad.h"

#include "gtest/gtest.h"

using namespace dtb;
using namespace dtb::report;

namespace {

BenchRecord runServerSuite(unsigned Threads) {
  BenchDriverOptions Options;
  Options.Suite = "server";
  Options.Threads = Threads;
  return runBenchSuite(Options).Record;
}

TEST(ServerBenchSuite, RecordByteIdenticalAcrossThreadCounts) {
  std::string Serial = toJson(runServerSuite(1));
  std::string Parallel = toJson(runServerSuite(4));
  EXPECT_EQ(Serial, Parallel);
}

TEST(ServerBenchSuite, EmitsTailMetricsForEveryScenarioAndPolicy) {
  BenchRecord Record = runServerSuite(4);
  EXPECT_EQ(Record.Suite, "server");
  for (const serverload::ServerScenario &S : serverload::serverScenarios())
    for (const std::string &Policy : core::paperPolicyNames()) {
      std::string Prefix = "server/" + S.Name + "/" + Policy + "/";
      for (const char *Metric :
           {"pause_p50_ms", "pause_p99_ms", "pause_p999_ms",
            "mem_overshoot_p50_bytes", "mem_overshoot_p99_bytes",
            "mem_overshoot_p999_bytes", "mem_max_bytes", "traced_bytes",
            "num_scavenges"}) {
        const BenchMetric *M = Record.findMetric(Prefix + Metric);
        ASSERT_NE(M, nullptr) << Prefix + Metric;
        EXPECT_TRUE(M->LowerIsBetter) << Prefix + Metric;
      }
    }
}

TEST(ServerBenchSuite, InjectedTailRegressionFailsCompare) {
  BenchRecord Baseline = runServerSuite(2);
  BenchRecord Candidate = Baseline;

  // A clean self-compare passes.
  BenchCompareOptions Options;
  BenchCompareResult Clean =
      compareBenchRecords(Baseline, Candidate, Options);
  EXPECT_FALSE(Clean.Failed);
  EXPECT_EQ(Clean.exitCode(), 0);

  // Inflate one p99.9 pause by 20% — a tail regression a mean-based gate
  // would shrug off; the exact comparator must fail it.
  bool Injected = false;
  for (BenchMetric &M : Candidate.Metrics)
    if (M.Name == "server/frontend/dtbfm/pause_p999_ms") {
      M.Value *= 1.2;
      Injected = true;
      break;
    }
  ASSERT_TRUE(Injected);

  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, Options);
  EXPECT_TRUE(Result.Failed);
  EXPECT_EQ(Result.exitCode(), 1);
  EXPECT_GE(Result.NumRegressed, 1u);
}

} // namespace
