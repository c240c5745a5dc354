//===- tests/bench_compare_test.cpp - BENCH record comparator -------------===//
//
// The regression gate's verdict logic over golden BENCH JSON pairs: a
// clean pass, a real regression, within-noise wall jitter, a schema
// version mismatch, and a missing metric — plus the record's JSON
// round-trip (toJson -> parseBenchRecord reproduces every value exactly,
// which is what makes the checked-in baseline comparable at all).
//
//===----------------------------------------------------------------------===//

#include "report/BenchCompare.h"
#include "report/BenchRecord.h"

#include <gtest/gtest.h>

using namespace dtb;
using namespace dtb::report;

namespace {

/// The golden baseline: one exact metric each way, one wall metric with
/// visible jitter (median 10.0, MAD 0.2), one higher-is-better ratio.
const char *BaselineJson = R"({
  "schema_version": 1,
  "suite": "quick",
  "env": {"git_sha": "abc123", "build_flags": "telemetry=on", "threads": 4},
  "metrics": {
    "sim/ghost/full/traced_bytes": {"kind": "exact", "unit": "bytes",
      "lower_is_better": true, "value": 363524},
    "sim/ghost/full/num_scavenges": {"kind": "exact", "unit": "count",
      "lower_is_better": true, "value": 10},
    "wall/quick/sim_grid_seconds": {"kind": "wall", "unit": "seconds",
      "lower_is_better": true, "values": [9.8, 10.0, 10.2],
      "min": 9.8, "median": 10.0, "mad": 0.2},
    "wall/timing/grid_speedup": {"kind": "wall", "unit": "ratio",
      "lower_is_better": false, "values": [1.8, 1.9, 2.0],
      "min": 1.8, "median": 1.9, "mad": 0.1}
  },
  "phases": {
    "sim": {
      "trace": {"count": 222, "self_cost": 5740187, "total_cost": 5740187,
        "p50": 16375, "p90": 44436, "p99": 51127, "stddev": 12306.8}
    }
  }
})";

BenchRecord parse(const std::string &Text) {
  BenchRecord Record;
  std::string Error;
  EXPECT_TRUE(parseBenchRecord(Text, &Record, &Error)) << Error;
  return Record;
}

const BenchMetricComparison &row(const BenchCompareResult &Result,
                                 const std::string &Name) {
  static const BenchMetricComparison Empty;
  for (const BenchMetricComparison &Row : Result.Rows)
    if (Row.Name == Name)
      return Row;
  ADD_FAILURE() << "no comparison row for " << Name;
  return Empty;
}

} // namespace

TEST(BenchCompareTest, IdenticalRecordsPassClean) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(Result.exitCode(), 0);
  EXPECT_EQ(Result.NumPass, 4u);
  EXPECT_EQ(Result.NumRegressed, 0u);
  EXPECT_EQ(Result.NumMissing, 0u);
  EXPECT_EQ(Result.NumNew, 0u);
}

TEST(BenchCompareTest, ExactChangeRegressesOrImproves) {
  BenchRecord Baseline = parse(BaselineJson);

  // Any worse exact value is a regression, however small.
  BenchRecord Candidate = parse(BaselineJson);
  Candidate.Metrics[0].Value += 1;
  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_TRUE(Result.Failed);
  EXPECT_EQ(Result.exitCode(), 1);
  EXPECT_EQ(row(Result, "sim/ghost/full/traced_bytes").Verdict,
            BenchVerdict::Regressed);

  // The better direction passes but is flagged for a baseline refresh.
  Candidate.Metrics[0].Value = Baseline.Metrics[0].Value - 1000;
  Result = compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(row(Result, "sim/ghost/full/traced_bytes").Verdict,
            BenchVerdict::Improved);
}

TEST(BenchCompareTest, WallRegressionBeyondNoiseFails) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  // Median 10.0 -> 13.0: beyond max(0.10 * 10.0, 3 * 0.2) = 1.0.
  BenchMetric *Wall =
      const_cast<BenchMetric *>(Candidate.findMetric("wall/quick/sim_grid_seconds"));
  ASSERT_NE(Wall, nullptr);
  Wall->Values = {12.9, 13.0, 13.1};
  Wall->finalize();

  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_TRUE(Result.Failed);
  const BenchMetricComparison &Row =
      row(Result, "wall/quick/sim_grid_seconds");
  EXPECT_EQ(Row.Verdict, BenchVerdict::Regressed);
  EXPECT_DOUBLE_EQ(Row.Threshold, 1.0);

  // A higher-is-better ratio regresses downward.
  BenchRecord Slower = parse(BaselineJson);
  BenchMetric *Speedup =
      const_cast<BenchMetric *>(Slower.findMetric("wall/timing/grid_speedup"));
  Speedup->Values = {0.9, 1.0, 1.1};
  Speedup->finalize();
  Result = compareBenchRecords(Baseline, Slower, BenchCompareOptions());
  EXPECT_EQ(row(Result, "wall/timing/grid_speedup").Verdict,
            BenchVerdict::Regressed);
}

TEST(BenchCompareTest, WallJitterWithinNoisePasses) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  // Median 10.0 -> 10.5: inside the 1.0 noise threshold.
  BenchMetric *Wall =
      const_cast<BenchMetric *>(Candidate.findMetric("wall/quick/sim_grid_seconds"));
  Wall->Values = {10.3, 10.5, 10.7};
  Wall->finalize();

  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(row(Result, "wall/quick/sim_grid_seconds").Verdict,
            BenchVerdict::Pass);

  // ... and a faster-than-noise run is an improvement, not a failure.
  Wall->Values = {8.0, 8.1, 8.2};
  Wall->finalize();
  Result = compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(row(Result, "wall/quick/sim_grid_seconds").Verdict,
            BenchVerdict::Improved);
}

TEST(BenchCompareTest, SchemaVersionMismatchRefusesToCompare) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  Candidate.SchemaVersion = BenchSchemaVersion + 1;
  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_TRUE(Result.SchemaMismatch);
  EXPECT_EQ(Result.exitCode(), 2);
  EXPECT_TRUE(Result.Rows.empty());
  EXPECT_NE(Result.SchemaNote.find("mismatch"), std::string::npos);
}

TEST(BenchCompareTest, MissingMetricFailsUnlessAllowed) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  Candidate.Metrics.erase(Candidate.Metrics.begin() + 1);

  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_TRUE(Result.Failed);
  EXPECT_EQ(Result.NumMissing, 1u);
  EXPECT_EQ(row(Result, "sim/ghost/full/num_scavenges").Verdict,
            BenchVerdict::Missing);

  BenchCompareOptions Lenient;
  Lenient.FailOnMissing = false;
  Result = compareBenchRecords(Baseline, Candidate, Lenient);
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(Result.NumMissing, 1u);
}

TEST(BenchCompareTest, CandidateOnlyMetricsAreNewAndPass) {
  BenchRecord Baseline = parse(BaselineJson);
  BenchRecord Candidate = parse(BaselineJson);
  Candidate.addExact("runtime/full/new_metric", "bytes", 42.0);
  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(Result.NumNew, 1u);
  EXPECT_EQ(row(Result, "runtime/full/new_metric").Verdict, BenchVerdict::New);
}

TEST(BenchRecordTest, JsonRoundTripIsExact) {
  BenchRecord Record = parse(BaselineJson);
  ASSERT_TRUE(Record.HasEnv);
  EXPECT_EQ(Record.GitSha, "abc123");
  EXPECT_EQ(Record.Threads, 4u);
  ASSERT_EQ(Record.Metrics.size(), 4u);
  ASSERT_EQ(Record.Phases.size(), 1u);
  EXPECT_EQ(Record.Phases[0].Domain, "sim");
  EXPECT_EQ(Record.Phases[0].SelfCost, 5740187u);

  // Writer -> parser -> writer is a fixpoint: every double is emitted in
  // shortest round-trip form, so the second rendering is byte-identical.
  std::string First = toJson(Record);
  BenchRecord Reparsed = parse(First);
  EXPECT_EQ(toJson(Reparsed), First);

  // And the comparator sees the round-tripped record as identical.
  BenchCompareResult Result =
      compareBenchRecords(Record, Reparsed, BenchCompareOptions());
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(Result.NumPass, 4u);
}

TEST(BenchRecordTest, MalformedDocumentsAreDiagnosed) {
  BenchRecord Record;
  std::string Error;
  EXPECT_FALSE(parseBenchRecord("not json", &Record, &Error));
  EXPECT_FALSE(Error.empty());

  EXPECT_FALSE(parseBenchRecord("{\"suite\": \"q\"}", &Record, &Error));
  EXPECT_NE(Error.find("schema_version"), std::string::npos);

  EXPECT_FALSE(parseBenchRecord(
      R"({"schema_version": 1, "metrics": {"m": {"kind": "exact"}}})",
      &Record, &Error));
  EXPECT_NE(Error.find("value"), std::string::npos);

  EXPECT_FALSE(parseBenchRecord(
      R"({"schema_version": 1, "metrics": {"m": {"kind": "weird"}}})",
      &Record, &Error));
  EXPECT_NE(Error.find("unknown kind"), std::string::npos);
}

TEST(BenchRecordTest, WallStatisticsFromSamples) {
  BenchRecord Record;
  Record.addWall("wall/x", "seconds", {3.0, 1.0, 2.0, 10.0});
  const BenchMetric *M = Record.findMetric("wall/x");
  ASSERT_NE(M, nullptr);
  EXPECT_DOUBLE_EQ(M->Min, 1.0);
  // Nearest-rank median of {1,2,3,10} is 2; deviations {1,0,1,8} -> MAD 1.
  EXPECT_DOUBLE_EQ(M->Median, 2.0);
  EXPECT_DOUBLE_EQ(M->Mad, 1.0);
}

TEST(BenchCompareTest, TailMetricClassification) {
  EXPECT_TRUE(isTailMetric("wall/runtime/pause_p99_ms"));
  EXPECT_TRUE(isTailMetric("runtime/full/pause_p999_traced_bytes"));
  EXPECT_TRUE(isTailMetric("runtime/full/max_quantum_traced_bytes"));
  EXPECT_FALSE(isTailMetric("wall/runtime/policies_seconds"));
  EXPECT_FALSE(isTailMetric("sim/ghost/full/traced_bytes"));
}

TEST(BenchCompareTest, TailWallMetricsGateTighter) {
  // Identical jitter-free samples: MAD is 0, so the threshold reduces to
  // the relative component alone — 10% for throughput metrics, 5% for
  // tail ones.
  BenchRecord Baseline;
  Baseline.addWall("wall/runtime/pause_p99_ms", "ms", {10.0, 10.0, 10.0});
  Baseline.addWall("wall/runtime/policies_seconds", "seconds",
                   {10.0, 10.0, 10.0});
  BenchRecord Candidate;
  // +8%: beyond the 5% tail threshold, within the 10% throughput one.
  Candidate.addWall("wall/runtime/pause_p99_ms", "ms", {10.8, 10.8, 10.8});
  Candidate.addWall("wall/runtime/policies_seconds", "seconds",
                    {10.8, 10.8, 10.8});

  BenchCompareResult Result =
      compareBenchRecords(Baseline, Candidate, BenchCompareOptions());
  EXPECT_TRUE(Result.Failed);
  EXPECT_EQ(row(Result, "wall/runtime/pause_p99_ms").Verdict,
            BenchVerdict::Regressed);
  EXPECT_EQ(row(Result, "wall/runtime/policies_seconds").Verdict,
            BenchVerdict::Pass);

  // Loosening --tail-threshold clears the tail regression too.
  BenchCompareOptions Lenient;
  Lenient.TailRelThreshold = 0.10;
  Result = compareBenchRecords(Baseline, Candidate, Lenient);
  EXPECT_FALSE(Result.Failed);
  EXPECT_EQ(row(Result, "wall/runtime/pause_p99_ms").Verdict,
            BenchVerdict::Pass);
}
