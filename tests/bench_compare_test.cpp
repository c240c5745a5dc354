//===- tests/bench_compare_test.cpp - BENCH record comparator -------------===//
//
// The regression gate's verdict logic over golden BENCH JSON pairs: a
// clean pass, a real regression, an improvement, a schema version
// mismatch, and a missing metric — plus the record's JSON
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

/// The golden baseline: two exact metrics.
const char *BaselineJson = R"({
  "schema_version": 1,
  "suite": "quick",
  "metrics": {
    "sim/ghost/full/traced_bytes": {"kind": "exact", "unit": "bytes",
      "lower_is_better": true, "value": 363524},
    "sim/ghost/full/num_scavenges": {"kind": "exact", "unit": "count",
      "lower_is_better": true, "value": 10}
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
  EXPECT_EQ(Result.NumPass, 2u);
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
  ASSERT_EQ(Record.Metrics.size(), 2u);
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
  EXPECT_EQ(Result.NumPass, 2u);
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

  // Records hold exact metrics only: a wall-clock sample set is rejected.
  EXPECT_FALSE(parseBenchRecord(
      R"({"schema_version": 1, "metrics": {"m": {"kind": "wall",
          "values": [1.0, 2.0], "min": 1.0, "median": 1.0, "mad": 0.0}}})",
      &Record, &Error));
  EXPECT_NE(Error.find("unknown kind 'wall'"), std::string::npos);
}
