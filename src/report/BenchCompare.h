//===- report/BenchCompare.h - BENCH record regression diff -----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diffs two BENCH records (baseline vs. candidate) metric by metric and
/// decides pass/fail, so perf regressions gate CI instead of vanishing
/// silently:
///
///  * every metric is deterministic — any change is real. Changes in the
///    worse direction (per LowerIsBetter) are regressions; improvements
///    pass but stay visible so the baseline gets refreshed.
///  * a metric present in the baseline but not the candidate is Missing
///    (fails by default: a silently dropped measurement is how coverage
///    rots); candidate-only metrics are New and pass.
///
/// Mixed schema versions refuse to compare (exit 2): a schema bump means
/// the baseline must be regenerated, not reinterpreted.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_REPORT_BENCHCOMPARE_H
#define DTB_REPORT_BENCHCOMPARE_H

#include "report/BenchRecord.h"
#include "support/Table.h"

#include <string>
#include <vector>

namespace dtb {
namespace report {

enum class BenchVerdict { Pass, Improved, Regressed, Missing, New };

/// Display name ("pass", "IMPROVED", "REGRESSED", "MISSING", "new").
const char *benchVerdictName(BenchVerdict Verdict);

struct BenchCompareOptions {
  /// Whether baseline metrics absent from the candidate fail the compare.
  bool FailOnMissing = true;
};

/// One metric's comparison row.
struct BenchMetricComparison {
  std::string Name;
  BenchVerdict Verdict = BenchVerdict::Pass;
  double Baseline = 0.0;
  double Candidate = 0.0;
  /// Signed change in percent of the baseline (0 when baseline is 0).
  double DeltaPercent = 0.0;
  std::string Note;
};

struct BenchCompareResult {
  /// Set when the schema versions differ; Rows is empty then.
  bool SchemaMismatch = false;
  std::string SchemaNote;
  /// True when any row fails under the options used.
  bool Failed = false;
  std::vector<BenchMetricComparison> Rows;
  unsigned NumPass = 0;
  unsigned NumImproved = 0;
  unsigned NumRegressed = 0;
  unsigned NumMissing = 0;
  unsigned NumNew = 0;

  /// Process exit code: 0 clean, 1 regressions/missing, 2 schema mismatch.
  int exitCode() const { return SchemaMismatch ? 2 : Failed ? 1 : 0; }
};

BenchCompareResult compareBenchRecords(const BenchRecord &Baseline,
                                       const BenchRecord &Candidate,
                                       const BenchCompareOptions &Options);

/// The comparison rendered as a table: metric, baseline, candidate, delta
/// percent, verdict, note.
Table buildComparisonTable(const BenchCompareResult &Result);

} // namespace report
} // namespace dtb

#endif // DTB_REPORT_BENCHCOMPARE_H
