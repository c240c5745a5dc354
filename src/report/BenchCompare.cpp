//===- report/BenchCompare.cpp --------------------------------------------==//

#include "report/BenchCompare.h"

#include "telemetry/Export.h"

#include <cstdio>

using namespace dtb;
using namespace dtb::report;

const char *dtb::report::benchVerdictName(BenchVerdict Verdict) {
  switch (Verdict) {
  case BenchVerdict::Pass:
    return "pass";
  case BenchVerdict::Improved:
    return "IMPROVED";
  case BenchVerdict::Regressed:
    return "REGRESSED";
  case BenchVerdict::Missing:
    return "MISSING";
  case BenchVerdict::New:
    return "new";
  }
  return "?";
}

namespace {

double deltaPercent(double Baseline, double Candidate) {
  return Baseline != 0.0 ? 100.0 * (Candidate - Baseline) / Baseline : 0.0;
}

/// True when moving from \p Baseline to \p Candidate is in the metric's
/// bad direction.
bool isWorse(const BenchMetric &M, double Baseline, double Candidate) {
  return M.LowerIsBetter ? Candidate > Baseline : Candidate < Baseline;
}

void count(BenchCompareResult &Result, const BenchMetricComparison &Row) {
  switch (Row.Verdict) {
  case BenchVerdict::Pass:
    ++Result.NumPass;
    break;
  case BenchVerdict::Improved:
    ++Result.NumImproved;
    break;
  case BenchVerdict::Regressed:
    ++Result.NumRegressed;
    break;
  case BenchVerdict::Missing:
    ++Result.NumMissing;
    break;
  case BenchVerdict::New:
    ++Result.NumNew;
    break;
  }
}

} // namespace

BenchCompareResult
dtb::report::compareBenchRecords(const BenchRecord &Baseline,
                                 const BenchRecord &Candidate,
                                 const BenchCompareOptions &Options) {
  BenchCompareResult Result;
  if (Baseline.SchemaVersion != Candidate.SchemaVersion) {
    Result.SchemaMismatch = true;
    Result.SchemaNote = "schema version mismatch: baseline v" +
                        std::to_string(Baseline.SchemaVersion) +
                        " vs candidate v" +
                        std::to_string(Candidate.SchemaVersion) +
                        " — regenerate the baseline";
    return Result;
  }

  for (const BenchMetric &Base : Baseline.Metrics) {
    BenchMetricComparison Row;
    Row.Name = Base.Name;
    Row.Baseline = Base.Value;

    const BenchMetric *Cand = Candidate.findMetric(Base.Name);
    if (!Cand) {
      Row.Verdict = BenchVerdict::Missing;
      Row.Note = "metric absent from candidate";
      Result.Failed |= Options.FailOnMissing;
    } else {
      Row.Candidate = Cand->Value;
      Row.DeltaPercent = deltaPercent(Base.Value, Cand->Value);
      if (Cand->Value == Base.Value) {
        Row.Verdict = BenchVerdict::Pass;
      } else if (isWorse(Base, Base.Value, Cand->Value)) {
        Row.Verdict = BenchVerdict::Regressed;
        Result.Failed = true;
      } else {
        Row.Verdict = BenchVerdict::Improved;
        Row.Note = "deterministic change: refresh the baseline";
      }
    }
    count(Result, Row);
    Result.Rows.push_back(std::move(Row));
  }

  for (const BenchMetric &Cand : Candidate.Metrics) {
    if (Baseline.findMetric(Cand.Name))
      continue;
    BenchMetricComparison Row;
    Row.Name = Cand.Name;
    Row.Candidate = Cand.Value;
    Row.Verdict = BenchVerdict::New;
    Row.Note = "not in baseline";
    count(Result, Row);
    Result.Rows.push_back(std::move(Row));
  }
  return Result;
}

Table dtb::report::buildComparisonTable(const BenchCompareResult &Result) {
  Table T({"Metric", "Baseline", "Candidate", "Delta %", "Verdict", "Note"});
  T.setAlignment(0, AlignKind::Left);
  T.setAlignment(5, AlignKind::Left);
  auto Num = [](double V) { return telemetry::arg("", V).Value; };
  for (const BenchMetricComparison &Row : Result.Rows) {
    T.addRow({Row.Name,
              Row.Verdict == BenchVerdict::New ? "-" : Num(Row.Baseline),
              Row.Verdict == BenchVerdict::Missing ? "-" : Num(Row.Candidate),
              Table::cell(Row.DeltaPercent, 2), benchVerdictName(Row.Verdict),
              Row.Note});
  }
  return T;
}
