//===- bench/bench_compare.cpp - BENCH record regression gate -------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Diffs two BENCH_*.json records (baseline vs. candidate) and exits
// nonzero when the candidate regresses: every metric is exact and gates
// on equality. Wired into CI against tests/data/bench/baseline.json so
// perf regressions fail the build.
//
// Exit codes: 0 clean, 1 regression/missing metric, 2 schema mismatch or
// unreadable input.
//
//===----------------------------------------------------------------------===//

#include "report/BenchCompare.h"
#include "support/CommandLine.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace dtb;

namespace {

bool readFile(const std::string &Path, std::string *Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  *Out = Buffer.str();
  return true;
}

bool loadRecord(const std::string &Path, report::BenchRecord *Out) {
  std::string Text;
  if (!readFile(Path, &Text)) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return false;
  }
  std::string Error;
  if (!report::parseBenchRecord(Text, Out, &Error)) {
    std::fprintf(stderr, "error: %s: %s\n", Path.c_str(), Error.c_str());
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  report::BenchCompareOptions Options;
  bool AllowMissing = false;
  bool Verbose = false;

  OptionParser Parser(
      "Compares two BENCH_*.json records (baseline candidate) and exits "
      "nonzero on regressions: every metric is exact and gates on "
      "equality");
  Parser.addFlag("allow-missing",
                 "Do not fail when a baseline metric is absent from the "
                 "candidate",
                 &AllowMissing);
  Parser.addFlag("verbose", "Print every row, not just failures and changes",
                 &Verbose);
  if (!Parser.parse(Argc, Argv))
    return 2;
  Options.FailOnMissing = !AllowMissing;

  if (Parser.positionals().size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare [options] baseline.json candidate.json\n");
    return 2;
  }

  report::BenchRecord Baseline, Candidate;
  if (!loadRecord(Parser.positionals()[0], &Baseline) ||
      !loadRecord(Parser.positionals()[1], &Candidate))
    return 2;

  report::BenchCompareResult Result =
      report::compareBenchRecords(Baseline, Candidate, Options);
  if (Result.SchemaMismatch) {
    std::fprintf(stderr, "error: %s\n", Result.SchemaNote.c_str());
    return Result.exitCode();
  }

  // Quiet mode shows only rows someone must act on; --verbose shows all.
  report::BenchCompareResult Shown = Result;
  if (!Verbose) {
    Shown.Rows.clear();
    for (const report::BenchMetricComparison &Row : Result.Rows)
      if (Row.Verdict != report::BenchVerdict::Pass)
        Shown.Rows.push_back(Row);
  }
  if (!Shown.Rows.empty())
    report::buildComparisonTable(Shown).print(stdout);

  std::printf("%s%u pass, %u improved, %u regressed, %u missing, %u new "
              "(baseline %s, candidate %s)\n",
              Shown.Rows.empty() ? "" : "\n", Result.NumPass,
              Result.NumImproved, Result.NumRegressed, Result.NumMissing,
              Result.NumNew,
              Baseline.Suite.empty() ? "?" : Baseline.Suite.c_str(),
              Candidate.Suite.empty() ? "?" : Candidate.Suite.c_str());
  if (Result.Failed)
    std::printf("FAIL: candidate regresses the baseline\n");
  return Result.exitCode();
}
