//===- bench/bench_driver.cpp - Unified benchmark harness -----------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Runs a declared suite (quick / paper / runtime / server) and emits a
// schema-versioned BENCH_<suite>.json record carrying every deterministic
// metric and the per-phase cost attribution from the scoped phase
// profiler. bench_compare diffs two of these records and gates CI.
//
// The record is bit-identical for any --threads value, so it is suitable
// for checked-in baselines. Wall-clock measurements live in perfbench and
// bench/runtime_micro, not here.
//
//===----------------------------------------------------------------------===//

#include "report/BenchDriver.h"
#include "support/CommandLine.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <string>

using namespace dtb;

int main(int Argc, char **Argv) {
  std::string Suite = "quick";
  std::string Out;
  uint64_t Threads = 0;
  uint64_t TopN = 16;
  bool Quick = false;
  bool NoSummary = false;

  std::string SuiteHelp = "Suite to run (";
  for (size_t I = 0; I != report::benchSuiteNames().size(); ++I)
    SuiteHelp += (I ? ", " : "") + report::benchSuiteNames()[I];
  SuiteHelp += ")";

  OptionParser Parser(
      "Runs a benchmark suite and writes a BENCH_<suite>.json record "
      "(exact metrics, per-phase cost attribution)");
  Parser.addString("suite", SuiteHelp, &Suite);
  Parser.addFlag("quick", "Shorthand for --suite quick", &Quick);
  Parser.addString("out",
                   "Output path ('-' for stdout; default BENCH_<suite>.json)",
                   &Out);
  Parser.addUInt("top", "Phases shown in the cost-attribution summary",
                 &TopN);
  Parser.addFlag("no-summary", "Skip the cost-attribution summary", &NoSummary);
  addThreadsOption(Parser, &Threads);
  if (!Parser.parse(Argc, Argv))
    return 1;
  applyThreadsOption(Threads);
  if (Quick)
    Suite = "quick";

  report::BenchDriverOptions Options;
  Options.Suite = Suite;
  Options.Threads = static_cast<unsigned>(Threads);

  report::BenchSuiteResult Result = report::runBenchSuite(Options);
  std::string Json = report::toJson(Result.Record);

  if (Out.empty())
    Out = "BENCH_" + Suite + ".json";
  if (Out == "-") {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
  } else {
    std::FILE *F = std::fopen(Out.c_str(), "wb");
    if (!F) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   Out.c_str());
      return 1;
    }
    std::fwrite(Json.data(), 1, Json.size(), F);
    std::fclose(F);
    std::fprintf(stderr, "wrote %s (%zu metrics, %zu phases)\n", Out.c_str(),
                 Result.Record.Metrics.size(), Result.Record.Phases.size());
  }

  // Cost-attribution summary: one table per profiled domain, to stderr so
  // `--out -` pipes clean JSON.
  if (!NoSummary) {
    for (const auto &[Domain, Profiler] : Result.Profiles) {
      if (Profiler.aggregates().empty())
        continue;
      std::fprintf(stderr, "\nCost attribution — %s (top %llu by self cost)\n",
                   Domain.c_str(),
                   static_cast<unsigned long long>(TopN));
      profiling::buildCostAttributionTable(Profiler, TopN).print(stderr);
    }
    if (Result.Profiles.empty() || !profiling::compiledIn())
      std::fprintf(stderr, "\n(no phase profile: %s)\n",
                   profiling::compiledIn()
                       ? "suite records no profiled stages"
                       : "telemetry compiled out");
  }
  return 0;
}
