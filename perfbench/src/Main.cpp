//===- perfbench/src/Main.cpp - The repository benchmark ------------------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <sim-paper|rt-graph|rt-copy|rt-tlab|rt-threads>
///           --seed <n> --seconds <s> --trace <0|1>
/// perfbench --self-test
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: whether every output passed its check, how many operations
/// were attempted and failed, and the end-to-end metrics (--trace 0) or
/// the per-layer metrics (--trace 1).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Workloads.h"

#include <cstdlib>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Problem) {
  std::cerr << "perfbench: " << Problem << "\n"
            << "usage: perfbench --workload "
               "<sim-paper|rt-graph|rt-copy|rt-tlab|rt-threads> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n";
  std::exit(2);
}

uint64_t parseNumber(const std::string &Flag, const std::string &Text) {
  char *End = nullptr;
  unsigned long long Value = std::strtoull(Text.c_str(), &End, 10);
  if (Text.empty() || *End != '\0' || Text[0] == '-')
    usage(Flag + " needs a whole number, not '" + Text + "'");
  return Value;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload;
  RunOptions Options;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--self-test")
      return runSelfTest();
    if (I + 1 >= Argc)
      usage(Flag + " needs a value");
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      Workload = Value;
    else if (Flag == "--seed")
      Options.Seed = parseNumber(Flag, Value);
    else if (Flag == "--seconds") {
      uint64_t Seconds = parseNumber(Flag, Value);
      if (Seconds == 0 || Seconds > 3600)
        usage("--seconds must be between 1 and 3600");
      Options.Seconds = static_cast<double>(Seconds);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        usage("--trace must be 0 or 1");
      Options.Traced = Value == "1";
    } else
      usage("unknown option " + Flag);
  }

  RunResult Result;
  if (Workload == "sim-paper")
    Result = runSimPaper(Options);
  else if (Workload == "rt-graph")
    Result = runRtGraph(Options, dtb::runtime::CollectorKind::MarkSweep);
  else if (Workload == "rt-copy")
    Result = runRtGraph(Options, dtb::runtime::CollectorKind::Copying);
  else if (Workload == "rt-tlab")
    Result = runRtThreads(Options, 1);
  else if (Workload == "rt-threads")
    Result = runRtThreads(Options, 3);
  else
    usage("unknown workload '" + Workload + "'");
  completeMetrics(Result, Options.Traced);
  printResult(Result);
  return 0;
}
