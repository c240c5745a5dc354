//===- report/BenchDriver.h - Unified benchmark suites ----------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic benchmark suites, emitting the BENCH_<suite>.json
/// records of report/BenchRecord.h: simulator grid cells and
/// managed-runtime mutator runs, scored by exact quantities (bytes traced,
/// memory, machine-model pause), with per-cell phase profilers folded
/// serially into one "sim" and one "runtime" domain. Every record is
/// bit-identical for every --threads value (tasks deposit into
/// preassigned slots, fixed-order merges). No record holds a wall-clock
/// time: wall throughput and pause are perfbench's (BENCHMARK.json), and
/// hot-path micro timings are bench/runtime_micro's.
///
/// Suites:
///  * quick  — small steady-state sim grid + a scaled runtime run; the CI
///             smoke gate (sub-second).
///  * paper  — the full Table 2/3/4 workload×policy grid + the
///             runtime_end_to_end-scale runtime run.
///  * runtime— the runtime_end_to_end-scale runtime run plus the
///             mutator-observability stage.
///  * server — the serverload scenario catalog (serverload/ServerLoad.h)
///             under every paper policy, emitting the tail families the
///             server story gates: pause p50/p99/p99.9 and
///             memory-overshoot (floating garbage vs. the trace oracle)
///             quantiles per scenario x policy.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_REPORT_BENCHDRIVER_H
#define DTB_REPORT_BENCHDRIVER_H

#include "profiling/Profiler.h"
#include "report/BenchRecord.h"

#include <map>
#include <string>
#include <vector>

namespace dtb {
namespace report {

struct BenchDriverOptions {
  std::string Suite = "quick";
  /// Worker threads for the sim fan-out: 0 = process default, 1 = serial.
  /// Deterministic output is independent of this.
  unsigned Threads = 0;
};

/// A suite's record plus the merged per-domain profilers backing its
/// phases block (for the cost-attribution summary).
struct BenchSuiteResult {
  BenchRecord Record;
  std::map<std::string, profiling::PhaseProfiler> Profiles;
};

/// The declared suite names, in documentation order.
const std::vector<std::string> &benchSuiteNames();

/// Runs one suite. Fatal on an unknown suite name.
BenchSuiteResult runBenchSuite(const BenchDriverOptions &Options);

} // namespace report
} // namespace dtb

#endif // DTB_REPORT_BENCHDRIVER_H
