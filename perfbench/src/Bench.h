//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// options, the wall clock, measured rounds, and the result record printed
/// as the last line of standard output.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_PERFBENCH_BENCH_H
#define DTB_PERFBENCH_BENCH_H

#include "support/Statistics.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Options every workload runs under.
struct RunOptions {
  uint64_t Seed = 1;
  /// Minimum length of the measured phase.
  double Seconds = 10.0;
  /// False: the end-to-end run (no per-call timers). True: the traced run
  /// that produces the per-layer metrics.
  bool Traced = false;
};

/// Monotonic wall clock in nanoseconds.
inline uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double nanosToSeconds(uint64_t Nanos) {
  return static_cast<double>(Nanos) * 1e-9;
}

inline double nanosToMillis(uint64_t Nanos) {
  return static_cast<double>(Nanos) * 1e-6;
}

/// Bytes to MB (10^6 bytes, the paper's unit).
inline double toMB(uint64_t Bytes) { return static_cast<double>(Bytes) * 1e-6; }

/// Peak resident set size of this process in MB (getrusage).
double peakRssMB();

/// Derives the seed of input stream \p Stream from the run seed, so each
/// generated trace of one run gets its own reproducible stream.
uint64_t deriveSeed(uint64_t RunSeed, uint64_t Stream);

/// Each run sets up this many times and reports the median set-up time.
inline constexpr unsigned SetupRepeats = 5;

/// A p99 needs at least this many samples, so that at least ten lie
/// beyond it.
inline constexpr size_t MinTailSamples = 1000;

/// One measured round: the same work every time (the whole grid, or one
/// whole replay).
struct RoundSample {
  double Seconds = 0.0;
  /// Bytes the round simulated or allocated, in MB.
  double MB = 0.0;
  /// Every pause the round timed, in ms.
  std::vector<double> PausesMs;
};

/// True once the measured phase may stop: \p Seconds have passed since
/// \p BeginNanos and \p Rounds hold enough pauses for a p99.
bool measuredEnough(const std::vector<RoundSample> &Rounds,
                    uint64_t BeginNanos, double Seconds);

/// One workload run's outcome: the operation counts and the metrics, in
/// print order.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Metrics;
  /// Why each failed check failed (printed to standard error).
  std::vector<std::string> Problems;

  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Counts one attempted operation; \p Problem empty means it passed.
  void operation(const std::string &Problem);
};

/// The end-to-end metrics every workload reports (name, unit), in order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
/// The per-layer metrics every workload reports (name, unit), in order;
/// a layer a workload does not use reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Sets the end-to-end metrics: the median set-up, the largest resident
/// bytes, the peak RSS, the median throughput over all \p Rounds and the
/// quantiles of every pause they timed.
void setEndToEnd(RunResult &R, const dtb::SampleSet &SetupSeconds,
                 const std::vector<RoundSample> &Rounds,
                 uint64_t ResidentMaxBytes);

/// Sets bench.trace_overhead_pct: the traced run's median timed round
/// against its median untimed round.
void setTraceOverhead(RunResult &R, const dtb::SampleSet &TimedSeconds,
                      const dtb::SampleSet &PlainSeconds);

/// Fills every metric of the run's kind that the workload left unset with
/// 0 and orders them as listed, so each output carries the same keys.
void completeMetrics(RunResult &R, bool Traced);

/// Prints \p R as one JSON object on a line of its own.
void printResult(const RunResult &R);

} // namespace perfbench

#endif // DTB_PERFBENCH_BENCH_H
