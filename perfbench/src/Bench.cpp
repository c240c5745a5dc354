//===- perfbench/src/Bench.cpp --------------------------------------------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Layers.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

using namespace perfbench;

double perfbench::peakRssMB() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) * 1024.0 * 1e-6;
}

uint64_t perfbench::deriveSeed(uint64_t RunSeed, uint64_t Stream) {
  // SplitMix64 over (seed, stream): distinct streams of one run and the
  // same stream of distinct runs both land far apart.
  uint64_t X = RunSeed * 0x9e3779b97f4a7c15ull + Stream + 1;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

void RunResult::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  for (auto &Entry : Metrics)
    if (Entry.first == Name) {
      Entry.second = {Value, Unit};
      return;
    }
  Metrics.push_back({Name, {Value, Unit}});
}

void RunResult::operation(const std::string &Problem) {
  Attempted += 1;
  if (Problem.empty())
    return;
  Failed += 1;
  // Keep the first few reasons; one broken invariant usually repeats.
  if (Problems.size() < 20)
    Problems.push_back(Problem);
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"setup_s", "s"},           {"throughput_mb_s", "MB/s"},
      {"pause_p50_ms", "ms"},     {"pause_p99_ms", "ms"},
      {"resident_max_mb", "MB"},  {"rss_max_mb", "MB"},
  };
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"workload.generate_s", "s"},
      {"serverload.generate_s", "s"},
      {"sim.simulate_s", "s"},
      {"sim.replay_s", "s"},
      {"sim.heapmodel_query_s", "s"},
      {"sim.heapmodel_queries", "count"},
      {"sim.scavenges", "count"},
      {"core.policy_s", "s"},
      {"core.policy_calls", "count"},
      {"runtime.alloc_s", "s"},
      {"runtime.alloc_calls", "count"},
      {"runtime.barrier_s", "s"},
      {"runtime.barrier_calls", "count"},
      {"runtime.collect_s", "s"},
      {"runtime.collections", "count"},
      {"runtime.rendezvous_s", "s"},
      {"runtime.scavenge_s", "s"},
      {"runtime.demographics_query_s", "s"},
      {"runtime.demographics_queries", "count"},
      {"runtime.traced_mb", "MB"},
      {"runtime.objects_traced", "count"},
      {"runtime.remset_roots", "count"},
      {"runtime.objects_moved", "count"},
      {"runtime.reclaimed_mb", "MB"},
      {"runtime.tlab_refills", "count"},
      {"runtime.barrier_flushes", "count"},
      {"runtime.safepoint_yields", "count"},
      {"mutator.other_s", "s"},
      {"bench.trace_overhead_pct", "%"},
  };
  return Names;
}

bool perfbench::measuredEnough(const std::vector<RoundSample> &Rounds,
                               uint64_t BeginNanos, double Seconds) {
  if (nanosToSeconds(nowNanos() - BeginNanos) < Seconds)
    return false;
  size_t Pauses = 0;
  for (const RoundSample &Round : Rounds)
    Pauses += Round.PausesMs.size();
  return Pauses >= MinTailSamples;
}

void perfbench::setEndToEnd(RunResult &R,
                            const dtb::SampleSet &SetupSeconds,
                            const std::vector<RoundSample> &Rounds,
                            uint64_t ResidentMaxBytes) {
  dtb::SampleSet Throughputs, Pauses;
  for (const RoundSample &Round : Rounds) {
    Throughputs.add(Round.MB / Round.Seconds);
    for (double Pause : Round.PausesMs)
      Pauses.add(Pause);
  }
  R.set("setup_s", SetupSeconds.median(), "s");
  R.set("throughput_mb_s", Throughputs.median(), "MB/s");
  R.set("pause_p50_ms", Pauses.quantile(0.50), "ms");
  R.set("pause_p99_ms", Pauses.quantile(0.99), "ms");
  R.set("resident_max_mb", toMB(ResidentMaxBytes), "MB");
  R.set("rss_max_mb", peakRssMB(), "MB");
}

void perfbench::setTraceOverhead(RunResult &R,
                                 const dtb::SampleSet &TimedSeconds,
                                 const dtb::SampleSet &PlainSeconds) {
  if (TimedSeconds.empty() || PlainSeconds.empty())
    return;
  R.set("bench.trace_overhead_pct",
        (TimedSeconds.median() / PlainSeconds.median() - 1.0) * 100.0, "%");
}

void perfbench::completeMetrics(RunResult &R, bool Traced) {
  const auto &Names = Traced ? perLayerMetrics() : endToEndMetrics();
  std::map<std::string, std::pair<double, std::string>> Given(
      R.Metrics.begin(), R.Metrics.end());
  R.Metrics.clear();
  for (const auto &[Name, Unit] : Names) {
    auto It = Given.find(Name);
    R.Metrics.push_back({Name, {It == Given.end() ? 0.0 : It->second.first,
                                Unit}});
  }
}

void perfbench::printResult(const RunResult &R) {
  for (const std::string &Problem : R.Problems)
    std::cerr << "check failed: " << Problem << "\n";
  std::ostringstream Out;
  Out << "{\"correct\": " << (R.Correct ? "true" : "false")
      << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
      << ", \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Metric] : R.Metrics) {
    char Value[64];
    // %.17g keeps every digit the double carries.
    std::snprintf(Value, sizeof(Value), "%.17g",
                  std::isfinite(Metric.first) ? Metric.first : 0.0);
    Out << (First ? "" : ", ") << "\"" << Name << "\": {\"value\": " << Value
        << ", \"unit\": \"" << Metric.second << "\"}";
    First = false;
  }
  Out << "}}";
  std::cout << Out.str() << std::endl;
}

uint64_t TimedDemographics::liveBytesBornAfter(
    dtb::core::AllocClock Boundary) const {
  Totals.Calls += 1;
  if (!Timed)
    return Inner.liveBytesBornAfter(Boundary);
  uint64_t Begin = nowNanos();
  uint64_t Bytes = Inner.liveBytesBornAfter(Boundary);
  Totals.Nanos += nowNanos() - Begin;
  return Bytes;
}

uint64_t TimedDemographics::residentBytesBornAfter(
    dtb::core::AllocClock Boundary) const {
  Totals.Calls += 1;
  if (!Timed)
    return Inner.residentBytesBornAfter(Boundary);
  uint64_t Begin = nowNanos();
  uint64_t Bytes = Inner.residentBytesBornAfter(Boundary);
  Totals.Nanos += nowNanos() - Begin;
  return Bytes;
}

dtb::core::AllocClock
TimedPolicy::chooseBoundary(const dtb::core::BoundaryRequest &Request) {
  LastEntryNanos = nowNanos();
  dtb::core::BoundaryRequest Forwarded = Request;
  TimedDemographics Demo(*Request.Demo, TimedQueries, Queries);
  Forwarded.Demo = &Demo;
  dtb::core::AllocClock Boundary = Inner->chooseBoundary(Forwarded);
  Decisions.Calls += 1;
  Decisions.Nanos += nowNanos() - LastEntryNanos;
  return Boundary;
}
