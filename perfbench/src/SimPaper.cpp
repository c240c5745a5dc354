//===- perfbench/src/SimPaper.cpp - The paper's simulation grid -----------==//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// sim-paper: the six paper traces (seeded from the run seed) times the
/// six paper policies, simulated serially under the paper's constraints
/// (trigger 1 MB, Trace_max 50 KB, Mem_max 3000 KB). One round runs all
/// 36 cells; a cell is one operation.
///
/// The simulator has no runtime, so its end-to-end pause is the wall time
/// of each simulated scavenge, from the policy call that opens it to the
/// scavenge observer that closes it.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workloads.h"

#include "core/Policies.h"
#include "report/PaperReference.h"
#include "sim/Simulator.h"
#include "workload/Workload.h"

#include <cmath>
#include <memory>

using namespace perfbench;
using namespace dtb;

namespace {

constexpr uint64_t TriggerBytes = 1'000'000;
constexpr uint64_t TraceMaxBytes = 50'000;
constexpr uint64_t MemMaxBytes = 3'000'000;

struct Inputs {
  std::vector<workload::WorkloadSpec> Specs;
  std::vector<trace::Trace> Traces;
  std::vector<LivenessOracle> Oracles;
  uint64_t GenerateNanos = 0;
};

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  uint64_t Begin = nowNanos();
  for (const workload::WorkloadSpec &Paper : workload::paperWorkloads()) {
    workload::WorkloadSpec Spec = Paper;
    Spec.Seed = deriveSeed(Seed, In.Specs.size());
    In.Traces.push_back(workload::generateTrace(Spec));
    In.Specs.push_back(std::move(Spec));
  }
  In.GenerateNanos = nowNanos() - Begin;
  for (const trace::Trace &T : In.Traces)
    In.Oracles.emplace_back(
        T, [](const trace::AllocationRecord &R) -> uint64_t { return R.Size; });
  return In;
}

sim::SimulatorConfig configFor(const workload::WorkloadSpec &Spec) {
  sim::SimulatorConfig Config;
  Config.TriggerBytes = TriggerBytes;
  Config.ProgramSeconds = Spec.ProgramSeconds;
  return Config;
}

std::unique_ptr<core::BoundaryPolicy> paperPolicy(const std::string &Name) {
  core::PolicyConfig Config;
  Config.TraceMaxBytes = TraceMaxBytes;
  Config.MemMaxBytes = MemMaxBytes;
  return core::createPolicy(Name, Config);
}

/// What one round measured.
struct Round {
  uint64_t SimulateNanos = 0;
  uint64_t DecisionNanos = 0;
  uint64_t QueryNanos = 0;
  uint64_t Queries = 0;
  uint64_t Decisions = 0;
  uint64_t Scavenges = 0;
  uint64_t Bytes = 0;
  std::vector<sim::SimulationResult> Cells;
};

Round runRound(const Inputs &In, bool TimedQueries, std::vector<double> &Pauses,
               uint64_t &ResidentMax) {
  Round R;
  const std::vector<std::string> &Policies = core::paperPolicyNames();
  for (size_t W = 0; W != In.Traces.size(); ++W) {
    for (const std::string &Name : Policies) {
      TimedPolicy Policy(paperPolicy(Name));
      Policy.setTimedQueries(TimedQueries);
      sim::SimulatorConfig Config = configFor(In.Specs[W]);
      Config.OnScavenge = [&](const sim::ScavengeObservation &Obs) {
        uint64_t Done = nowNanos();
        Pauses.push_back(nanosToMillis(Done - Policy.LastEntryNanos));
        ResidentMax = std::max(ResidentMax, Obs.Record.MemBeforeBytes);
      };
      uint64_t Begin = nowNanos();
      sim::SimulationResult Result =
          sim::simulate(In.Traces[W], Policy, Config);
      R.SimulateNanos += nowNanos() - Begin;
      R.DecisionNanos += Policy.Decisions.Nanos;
      R.Decisions += Policy.Decisions.Calls;
      R.QueryNanos += Policy.Queries.Nanos;
      R.Queries += Policy.Queries.Calls;
      R.Scavenges += Result.NumScavenges;
      R.Bytes += In.Traces[W].totalAllocated();
      R.Cells.push_back(std::move(Result));
    }
  }
  return R;
}

} // namespace

bool perfbench::sameHistory(const core::ScavengeHistory &A,
                 const core::ScavengeHistory &B) {
  const auto &X = A.records();
  const auto &Y = B.records();
  if (X.size() != Y.size())
    return false;
  for (size_t I = 0; I != X.size(); ++I)
    if (X[I].Index != Y[I].Index || X[I].Time != Y[I].Time ||
        X[I].Boundary != Y[I].Boundary ||
        X[I].TracedBytes != Y[I].TracedBytes ||
        X[I].MemBeforeBytes != Y[I].MemBeforeBytes ||
        X[I].SurvivedBytes != Y[I].SurvivedBytes ||
        X[I].ReclaimedBytes != Y[I].ReclaimedBytes)
      return false;
  return true;
}

std::string perfbench::checkSimHistory(const core::ScavengeHistory &History,
                                       const LivenessOracle &Oracle,
                                       bool IsFull) {
  for (const core::ScavengeRecord &Rec : History.records()) {
    uint64_t Live = Oracle.liveAt(Rec.Time).Bytes;
    std::string At = "scavenge " + std::to_string(Rec.Index) + ": ";
    if (Rec.TracedBytes > Live)
      return At + "traced " + std::to_string(Rec.TracedBytes) +
             " bytes, more than the " + std::to_string(Live) + " live";
    if (IsFull && Rec.TracedBytes != Live)
      return At + "FULL traced " + std::to_string(Rec.TracedBytes) +
             " bytes, not the " + std::to_string(Live) + " live";
    if (Rec.SurvivedBytes < Live)
      return At + "resident " + std::to_string(Rec.SurvivedBytes) +
             " bytes after the scavenge, below the " + std::to_string(Live) +
             " live";
  }
  return "";
}

std::string perfbench::checkFullTable2(const std::string &Workload,
                                       double MemMeanBytes) {
  std::optional<report::PaperCell> Paper = report::paperCell("full", Workload);
  if (!Paper)
    return "no published FULL figure for " + Workload;
  // tests/integration_test.cpp: FULL lands within 15% of Table 2.
  double MeasuredKB = MemMeanBytes / 1000.0;
  if (std::fabs(MeasuredKB - Paper->MemMeanKB) > Paper->MemMeanKB * 0.15)
    return Workload + ": FULL mean memory " + std::to_string(MeasuredKB) +
           " KB is not within 15% of the published " +
           std::to_string(Paper->MemMeanKB) + " KB";
  return "";
}

RunResult perfbench::runSimPaper(const RunOptions &Options) {
  RunResult Result;
  const std::vector<std::string> &Policies = core::paperPolicyNames();

  // Set-up: generate the traces, build the oracles and warm up on one
  // cell per trace; repeated so the reported figure is a median.
  dtb::SampleSet SetupSeconds, GenerateSeconds;
  Inputs In;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    In = Inputs(); // Free the previous repetition's inputs first.
    uint64_t Begin = nowNanos();
    In = makeInputs(Options.Seed);
    for (size_t W = 0; W != In.Traces.size(); ++W) {
      std::unique_ptr<core::BoundaryPolicy> Warm = paperPolicy("fixed1");
      sim::simulate(In.Traces[W], *Warm, configFor(In.Specs[W]));
    }
    SetupSeconds.add(nanosToSeconds(nowNanos() - Begin));
    GenerateSeconds.add(nanosToSeconds(In.GenerateNanos));
  }

  // Measured phase: whole rounds until the time is up and the tails have
  // enough samples. The traced run alternates timed and untimed rounds so
  // it can report its own overhead.
  std::vector<Round> Rounds;
  std::vector<RoundSample> Samples;
  dtb::SampleSet TracedRoundSeconds, PlainRoundSeconds;
  uint64_t ResidentMax = 0;
  uint64_t PhaseBegin = nowNanos();
  while (!measuredEnough(Samples, PhaseBegin, Options.Seconds)) {
    bool TimedQueries = Options.Traced && Rounds.size() % 2 == 0;
    RoundSample Sample;
    Round R = runRound(In, TimedQueries, Sample.PausesMs, ResidentMax);
    Sample.Seconds = nanosToSeconds(R.SimulateNanos);
    Sample.MB = toMB(R.Bytes);
    (TimedQueries ? TracedRoundSeconds : PlainRoundSeconds)
        .add(Sample.Seconds);
    Samples.push_back(std::move(Sample));
    Rounds.push_back(std::move(R));
  }

  // Checks, outside the timed phase. The reference histories come from
  // the bare policies, without the wrapper or the observer.
  std::vector<core::ScavengeHistory> Reference;
  for (size_t W = 0; W != In.Traces.size(); ++W)
    for (const std::string &Name : Policies) {
      std::unique_ptr<core::BoundaryPolicy> Bare = paperPolicy(Name);
      Reference.push_back(
          sim::simulate(In.Traces[W], *Bare, configFor(In.Specs[W])).History);
    }
  for (const Round &R : Rounds) {
    for (size_t W = 0; W != In.Traces.size(); ++W) {
      for (size_t P = 0; P != Policies.size(); ++P) {
        size_t Cell = W * Policies.size() + P;
        const sim::SimulationResult &Sim = R.Cells[Cell];
        std::string Where = In.Specs[W].Name + "/" + Policies[P] + ": ";
        std::string Problem =
            checkSimHistory(Sim.History, In.Oracles[W], Policies[P] == "full");
        if (Problem.empty() && Policies[P] == "full")
          Problem = checkFullTable2(In.Specs[W].Name, Sim.MemMeanBytes);
        if (Problem.empty() && !sameHistory(Sim.History, Reference[Cell]))
          Problem = "history differs from the run without the layer timers";
        Result.operation(Problem.empty() ? "" : Where + Problem);
      }
    }
  }

  if (!Options.Traced) {
    setEndToEnd(Result, SetupSeconds, Samples, ResidentMax);
    return Result;
  }

  // Per-layer figures are per round, from the timed rounds only.
  std::vector<Round> Timed;
  for (size_t I = 0; I < Rounds.size(); I += 2)
    Timed.push_back(std::move(Rounds[I]));
  auto perRound = [&](auto Field) {
    double Sum = 0.0;
    for (const Round &R : Timed)
      Sum += static_cast<double>(Field(R));
    return Sum / static_cast<double>(Timed.size());
  };
  double Simulate = perRound([](const Round &R) { return R.SimulateNanos; });
  double Decide = perRound([](const Round &R) { return R.DecisionNanos; });
  double Query = perRound([](const Round &R) { return R.QueryNanos; });
  Result.set("workload.generate_s", GenerateSeconds.median(), "s");
  Result.set("sim.simulate_s", Simulate * 1e-9, "s");
  Result.set("sim.replay_s", (Simulate - Decide) * 1e-9, "s");
  Result.set("sim.heapmodel_query_s", Query * 1e-9, "s");
  Result.set("sim.heapmodel_queries",
             perRound([](const Round &R) { return R.Queries; }), "count");
  Result.set("sim.scavenges",
             perRound([](const Round &R) { return R.Scavenges; }), "count");
  Result.set("core.policy_s", (Decide - Query) * 1e-9, "s");
  Result.set("core.policy_calls",
             perRound([](const Round &R) { return R.Decisions; }), "count");
  setTraceOverhead(Result, TracedRoundSeconds, PlainRoundSeconds);
  return Result;
}
