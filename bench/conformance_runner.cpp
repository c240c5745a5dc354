//===- bench/conformance_runner.cpp - Sim vs. runtime conformance --------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Replays workload traces through the simulator and the managed runtime in
// lockstep (src/conformance) over a policy x workload x link-mode grid and
// reports any divergence in the logical scavenge quantities. On divergence
// the trace is delta-debugged down to a minimal reproducer and written,
// with both sides' telemetry, to the artifacts directory.
//
// Two modes:
//   --quick   small steady-state traces plus a downscaled server scenario
//             with tight constraints (~seconds); also runs the
//             seeded-mutation self-test. This is the CI job.
//   default   the paper's six calibrated workloads under the paper's
//             constraint parameters.
//
// Exit status is nonzero if any grid cell diverges or the self-test fails
// to catch (and shrink) the seeded mutation.
//
//===----------------------------------------------------------------------===//

#include "conformance/Conformance.h"

#include "core/Policies.h"
#include "serverload/ServerLoad.h"
#include "support/CommandLine.h"
#include "support/ThreadPool.h"
#include "workload/Workload.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::conformance;

namespace {

struct Case {
  std::string Name;       // workload the trace came from
  const trace::Trace *T = nullptr;
  LockstepConfig Config;
};

struct CaseOutcome {
  bool Agreed = false;
  size_t Scavenges = 0;
  size_t ReproducerRecords = 0; // 0 unless shrunk
  std::string Detail;
};

std::string caseLabel(const Case &C) {
  std::string Label = C.Config.PolicyName + "/" + C.Name + "/" +
                      linkModeName(C.Config.Links);
  if (C.Config.Collector == runtime::CollectorKind::Copying)
    Label += "/copying";
  return Label;
}

/// Runs one grid cell; on divergence shrinks and writes artifacts.
CaseOutcome runCase(const Case &C, const std::string &ArtifactsDir) {
  CaseOutcome Outcome;
  trace::Trace T = normalizeForReplay(*C.T, C.Config.Links);
  LockstepResult Result = runLockstep(T, C.Config);
  Outcome.Agreed = Result.agreed();
  Outcome.Scavenges = Result.Sim.size();
  if (Outcome.Agreed)
    return Outcome;

  for (const Divergence &D : Result.Divergences) {
    Outcome.Detail += "    ";
    Outcome.Detail += D.describe();
    Outcome.Detail += '\n';
  }
  ShrinkResult Shrunk = shrinkDivergence(T, C.Config);
  Outcome.ReproducerRecords = Shrunk.Reproducer.records().size();
  std::string CaseName = C.Config.PolicyName + "_" + C.Name + "_" +
                         linkModeName(C.Config.Links);
  if (C.Config.Collector == runtime::CollectorKind::Copying)
    CaseName += "_copying";
  std::string Error;
  std::optional<ArtifactPaths> Paths = writeDivergenceArtifacts(
      ArtifactsDir, CaseName, Shrunk.Reproducer, C.Config, Shrunk.Final,
      &Error);
  if (Paths)
    Outcome.Detail += "    reproducer (" +
                      std::to_string(Outcome.ReproducerRecords) +
                      " records): " + Paths->TracePath + "\n";
  else
    Outcome.Detail += "    artifact write failed: " + Error + "\n";
  return Outcome;
}

/// The acceptance self-test: seed a boundary mutation into the runtime
/// side, expect the harness to catch it and the shrinker to reduce it to a
/// tiny reproducer. Proves the oracle has teeth — a harness that cannot
/// flag a known-bad policy proves nothing when it reports agreement.
bool runSelfTest(const std::string &ArtifactsDir, bool WriteArtifacts,
                 const std::string &Policy, uint64_t FromScavenge,
                 uint64_t DeltaBytes) {
  LockstepConfig Config;
  Config.PolicyName = Policy;
  Config.TriggerBytes = 8 * 1024;
  Config.Policy.TraceMaxBytes = 4 * 1024;
  Config.Policy.MemMaxBytes = 24 * 1024;
  Config.MutateFromScavenge = FromScavenge;
  Config.MutateDeltaBytes = DeltaBytes ? DeltaBytes : Config.TriggerBytes / 2;

  trace::Trace T = normalizeForReplay(
      workload::generateTrace(workload::makeSteadyStateSpec(128 * 1024, 3)),
      Config.Links);
  LockstepResult Result = runLockstep(T, Config);
  if (Result.agreed()) {
    std::fprintf(stderr,
                 "self-test FAILED: seeded boundary mutation not caught\n");
    return false;
  }
  ShrinkResult Shrunk = shrinkDivergence(T, Config);
  size_t Records = Shrunk.Reproducer.records().size();
  bool Ok = !Shrunk.Final.agreed() && Records <= 50;
  std::printf("self-test: seeded mutation caught at scavenge %llu, shrunk "
              "%zu -> %zu records in %zu replays%s\n",
              static_cast<unsigned long long>(
                  Result.Divergences.front().ScavengeIndex),
              Shrunk.OriginalRecords, Records, Shrunk.Replays,
              Ok ? "" : "  [FAILED: reproducer > 50 records]");
  if (WriteArtifacts) {
    std::string Error;
    if (!writeDivergenceArtifacts(ArtifactsDir, "selftest_" + Policy +
                                      "_mutation",
                                  Shrunk.Reproducer, Config, Shrunk.Final,
                                  &Error))
      std::fprintf(stderr, "self-test artifact write failed: %s\n",
                   Error.c_str());
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  bool InjectMutation = false;
  bool SelfTestArtifacts = false;
  std::string ArtifactsDir = "conformance-artifacts";
  std::string LinksOpt = "forward";
  std::string CollectorOpt = "marksweep";
  uint64_t ScavengeBudget = 0;
  uint64_t Mutators = 0;
  bool AbortProbe = false;
  uint64_t Threads = 0;
  uint64_t TriggerBytes = 0; // 0 = mode default
  uint64_t TraceMaxBytes = 0;
  uint64_t MemMaxBytes = 0;
  std::string MutatePolicy = "fixed4";
  uint64_t MutateFrom = 2;
  uint64_t MutateDelta = 0; // 0 = half the trigger

  OptionParser Parser(
      "Differential conformance: replays workload traces through the "
      "simulator and the managed runtime in lockstep, cross-checking "
      "every scavenge; divergences are shrunk to minimal reproducers");
  Parser.addFlag("quick", "Small steady-state grid + mutation self-test "
                          "(the CI configuration)", &Quick);
  Parser.addFlag("inject-mutation",
                 "Run the seeded-mutation self-test (implied by --quick)",
                 &InjectMutation);
  Parser.addFlag("selftest-artifacts",
                 "Also write the self-test's shrunk reproducer bundle",
                 &SelfTestArtifacts);
  Parser.addString("artifacts", "Directory for divergence bundles",
                   &ArtifactsDir);
  Parser.addString("links",
                   "Pointer traffic: none, forward, backward, or all",
                   &LinksOpt);
  Parser.addString("collector",
                   "Runtime strategy under test: marksweep, copying, or both",
                   &CollectorOpt);
  Parser.addUInt("scavenge-budget",
                 "Runtime trace quantum budget in bytes (0 = monolithic); "
                 "any value must leave every comparison unchanged",
                 &ScavengeBudget);
  Parser.addUInt("mutators",
                 "Replay through N registered mutator contexts driven "
                 "round-robin (0 = direct heap API); any value must leave "
                 "every comparison unchanged",
                 &Mutators);
  Parser.addFlag("abort-probe",
                 "Open, step, and abort an incremental cycle before every "
                 "runtime collection (mark-sweep cases); an aborted cycle "
                 "must leave every comparison unchanged",
                 &AbortProbe);
  Parser.addUInt("trigger", "Bytes allocated between scavenges",
                 &TriggerBytes);
  Parser.addUInt("trace-max", "Pause budget in traced bytes",
                 &TraceMaxBytes);
  Parser.addUInt("mem-max", "DTBMEM memory budget in bytes", &MemMaxBytes);
  Parser.addString("mutate-policy",
                   "Self-test: policy the mutation is seeded into",
                   &MutatePolicy);
  Parser.addUInt("mutate-from",
                 "Self-test: first (1-based) mutated scavenge",
                 &MutateFrom);
  Parser.addUInt("mutate-delta",
                 "Self-test: boundary advance in bytes (0 = trigger/2)",
                 &MutateDelta);
  addThreadsOption(Parser, &Threads);
  if (!Parser.parse(Argc, Argv))
    return 1;
  applyThreadsOption(Threads);

  // Mode defaults: --quick uses tight constraints so the adaptive policies
  // exercise their rules on a few hundred KB; the full grid uses the
  // paper's parameters on the paper's calibrated workloads.
  if (TriggerBytes == 0)
    TriggerBytes = Quick ? 8 * 1024 : 1'000'000;
  if (TraceMaxBytes == 0)
    TraceMaxBytes = Quick ? 4 * 1024 : 50 * 1024;
  if (MemMaxBytes == 0)
    MemMaxBytes = Quick ? 24 * 1024 : 3'000'000;

  std::vector<LinkMode> LinkModes;
  if (LinksOpt == "all")
    LinkModes = {LinkMode::None, LinkMode::Forward, LinkMode::Backward};
  else if (LinksOpt == "none")
    LinkModes = {LinkMode::None};
  else if (LinksOpt == "forward")
    LinkModes = {LinkMode::Forward};
  else if (LinksOpt == "backward")
    LinkModes = {LinkMode::Backward};
  else {
    std::fprintf(stderr, "unknown --links value: %s\n", LinksOpt.c_str());
    return 1;
  }

  std::vector<runtime::CollectorKind> Collectors;
  if (CollectorOpt == "both")
    Collectors = {runtime::CollectorKind::MarkSweep,
                  runtime::CollectorKind::Copying};
  else if (CollectorOpt == "marksweep")
    Collectors = {runtime::CollectorKind::MarkSweep};
  else if (CollectorOpt == "copying")
    Collectors = {runtime::CollectorKind::Copying};
  else {
    std::fprintf(stderr, "unknown --collector value: %s\n",
                 CollectorOpt.c_str());
    return 1;
  }

  // Traces, generated once and shared across the grid.
  std::vector<std::pair<std::string, trace::Trace>> Traces;
  if (Quick) {
    for (uint64_t Seed : {3, 7, 11})
      Traces.emplace_back(
          "steady" + std::to_string(Seed),
          workload::generateTrace(
              workload::makeSteadyStateSpec(192 * 1024, Seed)));
    // One downscaled server scenario, so the sim-vs-runtime oracle also
    // holds on the bimodal request/session shape (non-paper workloads).
    Traces.emplace_back(
        "frontend",
        serverload::generateServerTrace(serverload::scaledScenario(
            *serverload::findServerScenario("frontend"), 192 * 1024)));
  } else {
    for (const workload::WorkloadSpec &Spec : workload::paperWorkloads())
      Traces.emplace_back(Spec.Name, workload::generateTrace(Spec));
  }

  std::vector<Case> Cases;
  for (const std::string &Policy : core::paperPolicyNames())
    for (const auto &[Name, T] : Traces)
      for (LinkMode Links : LinkModes)
        for (runtime::CollectorKind Collector : Collectors) {
          Case C;
          C.Name = Name;
          C.T = &T;
          C.Config.PolicyName = Policy;
          C.Config.TriggerBytes = TriggerBytes;
          C.Config.Policy.TraceMaxBytes = TraceMaxBytes;
          C.Config.Policy.MemMaxBytes = MemMaxBytes;
          C.Config.Links = Links;
          C.Config.Collector = Collector;
          C.Config.ScavengeBudgetBytes = ScavengeBudget;
          C.Config.Mutators = static_cast<unsigned>(Mutators);
          C.Config.AbortProbe = AbortProbe;
          Cases.push_back(std::move(C));
        }

  std::printf("conformance: %zu cases (%zu policies x %zu workloads x %zu "
              "link modes x %zu collectors), trigger %llu\n",
              Cases.size(), core::paperPolicyNames().size(), Traces.size(),
              LinkModes.size(), Collectors.size(),
              static_cast<unsigned long long>(TriggerBytes));

  // Cases deposit into preassigned slots and print in case order after the
  // join, so the output is byte-identical for every thread count.
  std::vector<CaseOutcome> Outcomes(Cases.size());
  parallelFor(Cases.size(),
              [&](size_t I) { Outcomes[I] = runCase(Cases[I], ArtifactsDir); });

  size_t Divergent = 0;
  for (size_t I = 0; I != Cases.size(); ++I) {
    const CaseOutcome &O = Outcomes[I];
    std::printf("  %-28s %s (%zu scavenges)\n", caseLabel(Cases[I]).c_str(),
                O.Agreed ? "agree  " : "DIVERGE", O.Scavenges);
    if (!O.Agreed) {
      std::printf("%s", O.Detail.c_str());
      ++Divergent;
    }
  }

  bool SelfTestOk = true;
  if (Quick || InjectMutation)
    SelfTestOk = runSelfTest(ArtifactsDir, SelfTestArtifacts, MutatePolicy,
                             MutateFrom, MutateDelta);

  if (Divergent == 0 && SelfTestOk) {
    std::printf("conformance: all %zu cases agree\n", Cases.size());
    return 0;
  }
  if (Divergent != 0)
    std::fprintf(stderr,
                 "conformance: %zu of %zu cases DIVERGED; reproducers "
                 "under %s/\n",
                 Divergent, Cases.size(), ArtifactsDir.c_str());
  return 1;
}
