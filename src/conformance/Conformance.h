//===- conformance/Conformance.h - Sim vs. runtime lockstep ----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential conformance harness: one deterministic allocation
/// trace is replayed through both the trace-driven simulator
/// (sim::Simulator over sim::HeapModel) and the managed runtime
/// (runtime::Heap with a real collector), pausing at every scavenge to
/// cross-check the two against a shared tolerance model. The paper
/// justifies its simulator by trace-driven cross-validation (§4); this
/// harness turns that methodology into a continuously-enforced invariant
/// over our two independent implementations of the TB policies.
///
/// Lockstep protocol: the simulator drives. A ScavengeObserver fires
/// after each simulated scavenge; the harness then advances a replay
/// mutator over the runtime heap to the same allocation clock (allocating
/// an object of the same gross size per trace record, rooting it in a
/// handle scope, and dropping the root — and all of the object's pointer
/// links — exactly when the trace says the object dies), calls
/// Heap::collect(), and compares the two scavenge records field by field.
/// Both policies see byte-identical BoundaryRequests: the runtime's
/// survivor-table demographics are overridden with an exact oracle
/// (a shadow sim::HeapModel mirroring the runtime heap), so any
/// divergence is a genuine implementation disagreement, not an estimate
/// artifact. The runtime's survivor table is still *maintained* and is
/// itself cross-checked per epoch against the oracle.
///
/// Tolerance model (see DESIGN.md §11): logical quantities — boundary,
/// rule fired, traced/reclaimed/survived/mem-before bytes, scavenge count
/// and times, per-epoch survivor demographics, degradation notes — must
/// match exactly. Machine-model-derived doubles — pause milliseconds,
/// time-weighted memory mean — are compared within a bounded relative
/// tolerance, since they are defined only up to floating-point evaluation
/// order.
///
/// On divergence, shrinkDivergence() delta-debugs the trace down to the
/// smallest still-diverging reproducer (dropping record spans, halving
/// object sizes, truncating the tail) and writeDivergenceArtifacts()
/// persists the reproducer plus both sides' per-scavenge telemetry for
/// offline triage.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_CONFORMANCE_CONFORMANCE_H
#define DTB_CONFORMANCE_CONFORMANCE_H

#include "core/Policies.h"
#include "runtime/Heap.h"
#include "trace/Trace.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dtb {
namespace conformance {

/// The shared tolerance model. Logical quantities are compared exactly;
/// machine-model-derived doubles within a relative tolerance.
struct ToleranceModel {
  /// Relative tolerance for machine-model-derived doubles (pause ms,
  /// time-weighted memory mean). The values on both sides are computed by
  /// the same code over the same inputs, so the bound only has to absorb
  /// floating-point evaluation-order noise.
  double RelTolerance = 1e-9;
  /// Absolute floor so values near zero do not demand impossible relative
  /// precision.
  double AbsTolerance = 1e-12;

  bool close(double A, double B) const;
};

/// What pointer traffic the replay mutator synthesizes. Links exercise
/// the write barrier and remembered set; liveness is still entirely
/// root-driven (every link is severed when either endpoint dies), so the
/// oracle's live set stays exact on both sides.
enum class LinkMode {
  /// No pointer stores at all (roots only).
  None,
  /// Older objects are given pointers to newer ones: forward-in-time
  /// stores, the remembered-set-exercising direction.
  Forward,
  /// Newer objects are given pointers to older ones: backward-in-time
  /// stores, which the barrier must ignore.
  Backward,
};

const char *linkModeName(LinkMode Mode);

/// One lockstep run's configuration.
struct LockstepConfig {
  /// Policy under test: "full", "fixed1", "fixed4", "feedmed", "dtbfm",
  /// "dtbmem", "minormajor<p>".
  std::string PolicyName = "full";
  /// Constraint parameters (Trace_max / Mem_max) for both instances.
  core::PolicyConfig Policy;
  /// Scavenge trigger interval (paper: 1 MB). Applied to the simulator;
  /// the runtime is collected manually at the same clocks.
  uint64_t TriggerBytes = 1'000'000;
  /// Which runtime scavenging strategy to check.
  runtime::CollectorKind Collector = runtime::CollectorKind::MarkSweep;
  /// Synthesized pointer traffic.
  LinkMode Links = LinkMode::Forward;
  /// Seed for the (deterministic) link-placement RNG.
  uint64_t LinkSeed = 1;
  /// Probability that a new object participates in a link at all.
  double LinkProbability = 0.5;
  /// Trace quantum budget for the runtime heap
  /// (HeapConfig::ScavengeBudgetBytes): 0 = monolithic trace. Any value
  /// must leave the lockstep comparison unchanged.
  uint64_t ScavengeBudgetBytes = 0;
  /// Replay through N registered MutatorContexts instead of the direct
  /// Heap API: the driver thread round-robins allocations across the
  /// contexts (record I goes through context I mod N) and routes each
  /// pointer store through the context that allocated the source object.
  /// 0 = direct path. Contexts driven single-threaded reproduce the
  /// direct path's clock, remembered set, and scavenge records exactly,
  /// so every lockstep comparison must agree for any N — that is the
  /// determinism contract of the multi-mutator runtime.
  unsigned Mutators = 0;
  ToleranceModel Tolerance;
  /// Abort-equivalence probe (mark-sweep only): before every runtime-side
  /// collection the harness opens an incremental cycle, runs a few
  /// bounded quanta while gray work remains, then aborts it. An aborted
  /// cycle must be observably equivalent to one that never started, so
  /// every lockstep comparison — boundary, traced bytes, per-epoch
  /// demographics — must still agree exactly.
  bool AbortProbe = false;
  /// Stop comparing (and stop the simulation) after this many divergences;
  /// the first one already tells the story and shrinking replays are much
  /// cheaper when they abort early.
  size_t MaxDivergences = 8;

  /// Test-only fault: from 1-based scavenge MutateFromScavenge onward the
  /// *runtime-side* policy's boundary is advanced by MutateDeltaBytes
  /// (clamped to the current clock), emulating an implementation bug. 0
  /// disables. The acceptance self-test seeds this and expects the
  /// harness to catch and shrink it.
  uint64_t MutateFromScavenge = 0;
  uint64_t MutateDeltaBytes = 0;
};

/// One observed disagreement between the two sides.
struct Divergence {
  /// 1-based scavenge index, or 0 for end-of-run summary fields.
  uint64_t ScavengeIndex = 0;
  /// Field that disagreed ("boundary", "traced-bytes", "epoch-demo[3]",
  /// "mem-mean", ...).
  std::string Field;
  /// Whether the field is held to exact equality or the bounded tolerance.
  bool Logical = true;
  std::string SimValue;
  std::string RuntimeValue;

  /// "scavenge 4: boundary: sim=123 runtime=456".
  std::string describe() const;
};

/// One side's per-scavenge row, kept for artifacts and reporting.
struct ScavengeRow {
  core::ScavengeRecord Record;
  std::string Rule;
  std::string DegradationNote;
  double PauseMillis = 0.0;
};

/// Everything one lockstep run produced.
struct LockstepResult {
  std::vector<Divergence> Divergences;
  /// True when the run was cut short at MaxDivergences.
  bool Aborted = false;

  std::vector<ScavengeRow> Sim;
  std::vector<ScavengeRow> Runtime;

  /// End-of-run summaries (sim side from SimulationResult, runtime side
  /// mirrored through the identical TimeWeightedStats/SampleSet pipeline).
  double SimMemMeanBytes = 0.0, RuntimeMemMeanBytes = 0.0;
  uint64_t SimMemMaxBytes = 0, RuntimeMemMaxBytes = 0;
  double SimPauseMedianMs = 0.0, RuntimePauseMedianMs = 0.0;
  double SimPause90Ms = 0.0, RuntimePause90Ms = 0.0;

  bool agreed() const { return Divergences.empty(); }
};

/// Smallest trace-record size the replay mutator can realize as a real
/// object: the object header plus one pointer slot when \p Links needs one.
uint32_t minReplayableSize(LinkMode Links);

/// True when every record of \p T is at least minReplayableSize and small
/// enough for runtime::Heap::allocate.
bool isReplayable(const trace::Trace &T, LinkMode Links);

/// Rewrites \p T so the replay mutator can realize it: object sizes are
/// clamped into the replayable range and births/deaths are rebuilt on the
/// rescaled clock (per-object lifetimes in bytes-of-subsequent-allocation
/// are preserved). A replayable trace comes back unchanged.
trace::Trace normalizeForReplay(const trace::Trace &T, LinkMode Links);

/// Replays \p T through both implementations in lockstep and returns the
/// comparison. \p T must be replayable (fatal error otherwise — call
/// normalizeForReplay first). Deterministic in (T, Config).
LockstepResult runLockstep(const trace::Trace &T,
                           const LockstepConfig &Config);

/// Shrinker bounds.
struct ShrinkOptions {
  /// Replay budget: the shrinker never runs the lockstep more than this
  /// many times (each replay costs a full run of the reproducer-so-far).
  size_t MaxReplays = 500;
};

/// The shrinker's product: the smallest still-diverging trace it found.
struct ShrinkResult {
  trace::Trace Reproducer;
  /// Lockstep result of the final reproducer (still diverging).
  LockstepResult Final;
  size_t OriginalRecords = 0;
  size_t Replays = 0;
};

/// Delta-debugs a diverging trace to a minimal reproducer: ddmin over
/// record spans (drop allocation spans), then per-object size halving
/// (clamped to the replayable minimum), then tail truncation, looping
/// until a fixpoint or the replay budget runs out. \p T must already
/// diverge under \p Config (fatal error otherwise). Every candidate is
/// rebuilt as a well-formed trace (clocks recomputed, lifetimes
/// preserved), so the reproducer always satisfies Trace::verify().
ShrinkResult shrinkDivergence(const trace::Trace &T,
                              const LockstepConfig &Config,
                              const ShrinkOptions &Options = {});

/// Files written for one divergence.
struct ArtifactPaths {
  std::string Dir;
  std::string TracePath;      // reproducer.trace.txt (text trace format)
  std::string ReportPath;     // report.json
  std::string SimCsvPath;     // sim.scavenges.csv
  std::string RuntimeCsvPath; // runtime.scavenges.csv
};

/// Persists a divergence under \p Dir/\p CaseName: the reproducer trace in
/// the text trace format (replayable via trace::readTraceFile), a JSON
/// report of config, divergences and end-of-run summaries, and one
/// per-scavenge CSV per side. Creates directories as needed. Returns
/// std::nullopt and fills \p Error on I/O failure.
std::optional<ArtifactPaths>
writeDivergenceArtifacts(const std::string &Dir, const std::string &CaseName,
                         const trace::Trace &Reproducer,
                         const LockstepConfig &Config,
                         const LockstepResult &Result,
                         std::string *Error = nullptr);

} // namespace conformance
} // namespace dtb

#endif // DTB_CONFORMANCE_CONFORMANCE_H
