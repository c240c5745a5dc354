//===- conformance/Lockstep.cpp - The differential replay loop -----------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// Replays one trace through the simulator and the managed runtime in
// lockstep (see Conformance.h for the protocol) and compares every
// scavenge plus the end-of-run summaries under the tolerance model.
//
//===----------------------------------------------------------------------===//

#include "conformance/Conformance.h"

#include "core/MachineModel.h"
#include "runtime/Mutator.h"
#include "sim/HeapModel.h"
#include "sim/Simulator.h"
#include "support/Error.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

using namespace dtb;
using namespace dtb::conformance;
using core::AllocClock;

bool ToleranceModel::close(double A, double B) const {
  double Diff = std::fabs(A - B);
  if (Diff <= AbsTolerance)
    return true;
  return Diff <= RelTolerance * std::max(std::fabs(A), std::fabs(B));
}

const char *dtb::conformance::linkModeName(LinkMode Mode) {
  switch (Mode) {
  case LinkMode::None:
    return "none";
  case LinkMode::Forward:
    return "forward";
  case LinkMode::Backward:
    return "backward";
  }
  return "?";
}

std::string Divergence::describe() const {
  std::string Where = ScavengeIndex == 0
                          ? std::string("end-of-run")
                          : "scavenge " + std::to_string(ScavengeIndex);
  return Where + ": " + Field + ": sim=" + SimValue +
         " runtime=" + RuntimeValue + (Logical ? "" : " (tolerance)");
}

uint32_t dtb::conformance::minReplayableSize(LinkMode Links) {
  uint32_t Header = static_cast<uint32_t>(sizeof(runtime::Object));
  return Links == LinkMode::None
             ? Header
             : Header + static_cast<uint32_t>(sizeof(runtime::Object *));
}

namespace {

/// Largest record size the replay can realize (Heap::tryAllocate bounds
/// raw payloads to 2^28 bytes; real traces never get near this).
uint32_t maxReplayableSize(LinkMode Links) {
  return minReplayableSize(Links) + (1u << 28) - 1;
}

} // namespace

bool dtb::conformance::isReplayable(const trace::Trace &T, LinkMode Links) {
  uint32_t Min = minReplayableSize(Links);
  uint32_t Max = maxReplayableSize(Links);
  for (const trace::AllocationRecord &R : T.records())
    if (R.Size < Min || R.Size > Max)
      return false;
  return true;
}

trace::Trace dtb::conformance::normalizeForReplay(const trace::Trace &T,
                                                  LinkMode Links) {
  if (isReplayable(T, Links))
    return T;
  uint32_t Min = minReplayableSize(Links);
  uint32_t Max = maxReplayableSize(Links);
  // Rebuild on a rescaled clock: clamp each size, keep each object's
  // lifetime (in bytes of subsequent allocation) unchanged.
  std::vector<trace::AllocationRecord> Out;
  Out.reserve(T.records().size());
  AllocClock Clock = 0;
  for (const trace::AllocationRecord &R : T.records()) {
    trace::AllocationRecord N;
    N.Size = std::clamp(R.Size, Min, Max);
    Clock += N.Size;
    N.Birth = Clock;
    N.Death = R.Death == trace::NeverDies ? trace::NeverDies
                                          : Clock + (R.Death - R.Birth);
    Out.push_back(N);
  }
  return trace::Trace(std::move(Out));
}

namespace {

/// Thrown from the observer to cut a replay short once enough divergences
/// have been recorded; caught in runLockstep.
struct ReplayAbort {};

/// Exact demographics for the runtime-side policy: a shadow sim::HeapModel
/// that mirrors the runtime heap record for record (and is scavenged with
/// the boundary the runtime actually chose), queried at the heap's clock.
/// This hands both policies byte-identical oracle answers, so their
/// decisions are comparable exactly.
class ShadowOracle final : public core::Demographics {
public:
  ShadowOracle(const sim::HeapModel &Model, const runtime::Heap &H)
      : Model(Model), H(H) {}

  uint64_t liveBytesBornAfter(AllocClock Boundary) const override {
    return Model.liveBytesBornAfter(Boundary, H.now());
  }
  uint64_t residentBytesBornAfter(AllocClock Boundary) const override {
    return Model.residentBytesBornAfter(Boundary);
  }

private:
  const sim::HeapModel &Model;
  const runtime::Heap &H;
};

/// Test-only policy wrapper emulating an implementation bug: from scavenge
/// FromScavenge onward the inner policy's boundary is pushed DeltaBytes
/// forward in time (clamped to Now), silently retaining more garbage. The
/// acceptance self-test wraps the runtime side with this and expects the
/// harness to catch and shrink the divergence.
class MutatedPolicy final : public core::BoundaryPolicy {
public:
  MutatedPolicy(std::unique_ptr<core::BoundaryPolicy> Inner,
                uint64_t FromScavenge, uint64_t DeltaBytes)
      : Inner(std::move(Inner)), FromScavenge(FromScavenge),
        DeltaBytes(DeltaBytes) {}

  std::string name() const override { return Inner->name(); }

  AllocClock chooseBoundary(const core::BoundaryRequest &Request) override {
    AllocClock Boundary = Inner->chooseBoundary(Request);
    if (Request.Index >= FromScavenge)
      Boundary = std::min(Boundary + DeltaBytes, Request.Now);
    return Boundary;
  }

  void reset() override { Inner->reset(); }

private:
  std::unique_ptr<core::BoundaryPolicy> Inner;
  uint64_t FromScavenge;
  uint64_t DeltaBytes;
};

constexpr uint32_t NoIndex = std::numeric_limits<uint32_t>::max();

/// The trace-driven mutator over the runtime heap. Every object is held
/// live by exactly one root (a handle-scope slot, or a mutator-context
/// root slot in --mutators mode) until its oracle death, at which point
/// the root and every pointer link touching the object are cleared — so
/// runtime reachability coincides with the trace's oracle liveness at
/// every scavenge.
class ReplayMutator {
public:
  ReplayMutator(runtime::Heap &H, const trace::Trace &T,
                const LockstepConfig &Config)
      : H(H), Records(T.records()), Scope(H), Links(Config.Links),
        LinkProbability(Config.LinkProbability), LinkRng(Config.LinkSeed) {
    size_t N = Records.size();
    if (N >= NoIndex)
      fatalError("trace too large for the replay mutator");
    for (unsigned I = 0; I != Config.Mutators; ++I)
      Contexts.push_back(std::make_unique<runtime::MutatorContext>(H));
    Roots.resize(N, nullptr);
    OutgoingTarget.assign(N, NoIndex);
    IncomingHead.assign(N, NoIndex);
    IncomingNext.assign(N, NoIndex);
    Deaths.reserve(N);
    for (uint32_t I = 0; I != N; ++I)
      if (Records[I].Death != trace::NeverDies)
        Deaths.push_back(I);
    std::sort(Deaths.begin(), Deaths.end(), [&](uint32_t A, uint32_t B) {
      return Records[A].Death != Records[B].Death
                 ? Records[A].Death < Records[B].Death
                 : A < B;
    });
  }

  /// Allocates (and death-processes) every record with Birth <= UpTo.
  /// \p OnAllocated is called after each allocation with the new clock.
  template <typename Callback>
  void advanceTo(AllocClock UpTo, Callback &&OnAllocated) {
    while (Next != Records.size() && Records[Next].Birth <= UpTo) {
      allocateNext();
      OnAllocated(Records[Next - 1].Birth);
      processDeaths(Records[Next - 1].Birth);
    }
  }

  bool done() const { return Next == Records.size(); }

private:
  void allocateNext() {
    const trace::AllocationRecord &R = Records[Next];
    uint32_t NumSlots = Links == LinkMode::None ? 0u : 1u;
    uint32_t Fixed = static_cast<uint32_t>(sizeof(runtime::Object)) +
                     NumSlots * static_cast<uint32_t>(sizeof(runtime::Object *));
    if (R.Size < Fixed)
      fatalError("trace record below the replayable minimum; "
                 "normalizeForReplay the trace first");
    uint32_t Index = static_cast<uint32_t>(Next);
    runtime::Object **RootSlot;
    if (Contexts.empty()) {
      runtime::Object *&Slot = Scope.slot(nullptr);
      Slot = H.allocate(NumSlots, R.Size - Fixed);
      RootSlot = &Slot;
    } else {
      runtime::MutatorContext &Ctx = contextFor(Index);
      runtime::Object *&Slot = Ctx.root(Ctx.addRoot(nullptr));
      Slot = Ctx.allocate(NumSlots, R.Size - Fixed);
      RootSlot = &Slot;
    }
    if ((*RootSlot)->grossBytes() != R.Size || H.now() != R.Birth)
      fatalError("replay allocation clock diverged from the trace");
    ++Next;
    Roots[Index] = RootSlot;
    maybeLink(Index);
    Window.push_back(Index);
    if (Window.size() > 2 * WindowTarget)
      compactWindow();
  }

  bool alive(uint32_t Index) const { return *Roots[Index] != nullptr; }

  runtime::MutatorContext &contextFor(uint32_t Index) {
    return *Contexts[Index % Contexts.size()];
  }

  /// Stores into record \p Source's single slot, through the context that
  /// allocated the source in --mutators mode (direct heap API otherwise).
  void storeSlot(uint32_t Source, runtime::Object *Value) {
    if (Contexts.empty())
      H.writeSlot(*Roots[Source], 0, Value);
    else
      contextFor(Source).writeSlot(*Roots[Source], 0, Value);
  }

  void maybeLink(uint32_t Index) {
    if (Links == LinkMode::None || Window.empty())
      return;
    if (LinkRng.nextDouble() >= LinkProbability)
      return;
    uint32_t Other = Window[LinkRng.nextBelow(Window.size())];
    if (!alive(Other))
      return;
    // Forward: an older object points at the newcomer (barrier-recorded).
    // Backward: the newcomer points at an older object (barrier-ignored).
    uint32_t Source = Links == LinkMode::Forward ? Other : Index;
    uint32_t Target = Links == LinkMode::Forward ? Index : Other;
    // One outgoing link per object, ever: re-linking would need incoming-
    // chain surgery and adds no coverage.
    if (OutgoingTarget[Source] != NoIndex)
      return;
    storeSlot(Source, *Roots[Target]);
    OutgoingTarget[Source] = Target;
    IncomingNext[Source] = IncomingHead[Target];
    IncomingHead[Target] = Source;
  }

  void processDeaths(AllocClock Now) {
    while (DeathCursor != Deaths.size() &&
           Records[Deaths[DeathCursor]].Death <= Now) {
      uint32_t Index = Deaths[DeathCursor++];
      // Sever the object's outgoing link...
      if (OutgoingTarget[Index] != NoIndex) {
        storeSlot(Index, nullptr);
        OutgoingTarget[Index] = NoIndex;
      }
      // ...and every incoming link whose source still points here. A dead
      // source left a stale chain entry; skip it. This severing is what
      // keeps the runtime free of nepotism the oracle cannot see: a
      // dead-but-resident immune source must not keep a dead threatened
      // target reachable through the remembered set.
      for (uint32_t S = IncomingHead[Index]; S != NoIndex;
           S = IncomingNext[S]) {
        if (alive(S) && OutgoingTarget[S] == Index) {
          storeSlot(S, nullptr);
          OutgoingTarget[S] = NoIndex;
        }
      }
      IncomingHead[Index] = NoIndex;
      // Drop the root: the object is now unreachable, exactly on time.
      *Roots[Index] = nullptr;
    }
  }

  void compactWindow() {
    std::vector<uint32_t> Kept;
    Kept.reserve(WindowTarget);
    for (size_t I = Window.size(); I != 0 && Kept.size() < WindowTarget;
         --I)
      if (alive(Window[I - 1]))
        Kept.push_back(Window[I - 1]);
    std::reverse(Kept.begin(), Kept.end());
    Window = std::move(Kept);
  }

  static constexpr size_t WindowTarget = 64;

  runtime::Heap &H;
  const std::vector<trace::AllocationRecord> &Records;
  runtime::HandleScope Scope;
  /// --mutators mode: the registered contexts the driver round-robins
  /// (empty = direct heap API). Destroyed before the heap, as required.
  std::vector<std::unique_ptr<runtime::MutatorContext>> Contexts;
  LinkMode Links;
  double LinkProbability;
  Rng LinkRng;

  size_t Next = 0;
  size_t DeathCursor = 0;
  std::vector<uint32_t> Deaths; // Record indexes ordered by death clock.
  std::vector<runtime::Object **> Roots;
  std::vector<uint32_t> OutgoingTarget;
  std::vector<uint32_t> IncomingHead; // Per target: newest linking source.
  std::vector<uint32_t> IncomingNext; // Per source: next source in chain.
  std::vector<uint32_t> Window;       // Recent link candidates.
};

std::string formatU64(uint64_t V) { return std::to_string(V); }

std::string formatDouble(double V) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

} // namespace

LockstepResult dtb::conformance::runLockstep(const trace::Trace &T,
                                             const LockstepConfig &Config) {
  if (!isReplayable(T, Config.Links))
    fatalError("runLockstep needs a replayable trace; "
               "call normalizeForReplay first");

  std::unique_ptr<core::BoundaryPolicy> SimPolicy =
      core::createPolicy(Config.PolicyName, Config.Policy);
  std::unique_ptr<core::BoundaryPolicy> RuntimePolicy =
      core::createPolicy(Config.PolicyName, Config.Policy);
  if (!SimPolicy || !RuntimePolicy)
    fatalError("unknown policy '" + Config.PolicyName + "'");
  if (Config.MutateFromScavenge != 0)
    RuntimePolicy = std::make_unique<MutatedPolicy>(std::move(RuntimePolicy),
                                                    Config.MutateFromScavenge,
                                                    Config.MutateDeltaBytes);

  LockstepResult Result;

  // --- Runtime side -------------------------------------------------------
  runtime::HeapConfig HeapConfig;
  HeapConfig.TriggerBytes = 0; // Collections are driven by the observer.
  HeapConfig.Collector = Config.Collector;
  HeapConfig.ScavengeBudgetBytes = Config.ScavengeBudgetBytes;
  runtime::Heap H(HeapConfig);
  H.setPolicy(std::move(RuntimePolicy));

  // The shadow heap model mirrors the runtime heap and answers the
  // runtime policy's demographics queries exactly (see ShadowOracle).
  sim::HeapModel Shadow;
  Shadow.reserve(std::min<size_t>(T.records().size(), size_t(1) << 16));
  ShadowOracle Oracle(Shadow, H);
  H.setDemographicsOverride(&Oracle);

  ReplayMutator Mutator(H, T, Config);

  // Mirror of the simulator's memory/pause accounting, fed with the
  // runtime's resident bytes at the same clocks.
  TimeWeightedStats RtMemory;
  RtMemory.setLevel(0, 0.0);
  SampleSet RtPauses;
  core::MachineModel Machine; // Defaults, same as SimulatorConfig.Machine.

  // advanceTo needs the record's size/death for the shadow model; track
  // the record cursor here instead of reconstructing it in the callback.
  size_t ShadowNext = 0;
  auto advanceRuntime = [&](AllocClock UpTo) {
    Mutator.advanceTo(UpTo, [&](AllocClock Clock) {
      const trace::AllocationRecord &R = T.records()[ShadowNext++];
      Shadow.addObject(R.Birth, R.Size, R.Death);
      RtMemory.setLevel(Clock, static_cast<double>(H.residentBytes()));
    });
  };

  auto diverge = [&](uint64_t Index, const char *Field, bool Logical,
                     std::string SimValue, std::string RuntimeValue) {
    Result.Divergences.push_back({Index, Field, Logical, std::move(SimValue),
                                  std::move(RuntimeValue)});
    if (Result.Divergences.size() >= Config.MaxDivergences) {
      Result.Aborted = true;
      throw ReplayAbort{};
    }
  };
  auto checkU64 = [&](uint64_t Index, const char *Field, uint64_t Sim,
                      uint64_t Rt) {
    if (Sim != Rt)
      diverge(Index, Field, /*Logical=*/true, formatU64(Sim), formatU64(Rt));
  };
  auto checkString = [&](uint64_t Index, const char *Field,
                         const std::string &Sim, const std::string &Rt) {
    if (Sim != Rt)
      diverge(Index, Field, /*Logical=*/true, Sim, Rt);
  };
  auto checkDouble = [&](uint64_t Index, const char *Field, double Sim,
                         double Rt) {
    if (!Config.Tolerance.close(Sim, Rt))
      diverge(Index, Field, /*Logical=*/false, formatDouble(Sim),
              formatDouble(Rt));
  };

  // --- Sim side, with the lockstep observer -------------------------------
  sim::SimulatorConfig SimConfig;
  SimConfig.TriggerBytes = Config.TriggerBytes;
  SimConfig.OnScavenge = [&](const sim::ScavengeObservation &Obs) {
    // Catch the runtime up to the simulated scavenge's clock, then run
    // the real collector at the very same moment.
    advanceRuntime(Obs.Record.Time);
    RtMemory.setLevel(Obs.Record.Time, static_cast<double>(H.residentBytes()));
    if (Config.AbortProbe &&
        Config.Collector == runtime::CollectorKind::MarkSweep) {
      // Abort-equivalence probe: open a cycle, trace a few quanta, abort.
      // The collect() below and every comparison after it must come out
      // exactly as if this block never ran. A step entered with gray work
      // cannot complete the cycle (the root rescan only adds), so the
      // bounded loop never races past the abort; the guard covers an
      // injected step fault having aborted it already.
      H.beginIncrementalScavenge(Obs.Record.Time / 2);
      for (int Probe = 0;
           Probe != 3 && H.incrementalCycleInfo().GrayObjects != 0; ++Probe)
        if (H.incrementalScavengeStep())
          break;
      if (H.incrementalScavengeActive())
        H.abortIncrementalScavenge();
    }
    core::ScavengeRecord Rt = H.collect();
    RtMemory.setLevel(Obs.Record.Time, static_cast<double>(H.residentBytes()));
    double RtPauseMs = Machine.pauseMillisForTracedBytes(Rt.TracedBytes);
    RtPauses.add(RtPauseMs);
    // Keep the shadow model mirroring the runtime heap: scavenge it with
    // the boundary the runtime actually used (post-divergence the two
    // sides evolve separately but each stays self-consistent).
    Shadow.scavenge(Rt.Time, Rt.Boundary);

    Result.Sim.push_back(
        {Obs.Record, Obs.RuleFired, Obs.DegradationNote, Obs.PauseMillis});
    Result.Runtime.push_back(
        {Rt, H.lastRuleFired(), H.lastDegradationNote(), RtPauseMs});

    uint64_t Index = Obs.Record.Index;
    checkU64(Index, "time", Obs.Record.Time, Rt.Time);
    checkU64(Index, "boundary", Obs.Record.Boundary, Rt.Boundary);
    checkString(Index, "rule", Obs.RuleFired, H.lastRuleFired());
    checkString(Index, "degradation-note", Obs.DegradationNote,
                H.lastDegradationNote());
    checkU64(Index, "mem-before-bytes", Obs.Record.MemBeforeBytes,
             Rt.MemBeforeBytes);
    checkU64(Index, "traced-bytes", Obs.Record.TracedBytes, Rt.TracedBytes);
    checkU64(Index, "reclaimed-bytes", Obs.Record.ReclaimedBytes,
             Rt.ReclaimedBytes);
    checkU64(Index, "survived-bytes", Obs.Record.SurvivedBytes,
             Rt.SurvivedBytes);
    checkDouble(Index, "pause-ms", Obs.PauseMillis, RtPauseMs);

    // Per-epoch survivor demographics: every epoch the scavenge
    // re-measured must agree with the oracle (the post-scavenge heap
    // model). Epochs fully behind the boundary keep stale estimates by
    // design and are skipped.
    const runtime::EpochDemographics &Demo = H.demographics();
    for (size_t I = 0; I + 1 < Demo.numEpochs(); ++I) {
      AllocClock Lo = Demo.epochStart(I);
      AllocClock Hi = Demo.epochStart(I + 1);
      if (Hi <= Rt.Boundary)
        continue; // Fully immune: not re-measured by this scavenge.
      AllocClock From = std::max(Lo, Rt.Boundary);
      uint64_t Estimate =
          Demo.liveBytesBornAfter(Lo) - Demo.liveBytesBornAfter(Hi);
      uint64_t OracleBytes = Obs.Heap.residentBytesBornAfter(From) -
                             Obs.Heap.residentBytesBornAfter(Hi);
      if (Estimate != OracleBytes) {
        std::string Field = "epoch-demo[" + std::to_string(I) + "]";
        diverge(Index, Field.c_str(), /*Logical=*/true,
                formatU64(OracleBytes), formatU64(Estimate));
      }
    }
  };

  sim::SimulationResult SimResult;
  try {
    SimResult = sim::simulate(T, *SimPolicy, SimConfig);
  } catch (const ReplayAbort &) {
    H.setDemographicsOverride(nullptr);
    return Result;
  }

  // Drain the allocation tail after the last scavenge.
  advanceRuntime(std::numeric_limits<AllocClock>::max());
  RtMemory.finish(T.totalAllocated());

  Result.SimMemMeanBytes = SimResult.MemMeanBytes;
  Result.SimMemMaxBytes = SimResult.MemMaxBytes;
  Result.SimPauseMedianMs = SimResult.PauseMillis.median();
  Result.SimPause90Ms = SimResult.PauseMillis.quantile(0.9);
  Result.RuntimeMemMeanBytes = RtMemory.mean();
  Result.RuntimeMemMaxBytes = static_cast<uint64_t>(RtMemory.max());
  Result.RuntimePauseMedianMs = RtPauses.median();
  Result.RuntimePause90Ms = RtPauses.quantile(0.9);

  try {
    checkU64(0, "scavenge-count", SimResult.NumScavenges,
             Result.Runtime.size());
    checkU64(0, "mem-max-bytes", Result.SimMemMaxBytes,
             Result.RuntimeMemMaxBytes);
    checkDouble(0, "mem-mean-bytes", Result.SimMemMeanBytes,
                Result.RuntimeMemMeanBytes);
    checkDouble(0, "pause-median-ms", Result.SimPauseMedianMs,
                Result.RuntimePauseMedianMs);
    checkDouble(0, "pause-90-ms", Result.SimPause90Ms, Result.RuntimePause90Ms);
  } catch (const ReplayAbort &) {
  }

  H.setDemographicsOverride(nullptr);
  return Result;
}
