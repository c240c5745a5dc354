//===- bench/runtime_micro.cpp - Runtime microbenchmarks -----------------===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
// google-benchmark microbenchmarks for the managed runtime's hot paths:
// allocation, the write barrier (backward stores, forward stores, and
// duplicate forward stores), remembered-set maintenance, and scavenges as
// a function of boundary position — the real-machine counterpart of the
// paper's "pause times are proportional to storage traced" assumption —
// plus the serial trace of a wide survivor graph and the simulator's
// indexed-vs-scan heap-model queries.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/Mutator.h"

#include "core/OptimalPolicies.h"
#include "core/Policies.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "telemetry/Telemetry.h"
#include "trace/TraceStats.h"
#include "workload/Workload.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

HeapConfig manualConfig() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  return Config;
}

void BM_Allocate(benchmark::State &State) {
  // Re-created per iteration batch to keep the heap from growing without
  // bound; allocation cost includes the list append and clock update.
  auto H = std::make_unique<Heap>(manualConfig());
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      Created = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_Allocate);

void BM_AllocateTLAB(benchmark::State &State) {
  // The mutator-context fast path: bump the thread-local buffer, stamp
  // the birth with one relaxed fetch_add, count the op in and out. The
  // comparison against BM_Allocate is the per-thread allocation tax the
  // multi-mutator runtime adds over the direct path.
  auto H = std::make_unique<Heap>(manualConfig());
  auto Ctx = std::make_unique<MutatorContext>(*H);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      Ctx.reset();
      H = std::make_unique<Heap>(manualConfig());
      Ctx = std::make_unique<MutatorContext>(*H);
      Created = 0;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_AllocateTLAB);

void BM_AllocateTLABCounters(benchmark::State &State) {
  // BM_AllocateTLAB with the telemetry recorder live: the difference is
  // the whole observability tax on the context allocation path — the
  // per-mutator counters (TLAB carve/waste, polls) are compile-time and
  // present in both, so what this isolates is the runtime-gated part
  // (global alloc counters, per-mutator track emission at safepoints).
  // CI diffs this against BM_AllocateTLAB and fails above ~1%.
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  auto Ctx = std::make_unique<MutatorContext>(*H);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Ctx->allocate(2, 16));
    if (++Created == 100'000) { // Reset before the heap gets huge.
      State.PauseTiming();
      Ctx.reset();
      H = std::make_unique<Heap>(manualConfig());
      Ctx = std::make_unique<MutatorContext>(*H);
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(telemetry::compiledIn() ? "counters-live"
                                         : "telemetry-compiled-out");
}
BENCHMARK(BM_AllocateTLABCounters);

void BM_SafepointRendezvous(benchmark::State &State) {
  // A full stop-the-world round trip with Arg(0) registered contexts and
  // nothing to publish: the handshake, arrival scan, TTSP attribution,
  // rendezvous-record assembly, flight-recorder stamp, and world release.
  // This is the fixed cost every collection pays before tracing a byte.
  const auto NumContexts = static_cast<size_t>(State.range(0));
  Heap H(manualConfig());
  std::vector<std::unique_ptr<MutatorContext>> Ctxs;
  for (size_t I = 0; I != NumContexts; ++I)
    Ctxs.push_back(std::make_unique<MutatorContext>(H));
  for (auto _ : State)
    H.runAtSafepoint([](Heap &) {});
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(std::to_string(NumContexts) + " contexts");
}
BENCHMARK(BM_SafepointRendezvous)->Arg(0)->Arg(1)->Arg(4);

void BM_AllocateTelemetryEnabled(benchmark::State &State) {
  // Same loop with the recorder live: the difference from BM_Allocate is
  // the full telemetry cost on the allocation path (two cached counter
  // adds). BM_Allocate itself is the compiled-in-but-disabled number —
  // telemetry::enabled() is one relaxed load there — to compare against a
  // -DDTB_ENABLE_TELEMETRY=OFF build for the zero-overhead check.
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) {
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(telemetry::compiledIn() ? "telemetry-enabled"
                                         : "telemetry-compiled-out");
}
BENCHMARK(BM_AllocateTelemetryEnabled);

void BM_AllocateProfilerArmed(benchmark::State &State) {
  // BM_AllocateTelemetryEnabled with the heap's phase profiler forced on
  // as well. The profiler instruments collector phases, not allocation, so
  // arming it must not move this number: CI diffs the two benchmarks and
  // fails if the profiler adds more than noise (~1%) to the allocation
  // path. (With telemetry compiled out both collapse to BM_Allocate:
  // ProfilePhase is an empty type and the overhead is exactly zero.)
  telemetry::recorder().enable();
  auto H = std::make_unique<Heap>(manualConfig());
  H->profiler().setEnabled(true);
  size_t Created = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(H->allocate(2, 16));
    if (++Created == 100'000) {
      State.PauseTiming();
      H = std::make_unique<Heap>(manualConfig());
      H->profiler().setEnabled(true);
      Created = 0;
      State.ResumeTiming();
    }
  }
  telemetry::recorder().disable();
  telemetry::recorder().buffer().clear();
  State.SetItemsProcessed(State.iterations());
  State.SetLabel(telemetry::compiledIn() ? "profiler-armed"
                                         : "telemetry-compiled-out");
}
BENCHMARK(BM_AllocateProfilerArmed);

void BM_WriteBarrierBackward(benchmark::State &State) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(1);
  // Young -> old: the barrier's fast path (no remembered-set insert).
  for (auto _ : State)
    H.writeSlot(Young, 0, Old);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierBackward);

void BM_WriteBarrierForwardDuplicate(benchmark::State &State) {
  Heap H(manualConfig());
  Object *Old = H.allocate(1);
  Object *Young = H.allocate(0);
  // Old -> young, same slot every time: insert hits the dedup path.
  for (auto _ : State)
    H.writeSlot(Old, 0, Young);
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierForwardDuplicate);

void BM_WriteBarrierForwardFresh(benchmark::State &State) {
  // Fresh (source, slot) pairs: every store inserts a new entry.
  Heap H(manualConfig());
  Object *Young = H.allocate(0);
  std::vector<Object *> Sources;
  constexpr size_t NumSources = 4096;
  for (size_t I = 0; I != NumSources; ++I)
    Sources.push_back(H.allocate(8));
  Object *Target = H.allocate(0); // Younger than all sources.
  (void)Young;
  size_t I = 0;
  for (auto _ : State) {
    Object *Source = Sources[(I / 8) % NumSources];
    H.writeSlot(Source, static_cast<uint32_t>(I % 8), Target);
    ++I;
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_WriteBarrierForwardFresh);

/// Builds a heap of Count live list nodes rooted in a handle scope, plus
/// an equal amount of garbage.
void buildMixedHeap(Heap &H, HandleScope &Scope, size_t Count) {
  Object *&Head = Scope.slot(nullptr);
  for (size_t I = 0; I != Count; ++I) {
    Object *Node = H.allocate(1, 16);
    H.writeSlot(Node, 0, Head);
    Head = Node;
    H.allocate(0, 16); // Garbage sibling.
  }
}

/// A freshly built mixed heap for one timed scavenge. The fixture outlives
/// the loop body, so the previous iteration's heap is torn down inside the
/// next rebuild(), while the timer is paused, and the last one after the
/// loop: neither construction nor teardown lands in the timed region.
struct ScavengeFixture {
  std::unique_ptr<Heap> H;
  std::unique_ptr<HandleScope> Scope; // Declared after H: destroyed first.

  void rebuild(const HeapConfig &Config, size_t Nodes) {
    Scope.reset();
    H = std::make_unique<Heap>(Config);
    Scope = std::make_unique<HandleScope>(*H);
    buildMixedHeap(*H, *Scope, Nodes);
  }
};

/// Scavenge cost per strategy at a full boundary: mark-sweep frees dead
/// objects individually; copying clones survivors and releases the region.
void BM_ScavengeStrategy(benchmark::State &State) {
  const size_t Nodes = 20'000;
  const bool Copying = State.range(0) != 0;
  HeapConfig Config = manualConfig();
  Config.Collector =
      Copying ? CollectorKind::Copying : CollectorKind::MarkSweep;
  ScavengeFixture Fixture;
  for (auto _ : State) {
    State.PauseTiming();
    Fixture.rebuild(Config, Nodes);
    State.ResumeTiming();
    benchmark::DoNotOptimize(Fixture.H->collectAtBoundary(0));
  }
  State.SetLabel(Copying ? "copying" : "mark-sweep");
}

void BM_ScavengeByBoundary(benchmark::State &State) {
  // Scavenge cost as the boundary moves back: Arg(0) is the threatened
  // fraction of the heap in percent. Pause ~ threatened live bytes.
  const size_t Nodes = 20'000;
  const int ThreatenedPercent = static_cast<int>(State.range(0));
  ScavengeFixture Fixture;
  for (auto _ : State) {
    State.PauseTiming();
    Fixture.rebuild(manualConfig(), Nodes);
    core::AllocClock Now = Fixture.H->now();
    core::AllocClock Boundary =
        Now - Now * static_cast<uint64_t>(ThreatenedPercent) / 100;
    State.ResumeTiming();
    benchmark::DoNotOptimize(Fixture.H->collectAtBoundary(Boundary));
  }
  State.SetLabel(std::to_string(ThreatenedPercent) + "% threatened");
}
BENCHMARK(BM_ScavengeByBoundary)->Arg(10)->Arg(25)->Arg(50)->Arg(100);
BENCHMARK(BM_ScavengeStrategy)->Arg(0)->Arg(1);

void BM_TraceWideGraph(benchmark::State &State) {
  // Full-heap scavenges of one wide, all-live graph: 2048 handle-rooted
  // chains of 128 nodes, so every BFS level of the trace carries ~2048
  // gray objects. Nothing dies, so each iteration traces the same graph.
  constexpr size_t Chains = 2'048;
  constexpr size_t Depth = 128;
  Heap H(manualConfig());
  HandleScope Scope(H);
  for (size_t C = 0; C != Chains; ++C) {
    Object *&Head = Scope.slot(nullptr);
    for (size_t D = 0; D != Depth; ++D) {
      Object *Node = H.allocate(1, 64);
      H.writeSlot(Node, 0, Head);
      Head = Node;
    }
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(H.collectAtBoundary(0));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Chains * Depth));
}
BENCHMARK(BM_TraceWideGraph)->Unit(benchmark::kMillisecond);

/// ESPRESSO(2), the largest paper workload, under the oracle memory-first
/// boundary search with a budget just above its mean live size, so the
/// binary search over the heap model's demographics runs at every
/// scavenge. Generated once and shared by both query modes.
struct HeapQueryInput {
  trace::Trace T;
  uint64_t MemBudget = 0;
  double ProgramSeconds = 0.0;
  sim::SimulationResult Indexed; // The reference run.

  static const HeapQueryInput &get() {
    static const HeapQueryInput Input = [] {
      const workload::WorkloadSpec &Spec =
          *workload::findWorkload("espresso2");
      HeapQueryInput I;
      I.T = workload::generateTrace(Spec);
      I.MemBudget = static_cast<uint64_t>(
          trace::computeTraceStats(I.T).LiveMeanBytes * 1.2);
      I.ProgramSeconds = Spec.ProgramSeconds;
      I.Indexed = I.simulate(/*Naive=*/false);
      return I;
    }();
    return Input;
  }

  sim::SimulationResult simulate(bool Naive) const {
    core::OptimalMemoryPolicy MemFirst(MemBudget);
    sim::SimulatorConfig Config;
    Config.ProgramSeconds = ProgramSeconds;
    Config.UseNaiveHeapQueries = Naive;
    return sim::simulate(T, MemFirst, Config);
  }
};

void BM_SimHeapQueries(benchmark::State &State) {
  // Arg(0) answers the heap model's demographics queries from its
  // incremental indexes, Arg(1) with the naive O(residents) scans. The two
  // must agree on every scavenge; the ratio is the indexes' payoff.
  const HeapQueryInput &Input = HeapQueryInput::get();
  const bool Naive = State.range(0) != 0;
  sim::SimulationResult R;
  for (auto _ : State)
    R = Input.simulate(Naive);
  if (R.TotalTracedBytes != Input.Indexed.TotalTracedBytes ||
      R.NumScavenges != Input.Indexed.NumScavenges)
    State.SkipWithError("indexed and scan heap-query runs disagree");
  State.counters["scavenges"] = static_cast<double>(R.NumScavenges);
  State.SetLabel(Naive ? "scan" : "indexed");
}
BENCHMARK(BM_SimHeapQueries)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RepeatedScavengeSteadyState(benchmark::State &State) {
  // A steady mutator with an installed policy: measures the whole
  // trigger-collect cycle amortized per allocation.
  HeapConfig Config;
  Config.TriggerBytes = 64 * 1024;
  Heap H(Config);
  core::PolicyConfig PolicyConfig;
  PolicyConfig.TraceMaxBytes = 16 * 1024;
  H.setPolicy(core::createPolicy("dtbfm", PolicyConfig));
  HandleScope Scope(H);
  Object *&Head = Scope.slot(nullptr);
  Rng R(42);
  for (auto _ : State) {
    Object *Node = H.allocate(1, 24);
    if (R.nextBool(0.05)) { // 5% of nodes join the live list.
      H.writeSlot(Node, 0, Head);
      Head = Node;
    }
    if (R.nextBool(0.001))
      Head = nullptr; // Periodically drop the list.
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_RepeatedScavengeSteadyState);

void BM_HandleScopeChurn(benchmark::State &State) {
  Heap H(manualConfig());
  Object *O = H.allocate(0);
  for (auto _ : State) {
    HandleScope Scope(H);
    benchmark::DoNotOptimize(&Scope.slot(O));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_HandleScopeChurn);

} // namespace

BENCHMARK_MAIN();
