//===- tests/runtime_faultmatrix_test.cpp ---------------------------------==//
//
// Exhaustive fault matrix for the abortable incremental collector: a
// reference run of a deterministic scenario counts how often each of the
// three mid-cycle fault sites (incremental-step, cycle-abort,
// watchdog-deadline) is consulted, then the scenario is re-run once per
// (site, hit index) with a one-shot fault armed at
// exactly that hit. Every injected run must finish the scenario, fire
// exactly once, and leave a heap that passes the full verifier battery —
// no quantum index is a bad place to fail.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"
#include "runtime/HeapVerifier.h"
#include "runtime/Mutator.h"

#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace dtb;
using namespace dtb::runtime;

namespace {

/// One deterministic end-to-end scenario exercising every phase the new
/// fault sites guard: a stepped cycle with mid-cycle mutation, an explicit
/// abort, mid-cycle allocation pressure (the accelerate / complete-now /
/// abort ladder), and a final full collection. The control flow tolerates
/// an injected fault at any point — a step may report completion because
/// the cycle aborted, pressure may drain or cancel the cycle — so the
/// same code path runs for the reference and every injected variant.
void runScenario() {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.QuarantineFreedObjects = true;
  Config.ScavengeBudgetBytes = 2'000;
  Config.HeapLimitBytes = 96 * 1024;
  Heap H(Config);
  HandleScope Scope(H);

  for (int C = 0; C != 20; ++C) {
    Object *&Head = Scope.slot(nullptr);
    for (int D = 0; D != 10; ++D) {
      Object *N =
          H.allocate(1, static_cast<uint32_t>((C * 11 + D * 5) % 96));
      H.writeSlot(N, 0, Head);
      Head = N;
      H.allocate(0, 24); // Garbage.
    }
  }

  auto Verify = [&](const char *Where) {
    VerifyResult Verified = verifyHeap(H);
    ASSERT_TRUE(Verified.Ok)
        << Where << ": "
        << (Verified.Problems.empty() ? "" : Verified.Problems.front());
  };

  // Phase 1: a budgeted cycle stepped to completion, with a mutation
  // between quanta that only the insertion barrier keeps sound.
  H.beginIncrementalScavenge(0);
  int Steps = 0;
  while (!H.incrementalScavengeStep()) {
    if (++Steps == 2) {
      Object *&Fresh = Scope.slot(H.allocate(1, 0));
      H.writeSlot(Fresh, 0, H.allocate(0, 40));
    }
  }
  Verify("after stepped cycle");

  // Phase 2: partial progress, then an explicit abort.
  H.beginIncrementalScavenge(H.now() / 2);
  (void)H.incrementalScavengeStep();
  if (H.incrementalScavengeActive())
    H.abortIncrementalScavenge();
  Verify("after explicit abort");

  // Phase 3: allocation pressure against an open cycle — walks the
  // mid-cycle rungs (and, if they fail, the emergency ladder). The
  // allocation itself may be denied under an injected fault storm; only
  // heap soundness is asserted.
  if (!H.incrementalScavengeActive())
    H.beginIncrementalScavenge(0);
  uint64_t Resident = H.residentBytes();
  if (Resident + 1 < Config.HeapLimitBytes)
    (void)H.tryAllocate(
        0, static_cast<uint32_t>(Config.HeapLimitBytes - Resident + 1));
  Verify("after mid-cycle pressure");

  // Phase 4: the final full collection drains or follows whatever state
  // the faults left behind.
  H.collectAtBoundary(0);
  ASSERT_FALSE(H.incrementalScavengeActive());
  Verify("after final full collection");
}

/// The mutator-context variant: the same exhaustive approach driven
/// through N registered contexts from one thread, covering the two sites
/// the multi-mutator protocol adds. BarrierSink guards every delivery of
/// buffered barrier entries to the shared remembered set (capacity flush,
/// safepoint flush, and the world-stopped direct insert);
/// SafepointHandshake is consulted once per registered context at every
/// stop-the-world rendezvous. Both degrade by pessimizing the next
/// collection to a full trace, so the scenario must stay verifier-clean
/// no matter which consult fails.
void runMutatorScenario(unsigned Mutators) {
  HeapConfig Config;
  Config.TriggerBytes = 0;
  Config.ScavengeBudgetBytes = 2'000;
  Heap H(Config);
  std::vector<std::unique_ptr<MutatorContext>> Contexts;
  for (unsigned I = 0; I != Mutators; ++I)
    Contexts.push_back(std::make_unique<MutatorContext>(H));

  auto Verify = [&](const char *Where) {
    H.runAtSafepoint([&](Heap &Stopped) {
      VerifyResult Verified = verifyHeap(Stopped);
      ASSERT_TRUE(Verified.Ok)
          << Where << ": "
          << (Verified.Problems.empty() ? "" : Verified.Problems.front());
    });
  };

  // Phase 1: a link mill round-robined across the contexts — enough
  // forward-in-time stores that a single context flushes at capacity and
  // four contexts flush at the next rendezvous.
  for (unsigned I = 0; I != 200; ++I) {
    MutatorContext &Ctx = *Contexts[I % Mutators];
    size_t Idx = Ctx.allocateRooted(1, (I * 7) % 64);
    if (Idx != 0)
      Ctx.writeSlot(Ctx.root(Idx - 1), 0, Ctx.root(Idx));
  }
  Verify("after link mill");

  // Phase 2: a forward store from inside a safepoint callback — the
  // world-stopped path where the entry goes straight to the sink.
  H.runAtSafepoint([&](Heap &) {
    MutatorContext &Ctx = *Contexts.front();
    Ctx.writeSlot(Ctx.root(0), 0, Ctx.root(Ctx.numRoots() - 1));
  });

  // Phase 3: a budgeted cycle stepped to completion, allocating and
  // linking between quanta (every step is one more rendezvous).
  H.beginIncrementalScavenge(H.now() / 2);
  unsigned Step = 0;
  while (!H.incrementalScavengeStep()) {
    MutatorContext &Ctx = *Contexts[Step++ % Mutators];
    size_t Idx = Ctx.allocateRooted(1, 16);
    if (Idx != 0)
      Ctx.writeSlot(Ctx.root(Idx - 1), 0, Ctx.root(Idx));
  }
  Verify("after stepped cycle");

  // Phase 4: drop the churn tails and collect everything that died; the
  // context destructors add one final rendezvous each.
  for (auto &Ctx : Contexts)
    Ctx->truncateRoots(1);
  H.collectAtBoundary(0);
  Verify("after final full collection");
}

} // namespace

TEST(FaultMatrixTest, EveryQuantumSurvivesEveryFaultSite) {
  const FaultSite Sites[] = {FaultSite::IncrementalStep,
                             FaultSite::CycleAbort,
                             FaultSite::WatchdogDeadline};

  // Reference run: an installed injector with nothing armed counts how
  // many times each site is consulted (hits accrue even at probability
  // zero), defining the matrix.
  FaultInjector Reference(/*Seed=*/1);
  {
    FaultInjectionScope Scope(Reference);
    runScenario();
    if (::testing::Test::HasFatalFailure())
      return;
  }
  ASSERT_EQ(Reference.totalInjections(), 0u);

  for (FaultSite Site : Sites) {
    uint64_t Hits = Reference.hits(Site);
    ASSERT_GT(Hits, 0u) << faultSiteName(Site)
                        << ": scenario never reached the site";
    for (uint64_t Hit = 1; Hit <= Hits; ++Hit) {
      SCOPED_TRACE(std::string("site=") + faultSiteName(Site) +
                   " hit=" + std::to_string(Hit));
      FaultInjector Injector(/*Seed=*/1);
      Injector.armOneShot(Site, Hit);
      FaultInjectionScope Scope(Injector);
      runScenario();
      if (::testing::Test::HasFatalFailure())
        return;
      EXPECT_EQ(Injector.injections(Site), 1u);
    }
  }
}

TEST(FaultMatrixTest, EveryMutatorConsultSurvivesEveryFaultSite) {
  const FaultSite Sites[] = {FaultSite::BarrierSink,
                             FaultSite::SafepointHandshake};

  for (unsigned Mutators : {1u, 4u}) {
    FaultInjector Reference(/*Seed=*/1);
    {
      FaultInjectionScope Scope(Reference);
      runMutatorScenario(Mutators);
      if (::testing::Test::HasFatalFailure())
        return;
    }
    ASSERT_EQ(Reference.totalInjections(), 0u);

    for (FaultSite Site : Sites) {
      uint64_t Hits = Reference.hits(Site);
      ASSERT_GT(Hits, 0u) << faultSiteName(Site)
                          << ": scenario never reached the site";
      for (uint64_t Hit = 1; Hit <= Hits; ++Hit) {
        SCOPED_TRACE(std::string("site=") + faultSiteName(Site) +
                     " hit=" + std::to_string(Hit) +
                     " mutators=" + std::to_string(Mutators));
        FaultInjector Injector(/*Seed=*/1);
        Injector.armOneShot(Site, Hit);
        FaultInjectionScope Scope(Injector);
        runMutatorScenario(Mutators);
        if (::testing::Test::HasFatalFailure())
          return;
        EXPECT_EQ(Injector.injections(Site), 1u);
      }
    }
  }
}
