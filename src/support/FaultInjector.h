//===- support/FaultInjector.h - Deterministic fault injection -*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seeded fault-injection framework. Library code asks a
/// *named site* whether a fault should fire there; tests install an
/// injector for a scope and configure, per site, a firing probability
/// and/or one-shot triggers that fire on an exact hit count. Everything is
/// driven by SplitMix64 (support/Random.h), so a given seed reproduces the
/// exact same fault schedule on every platform.
///
/// Sites never *cause* unsafety: each consumer treats an injected fault as
/// the resource failure it models (allocation denied, remembered set full,
/// policy unusable, I/O error) and walks its graceful-degradation path.
/// With no injector installed every query is a single thread-local load —
/// cheap enough to leave compiled into release builds.
///
/// Typical use:
/// \code
///   FaultInjector Injector(/*Seed=*/42);
///   Injector.setProbability(FaultSite::Allocation, 0.05);
///   Injector.armOneShot(FaultSite::PolicyEvaluation, /*NthHit=*/3);
///   FaultInjectionScope Scope(Injector);
///   ... exercise the runtime; sites consult the injector ...
///   EXPECT_GT(Injector.injections(FaultSite::Allocation), 0u);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SUPPORT_FAULTINJECTOR_H
#define DTB_SUPPORT_FAULTINJECTOR_H

#include "support/Random.h"

#include <array>
#include <cstdint>

namespace dtb {

/// The named places library code consults the injector. Keep in sync with
/// faultSiteName().
enum class FaultSite : unsigned {
  /// Heap::tryAllocate — an injected fault denies the allocation once,
  /// forcing the degradation ladder (scavenge, emergency full, OOM).
  Allocation,
  /// Heap::writeSlot — the barrier's buffering "fails"; the entry is still
  /// recorded but the next boundary is pessimized to zero.
  WriteBarrier,
  /// RememberedSet insertion — the set's internal storage "fails"; the set
  /// is dropped and rebuilt under a pessimized (full) collection.
  RemSetInsert,
  /// Policy evaluation in Heap::collect — the policy is treated as
  /// unusable; the heap falls back to the FIXED1 boundary.
  PolicyEvaluation,
  /// Trace file I/O — reads and writes fail with a recoverable error.
  TraceIO,
  /// Heap::incrementalScavengeStep entry — the embedder's trace quantum
  /// "fails" before it runs (cancelled slice, preempted helper thread);
  /// the heap recovers by aborting the open cycle, which is always safe.
  IncrementalStep,
  /// Heap::abortIncrementalScavenge — the abort's barrier-bookkeeping
  /// rollback "fails"; the heap stays safe by pessimizing the next
  /// collection to a full one (TB = 0), exactly like a remembered-set
  /// loss.
  CycleAbort,
  /// Pause-deadline watchdog, consulted once per trace quantum — an
  /// injected fault counts as a deadline violation even when no deadline
  /// is configured, driving the retry-halving budget backoff.
  WatchdogDeadline,
  /// MutatorContext barrier-buffer flush into the shared remembered set —
  /// the sink's storage "fails" mid-flush, so the buffered entries cannot
  /// be trusted to have landed; the heap responds like a remembered-set
  /// overflow (drop the set, pessimize the next collection to a full one,
  /// rebuild exactly during that trace).
  BarrierSink,
  /// Safepoint rendezvous, consulted once per registered mutator context
  /// as the collector counts it in — the context's handshake
  /// acknowledgment is distrusted (lost wakeup, torn state handoff), so
  /// its barrier bookkeeping cannot be relied on either; the heap stays
  /// safe by pessimizing the next collection to a full trace.
  SafepointHandshake,
};

inline constexpr unsigned NumFaultSites = 10;

/// Stable lowercase identifier for a site ("allocation", "write-barrier",
/// "remset-insert", "policy-evaluation", "trace-io", "incremental-step",
/// "cycle-abort", "watchdog-deadline", "barrier-sink",
/// "safepoint-handshake").
const char *faultSiteName(FaultSite Site);

/// Deterministic fault source. Not thread-safe; install one per thread
/// (FaultInjectionScope is thread-local).
class FaultInjector {
public:
  explicit FaultInjector(uint64_t Seed) : Random(Seed) {}

  /// Sets the per-hit firing probability of \p Site (clamped to [0, 1]).
  void setProbability(FaultSite Site, double Probability);

  /// Arms a one-shot trigger: the \p NthHit-th query of \p Site (1-based,
  /// counted from now) fires exactly once, regardless of probability.
  /// Re-arming replaces any previous one-shot for the site.
  void armOneShot(FaultSite Site, uint64_t NthHit);

  /// Asks whether a fault fires at \p Site. Counts the hit, consumes
  /// randomness only when a probability is configured, and returns true
  /// when either the one-shot or the probabilistic trigger fires.
  bool shouldInject(FaultSite Site);

  /// Times shouldInject was called for \p Site.
  uint64_t hits(FaultSite Site) const { return state(Site).Hits; }
  /// Times shouldInject returned true for \p Site.
  uint64_t injections(FaultSite Site) const {
    return state(Site).Injections;
  }
  /// Total injections across all sites.
  uint64_t totalInjections() const;

  /// Clears all configuration and counters and reseeds the generator.
  void reset(uint64_t Seed);

private:
  struct SiteState {
    double Probability = 0.0;
    /// Absolute hit count at which the one-shot fires (0 = disarmed).
    uint64_t OneShotHit = 0;
    uint64_t Hits = 0;
    uint64_t Injections = 0;
  };

  SiteState &state(FaultSite Site) {
    return Sites[static_cast<unsigned>(Site)];
  }
  const SiteState &state(FaultSite Site) const {
    return Sites[static_cast<unsigned>(Site)];
  }

  Rng Random;
  std::array<SiteState, NumFaultSites> Sites;
};

/// RAII installation of an injector as the calling thread's current one.
/// Scopes nest; the innermost wins and the previous injector is restored
/// on destruction.
class FaultInjectionScope {
public:
  explicit FaultInjectionScope(FaultInjector &Injector);
  ~FaultInjectionScope();

  FaultInjectionScope(const FaultInjectionScope &) = delete;
  FaultInjectionScope &operator=(const FaultInjectionScope &) = delete;

  /// The innermost installed injector on this thread, or nullptr.
  static FaultInjector *current();

private:
  FaultInjector *Previous;
};

/// Convenience for instrumented sites: true iff an injector is installed
/// on this thread and fires at \p Site.
bool faultRequestedAt(FaultSite Site);

} // namespace dtb

#endif // DTB_SUPPORT_FAULTINJECTOR_H
