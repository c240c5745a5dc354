//===- support/FaultInjector.cpp ------------------------------------------==//

#include "support/FaultInjector.h"

#include "support/Error.h"

using namespace dtb;

const char *dtb::faultSiteName(FaultSite Site) {
  switch (Site) {
  case FaultSite::Allocation:
    return "allocation";
  case FaultSite::WriteBarrier:
    return "write-barrier";
  case FaultSite::RemSetInsert:
    return "remset-insert";
  case FaultSite::PolicyEvaluation:
    return "policy-evaluation";
  case FaultSite::TraceIO:
    return "trace-io";
  case FaultSite::IncrementalStep:
    return "incremental-step";
  case FaultSite::CycleAbort:
    return "cycle-abort";
  case FaultSite::WatchdogDeadline:
    return "watchdog-deadline";
  case FaultSite::BarrierSink:
    return "barrier-sink";
  case FaultSite::SafepointHandshake:
    return "safepoint-handshake";
  }
  unreachable("covered switch");
}

void FaultInjector::setProbability(FaultSite Site, double Probability) {
  if (Probability < 0.0)
    Probability = 0.0;
  if (Probability > 1.0)
    Probability = 1.0;
  state(Site).Probability = Probability;
}

void FaultInjector::armOneShot(FaultSite Site, uint64_t NthHit) {
  DTB_CHECK(NthHit != 0, "one-shot hit index is 1-based");
  state(Site).OneShotHit = state(Site).Hits + NthHit;
}

bool FaultInjector::shouldInject(FaultSite Site) {
  SiteState &S = state(Site);
  S.Hits += 1;
  bool Fire = false;
  if (S.OneShotHit != 0 && S.Hits == S.OneShotHit) {
    S.OneShotHit = 0;
    Fire = true;
  }
  // Consume randomness whenever a probability is configured, whether or
  // not the one-shot already fired, so arming a one-shot never perturbs
  // the probabilistic schedule.
  if (S.Probability > 0.0 && Random.nextBool(S.Probability))
    Fire = true;
  if (Fire)
    S.Injections += 1;
  return Fire;
}

uint64_t FaultInjector::totalInjections() const {
  uint64_t Total = 0;
  for (const SiteState &S : Sites)
    Total += S.Injections;
  return Total;
}

void FaultInjector::reset(uint64_t Seed) {
  Random = Rng(Seed);
  Sites = {};
}

namespace {
thread_local FaultInjector *CurrentInjector = nullptr;
} // namespace

FaultInjectionScope::FaultInjectionScope(FaultInjector &Injector)
    : Previous(CurrentInjector) {
  CurrentInjector = &Injector;
}

FaultInjectionScope::~FaultInjectionScope() { CurrentInjector = Previous; }

FaultInjector *FaultInjectionScope::current() { return CurrentInjector; }

bool dtb::faultRequestedAt(FaultSite Site) {
  FaultInjector *Injector = CurrentInjector;
  return Injector && Injector->shouldInject(Site);
}
