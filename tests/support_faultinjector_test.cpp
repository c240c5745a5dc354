//===- tests/support_faultinjector_test.cpp -------------------------------==//
//
// Unit tests for the deterministic fault-injection framework: seeded
// reproducibility, probability edge cases, one-shot exactness, scope
// nesting, and the site-name table.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dtb;

namespace {

/// Records the boolean schedule of N queries at one site.
std::vector<bool> schedule(FaultInjector &Injector, FaultSite Site, int N) {
  std::vector<bool> Out;
  for (int I = 0; I != N; ++I)
    Out.push_back(Injector.shouldInject(Site));
  return Out;
}

} // namespace

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector A(7), B(7);
  A.setProbability(FaultSite::Allocation, 0.3);
  B.setProbability(FaultSite::Allocation, 0.3);
  EXPECT_EQ(schedule(A, FaultSite::Allocation, 500),
            schedule(B, FaultSite::Allocation, 500));
  EXPECT_EQ(A.injections(FaultSite::Allocation),
            B.injections(FaultSite::Allocation));
  // A nontrivial probability over 500 hits injects at least once and
  // spares at least once.
  EXPECT_GT(A.injections(FaultSite::Allocation), 0u);
  EXPECT_LT(A.injections(FaultSite::Allocation), 500u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultInjector A(7), B(8);
  A.setProbability(FaultSite::Allocation, 0.3);
  B.setProbability(FaultSite::Allocation, 0.3);
  EXPECT_NE(schedule(A, FaultSite::Allocation, 500),
            schedule(B, FaultSite::Allocation, 500));
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFires) {
  FaultInjector Injector(1);
  for (int I = 0; I != 200; ++I)
    EXPECT_FALSE(Injector.shouldInject(FaultSite::WriteBarrier));
  EXPECT_EQ(Injector.hits(FaultSite::WriteBarrier), 200u);
  EXPECT_EQ(Injector.injections(FaultSite::WriteBarrier), 0u);
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFires) {
  FaultInjector Injector(1);
  Injector.setProbability(FaultSite::TraceIO, 1.0);
  for (int I = 0; I != 200; ++I)
    EXPECT_TRUE(Injector.shouldInject(FaultSite::TraceIO));
  EXPECT_EQ(Injector.injections(FaultSite::TraceIO), 200u);
}

TEST(FaultInjectorTest, ProbabilityIsClamped) {
  FaultInjector Injector(1);
  Injector.setProbability(FaultSite::TraceIO, 4.5);
  EXPECT_TRUE(Injector.shouldInject(FaultSite::TraceIO));
  Injector.setProbability(FaultSite::TraceIO, -2.0);
  EXPECT_FALSE(Injector.shouldInject(FaultSite::TraceIO));
}

TEST(FaultInjectorTest, OneShotFiresOnExactHit) {
  FaultInjector Injector(1);
  Injector.armOneShot(FaultSite::PolicyEvaluation, 3);
  EXPECT_FALSE(Injector.shouldInject(FaultSite::PolicyEvaluation));
  EXPECT_FALSE(Injector.shouldInject(FaultSite::PolicyEvaluation));
  EXPECT_TRUE(Injector.shouldInject(FaultSite::PolicyEvaluation));
  // Consumed: never again.
  for (int I = 0; I != 50; ++I)
    EXPECT_FALSE(Injector.shouldInject(FaultSite::PolicyEvaluation));
  EXPECT_EQ(Injector.injections(FaultSite::PolicyEvaluation), 1u);
}

TEST(FaultInjectorTest, OneShotCountsFromArmingPoint) {
  FaultInjector Injector(1);
  // Burn two hits, then arm "the 2nd hit from now".
  Injector.shouldInject(FaultSite::Allocation);
  Injector.shouldInject(FaultSite::Allocation);
  Injector.armOneShot(FaultSite::Allocation, 2);
  EXPECT_FALSE(Injector.shouldInject(FaultSite::Allocation));
  EXPECT_TRUE(Injector.shouldInject(FaultSite::Allocation));
}

TEST(FaultInjectorTest, OneShotDoesNotPerturbProbabilisticSchedule) {
  FaultInjector Plain(9), Armed(9);
  Plain.setProbability(FaultSite::Allocation, 0.25);
  Armed.setProbability(FaultSite::Allocation, 0.25);
  Armed.armOneShot(FaultSite::Allocation, 10);
  std::vector<bool> PlainSchedule = schedule(Plain, FaultSite::Allocation, 100);
  std::vector<bool> ArmedSchedule = schedule(Armed, FaultSite::Allocation, 100);
  // Identical except the armed hit, which fires unconditionally.
  for (int I = 0; I != 100; ++I) {
    if (I == 9)
      EXPECT_TRUE(ArmedSchedule[I]);
    else
      EXPECT_EQ(ArmedSchedule[I], PlainSchedule[I]) << I;
  }
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  FaultInjector Injector(1);
  Injector.setProbability(FaultSite::Allocation, 1.0);
  EXPECT_TRUE(Injector.shouldInject(FaultSite::Allocation));
  EXPECT_FALSE(Injector.shouldInject(FaultSite::WriteBarrier));
  EXPECT_EQ(Injector.totalInjections(), 1u);
}

TEST(FaultInjectorTest, ResetClearsEverything) {
  FaultInjector Injector(3);
  Injector.setProbability(FaultSite::Allocation, 1.0);
  Injector.armOneShot(FaultSite::TraceIO, 1);
  Injector.shouldInject(FaultSite::Allocation);
  Injector.shouldInject(FaultSite::TraceIO);
  EXPECT_EQ(Injector.totalInjections(), 2u);

  Injector.reset(3);
  EXPECT_EQ(Injector.totalInjections(), 0u);
  EXPECT_EQ(Injector.hits(FaultSite::Allocation), 0u);
  EXPECT_FALSE(Injector.shouldInject(FaultSite::Allocation));
  EXPECT_FALSE(Injector.shouldInject(FaultSite::TraceIO));
}

TEST(FaultInjectionScopeTest, NoScopeMeansNoFaults) {
  ASSERT_EQ(FaultInjectionScope::current(), nullptr);
  EXPECT_FALSE(faultRequestedAt(FaultSite::Allocation));
}

TEST(FaultInjectionScopeTest, ScopeInstallsAndRestores) {
  FaultInjector Injector(1);
  Injector.setProbability(FaultSite::Allocation, 1.0);
  {
    FaultInjectionScope Scope(Injector);
    EXPECT_EQ(FaultInjectionScope::current(), &Injector);
    EXPECT_TRUE(faultRequestedAt(FaultSite::Allocation));
  }
  EXPECT_EQ(FaultInjectionScope::current(), nullptr);
  EXPECT_FALSE(faultRequestedAt(FaultSite::Allocation));
  EXPECT_EQ(Injector.hits(FaultSite::Allocation), 1u);
}

TEST(FaultInjectionScopeTest, ScopesNestInnermostWins) {
  FaultInjector Outer(1), Inner(2);
  Outer.setProbability(FaultSite::TraceIO, 1.0);
  FaultInjectionScope OuterScope(Outer);
  {
    FaultInjectionScope InnerScope(Inner);
    EXPECT_EQ(FaultInjectionScope::current(), &Inner);
    // Inner has no configuration: the outer injector must not be hit.
    EXPECT_FALSE(faultRequestedAt(FaultSite::TraceIO));
  }
  EXPECT_EQ(FaultInjectionScope::current(), &Outer);
  EXPECT_TRUE(faultRequestedAt(FaultSite::TraceIO));
  EXPECT_EQ(Outer.hits(FaultSite::TraceIO), 1u);
  EXPECT_EQ(Inner.hits(FaultSite::TraceIO), 1u);
}

TEST(FaultSiteTest, NamesAreStableAndDistinct) {
  EXPECT_STREQ(faultSiteName(FaultSite::Allocation), "allocation");
  EXPECT_STREQ(faultSiteName(FaultSite::WriteBarrier), "write-barrier");
  EXPECT_STREQ(faultSiteName(FaultSite::RemSetInsert), "remset-insert");
  EXPECT_STREQ(faultSiteName(FaultSite::PolicyEvaluation),
               "policy-evaluation");
  EXPECT_STREQ(faultSiteName(FaultSite::TraceIO), "trace-io");
  EXPECT_STREQ(faultSiteName(FaultSite::IncrementalStep),
               "incremental-step");
  EXPECT_STREQ(faultSiteName(FaultSite::CycleAbort), "cycle-abort");
  EXPECT_STREQ(faultSiteName(FaultSite::WatchdogDeadline),
               "watchdog-deadline");
}
