// The fault injector itself: spec parsing, trigger semantics, counters,
// the macro contract, and the obs bridge. The end-to-end chaos coverage
// (killing a real allpairs run) lives in tools/chaos_test.cmake.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/fault_injection.h"

namespace simrank {
namespace {

using fault::Action;
using fault::FaultInjector;
using fault::SiteConfig;

// Every test runs against its own injector where possible; tests that go
// through the macros (which use Default()) clean up behind themselves.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Default().Clear(); }
};

TEST_F(FaultInjectionTest, DisabledInjectorReturnsOk) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Hit("some.site").ok());
}

TEST_F(FaultInjectionTest, OnNthHitFiresExactlyOnce) {
  FaultInjector injector;
  SiteConfig config;
  config.action = Action::kError;
  config.on_hit = 3;
  injector.Arm("io.test", config);
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(injector.Hit("io.test").ok());
  EXPECT_TRUE(injector.Hit("io.test").ok());
  const Status third = injector.Hit("io.test");
  EXPECT_EQ(third.code(), StatusCode::kIoError);
  // Subsequent hits pass again: the trigger is "exactly the Nth".
  EXPECT_TRUE(injector.Hit("io.test").ok());
  EXPECT_EQ(injector.HitCount("io.test"), 4u);
  EXPECT_EQ(injector.InjectedCount("io.test"), 1u);
}

TEST_F(FaultInjectionTest, CorruptActionReturnsCorruption) {
  FaultInjector injector;
  SiteConfig config;
  config.action = Action::kCorrupt;
  config.on_hit = 1;
  injector.Arm("data.test", config);
  EXPECT_EQ(injector.Hit("data.test").code(), StatusCode::kCorruption);
}

TEST_F(FaultInjectionTest, UnarmedSitesAreCountedButNeverFire) {
  FaultInjector injector;
  SiteConfig config;
  config.on_hit = 1;
  injector.Arm("armed.site", config);
  EXPECT_TRUE(injector.Hit("other.site").ok());
  EXPECT_EQ(injector.HitCount("other.site"), 1u);
  EXPECT_EQ(injector.InjectedCount("other.site"), 0u);
}

TEST_F(FaultInjectionTest, ProbabilisticTriggerIsSeedDeterministic) {
  auto fire_pattern = [](uint64_t seed) {
    FaultInjector injector;
    injector.set_seed(seed);
    SiteConfig config;
    config.probability = 0.5;
    injector.Arm("p.site", config);
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += injector.Hit("p.site").ok() ? '.' : 'X';
    }
    return pattern;
  };
  EXPECT_EQ(fire_pattern(7), fire_pattern(7));
  EXPECT_NE(fire_pattern(7), fire_pattern(8));
  // p=0.5 over 64 hits fires at least once for any sane stream.
  EXPECT_NE(fire_pattern(7).find('X'), std::string::npos);
}

TEST_F(FaultInjectionTest, ProbabilityZeroAndOneAreExact) {
  FaultInjector injector;
  SiteConfig never;
  never.probability = 0.0;
  injector.Arm("never.site", never);
  SiteConfig always;
  always.probability = 1.0;
  injector.Arm("always.site", always);
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(injector.Hit("never.site").ok());
    EXPECT_FALSE(injector.Hit("always.site").ok());
  }
}

TEST_F(FaultInjectionTest, RearmingResetsHitCount) {
  FaultInjector injector;
  SiteConfig config;
  config.on_hit = 2;
  injector.Arm("re.site", config);
  EXPECT_TRUE(injector.Hit("re.site").ok());
  injector.Arm("re.site", config);  // resets: next hit is hit 1 again
  EXPECT_TRUE(injector.Hit("re.site").ok());
  EXPECT_FALSE(injector.Hit("re.site").ok());
}

TEST_F(FaultInjectionTest, ClearDisables) {
  FaultInjector injector;
  SiteConfig config;
  config.on_hit = 1;
  injector.Arm("x", config);
  injector.Clear();
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Hit("x").ok());
  // Counters were zeroed, and a disabled injector takes the fast path
  // without counting at all.
  EXPECT_EQ(injector.HitCount("x"), 0u);
  EXPECT_TRUE(injector.SnapshotCounters().empty());
}

// ---------- spec grammar ----------

TEST_F(FaultInjectionTest, SpecParsesAllForms) {
  FaultInjector injector;
  ASSERT_TRUE(injector
                  .ArmFromSpec("a.b=error@3,c=corrupt@p0.25,d=abort@1")
                  .ok());
  EXPECT_TRUE(injector.Hit("a.b").ok());
  EXPECT_TRUE(injector.Hit("a.b").ok());
  EXPECT_EQ(injector.Hit("a.b").code(), StatusCode::kIoError);
  // The probabilistic corrupt clause fires eventually (p=0.25 over 64
  // deterministic draws) and always with kCorruption.
  bool fired = false;
  for (int i = 0; i < 64 && !fired; ++i) {
    const Status status = injector.Hit("c");
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
  // The abort clause parsed; "d" is deliberately never hit.
}

TEST_F(FaultInjectionTest, SpecRejectsMalformedClauses) {
  FaultInjector injector;
  EXPECT_FALSE(injector.ArmFromSpec("justasite").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=explode@1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=error").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=error@").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=error@zero").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=error@p1.5").ok());
  EXPECT_FALSE(injector.ArmFromSpec("=error@1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("s=error@0").ok());
}

// ---------- counters and the obs bridge ----------

TEST_F(FaultInjectionTest, SnapshotCountersCoverTotalsAndSites) {
  FaultInjector injector;
  SiteConfig config;
  config.on_hit = 1;
  injector.Arm("snap.site", config);
  (void)injector.Hit("snap.site");
  (void)injector.Hit("snap.site");
  const auto counters = injector.SnapshotCounters();
  auto value_of = [&](const std::string& name) -> int64_t {
    for (const auto& [key, value] : counters) {
      if (key == name) return static_cast<int64_t>(value);
    }
    return -1;
  };
  EXPECT_EQ(value_of("faults.hits"), 2);
  EXPECT_EQ(value_of("faults.injected"), 1);
  EXPECT_EQ(value_of("faults.snap.site.hits"), 2);
  EXPECT_EQ(value_of("faults.snap.site.injected"), 1);
}

TEST_F(FaultInjectionTest, ObsSnapshotExportsFaultCounters) {
  FaultInjector& injector = FaultInjector::Default();
  SiteConfig config;
  config.on_hit = 1;
  injector.Arm("obs.bridge", config);
  (void)fault::Hit("obs.bridge");
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Default().Snapshot();
  ASSERT_NE(snapshot.counters.find("faults.obs.bridge.injected"),
            snapshot.counters.end());
  EXPECT_EQ(snapshot.counters.at("faults.obs.bridge.injected"), 1u);
  EXPECT_GE(snapshot.counters.at("faults.hits"), 1u);
}

// ---------- the macros ----------

// The macros compile to nothing without SIMRANK_FAULT_INJECTION.
#ifdef SIMRANK_FAULT_INJECTION
Status GuardedOperation() {
  SIMRANK_FAULT_POINT("macro.site");
  return Status::OK();
}

TEST_F(FaultInjectionTest, FaultPointMacroReturnsInjectedError) {
  FaultInjector& injector = FaultInjector::Default();
  SiteConfig config;
  config.on_hit = 2;
  injector.Arm("macro.site", config);
  EXPECT_TRUE(GuardedOperation().ok());
  const Status injected = GuardedOperation();
  EXPECT_EQ(injected.code(), StatusCode::kIoError);
  EXPECT_NE(injected.message().find("macro.site"), std::string::npos);
  EXPECT_TRUE(GuardedOperation().ok());
}

TEST_F(FaultInjectionTest, FaultPointSetMacroRespectsStickyStatus) {
  FaultInjector& injector = FaultInjector::Default();
  SiteConfig config;
  config.on_hit = 1;
  config.probability = 1.0;
  injector.Arm("sticky.site", config);
  Status sticky = Status::Corruption("pre-existing");
  SIMRANK_FAULT_POINT_SET("sticky.site", sticky);
  // An already-failed status is not overwritten.
  EXPECT_EQ(sticky.code(), StatusCode::kCorruption);
  EXPECT_EQ(sticky.message(), "pre-existing");
  Status fresh;
  SIMRANK_FAULT_POINT_SET("sticky.site", fresh);
  EXPECT_EQ(fresh.code(), StatusCode::kIoError);
}
#endif  // SIMRANK_FAULT_INJECTION

TEST_F(FaultInjectionTest, AbortExitCodeIsDistinctFromCliCodes) {
  // The documented CLI codes are 0-5; the chaos harness relies on 77
  // being none of them.
  EXPECT_GT(fault::kAbortExitCode, 5);
}

}  // namespace
}  // namespace simrank
