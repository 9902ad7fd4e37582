// Admission-control unit coverage (src/service/admission.*): option
// validation, client-id hashing, per-client token buckets, per-class
// queue bounds, the queue-depth degrade watermark, and the SLO-feedback
// degradation level walk — all driven with a synthetic clock so the
// per-second feedback window is deterministic.

#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "service/admission.h"

namespace simrank::service {
namespace {

constexpr uint64_t kClientA = 101;
constexpr uint64_t kClientB = 202;

// ------------------------------------------------------------------ options

TEST(AdmissionOptionsTest, ZeroValueDisablesEverythingAndValidates) {
  AdmissionOptions options;
  EXPECT_FALSE(options.any_enabled());
  EXPECT_TRUE(options.Validate().ok());
}

TEST(AdmissionOptionsTest, AnyMechanismEnablesTheController) {
  AdmissionOptions options;
  options.interactive_queue_limit = 4;
  EXPECT_TRUE(options.any_enabled());
  options = {};
  options.client_rate = 10.0;
  EXPECT_TRUE(options.any_enabled());
  options = {};
  options.degrade_watermark = 2;
  EXPECT_TRUE(options.any_enabled());
  options = {};
  options.target_p99_seconds = 0.5;
  EXPECT_TRUE(options.any_enabled());
}

TEST(AdmissionOptionsTest, ValidateRejectsBadValues) {
  AdmissionOptions options;
  options.client_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = {};
  options.client_burst = -1.0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = {};
  options.target_p99_seconds = std::numeric_limits<double>::infinity();
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  // Zero hysteresis steps are only illegal when the feedback loop is on.
  options = {};
  options.breach_steps = 0;
  EXPECT_TRUE(options.Validate().ok());
  options.target_p99_seconds = 0.5;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------------- names

TEST(AdmissionNamesTest, StableTokensForEveryEnumerator) {
  EXPECT_STREQ(PriorityClassName(PriorityClass::kInteractive), "interactive");
  EXPECT_STREQ(PriorityClassName(PriorityClass::kBatch), "batch");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kAdmitted),
               "admitted");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kDegraded),
               "degraded");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kShedQueueFull),
               "shed_queue_full");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kShedRateLimited),
               "shed_rate_limited");
  EXPECT_STREQ(AdmissionDecisionName(AdmissionDecision::kShedOverload),
               "shed_overload");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kNormal), "normal");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kDegradeBatch),
               "degrade_batch");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kDegradeAll),
               "degrade_all");
  EXPECT_STREQ(DegradationLevelName(DegradationLevel::kShedBatch),
               "shed_batch");
}

TEST(AdmissionNamesTest, IsShedCoversExactlyTheShedDecisions) {
  EXPECT_FALSE(IsShed(AdmissionDecision::kAdmitted));
  EXPECT_FALSE(IsShed(AdmissionDecision::kDegraded));
  EXPECT_TRUE(IsShed(AdmissionDecision::kShedQueueFull));
  EXPECT_TRUE(IsShed(AdmissionDecision::kShedRateLimited));
  EXPECT_TRUE(IsShed(AdmissionDecision::kShedOverload));
}

// ------------------------------------------------------------------ hashing

TEST(HashClientIdTest, EmptyIsTheAnonymousSentinel) {
  EXPECT_EQ(HashClientId(""), 0u);
  EXPECT_NE(HashClientId("client-0"), 0u);
}

TEST(HashClientIdTest, DeterministicAndWellSpread) {
  EXPECT_EQ(HashClientId("alpha"), HashClientId("alpha"));
  std::set<uint64_t> hashes;
  for (int i = 0; i < 64; ++i) {
    hashes.insert(HashClientId("client-" + std::to_string(i)));
  }
  EXPECT_EQ(hashes.size(), 64u);  // no collisions over a realistic id set
}

// ------------------------------------------------------------ token buckets

TEST(AdmissionControllerTest, TokenBucketLimitsPerClientRate) {
  AdmissionOptions options;
  options.client_rate = 1.0;
  options.client_burst = 2.0;
  AdmissionController controller(options);

  // A new client starts with a full burst of 2 tokens.
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 0.0,
                             /*will_queue=*/false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 0.0,
                             false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 0.0,
                             false),
            AdmissionDecision::kShedRateLimited);

  // A different client has its own bucket.
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientB, 0.0,
                             false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.tracked_clients(), 2u);

  // One second at 1 rps refills one token; only one request fits.
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 1.0,
                             false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 1.0,
                             false),
            AdmissionDecision::kShedRateLimited);

  // Refill is capped at the burst: a long idle gap does not bank tokens.
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 100.0,
                             false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 100.0,
                             false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, kClientA, 100.0,
                             false),
            AdmissionDecision::kShedRateLimited);
}

TEST(AdmissionControllerTest, AnonymousClientBypassesRateLimits) {
  AdmissionOptions options;
  options.client_rate = 1.0;
  AdmissionController controller(options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, /*client_hash=*/0,
                               0.0, false),
              AdmissionDecision::kAdmitted);
  }
  EXPECT_EQ(controller.tracked_clients(), 0u);
}

// -------------------------------------------------------------- queue bounds

TEST(AdmissionControllerTest, PerClassBacklogBounds) {
  AdmissionOptions options;
  options.interactive_queue_limit = 2;
  options.batch_queue_limit = 1;
  AdmissionController controller(options);

  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 0.0,
                             /*will_queue=*/true),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 0.0, true),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.queue_depth(PriorityClass::kInteractive), 2u);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 0.0, true),
            AdmissionDecision::kShedQueueFull);

  // The batch bound is independent of the interactive one.
  EXPECT_EQ(controller.Admit(PriorityClass::kBatch, 0, 0.0, true),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.Admit(PriorityClass::kBatch, 0, 0.0, true),
            AdmissionDecision::kShedQueueFull);

  // Dequeue frees a slot for the class it came from.
  controller.OnDequeue(PriorityClass::kInteractive);
  EXPECT_EQ(controller.queue_depth(PriorityClass::kInteractive), 1u);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 0.0, true),
            AdmissionDecision::kAdmitted);

  // Synchronous callers (will_queue=false) do not consume backlog slots.
  EXPECT_EQ(controller.Admit(PriorityClass::kBatch, 0, 0.0, false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.queue_depth(PriorityClass::kBatch), 1u);
}

// ---------------------------------------------------------------- watermark

TEST(AdmissionControllerTest, WatermarkDegradesExecutionOnly) {
  AdmissionOptions options;
  options.degrade_watermark = 2;
  AdmissionController controller(options);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kInteractive, 2),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kInteractive, 3),
            AdmissionDecision::kDegraded);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kBatch, 3),
            AdmissionDecision::kDegraded);
  // The watermark never sheds; admission stays open.
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 0.0, false),
            AdmissionDecision::kAdmitted);
}

// ------------------------------------------------------------ feedback loop

class FeedbackTest : public ::testing::Test {
 protected:
  static AdmissionOptions FeedbackOptions() {
    AdmissionOptions options;
    options.target_p99_seconds = 0.001;  // 1ms
    options.breach_steps = 1;
    options.recover_steps = 2;
    return options;
  }

  // Fills the controller's window for `second` with `n` completions of
  // `seconds` each, then rolls it by completing one request in the next
  // second (the roll happens on the first completion of a new second).
  static void CompleteSecond(AdmissionController& controller, double second,
                             int n, double seconds) {
    for (int i = 0; i < n; ++i) {
      controller.OnComplete(PriorityClass::kInteractive,
                            static_cast<uint64_t>(seconds * 1e9), second);
    }
  }
};

TEST_F(FeedbackTest, BreachWalksDownCurveAndRecoveryWalksBack) {
  AdmissionController controller(FeedbackOptions());
  EXPECT_EQ(controller.level(), DegradationLevel::kNormal);

  // Three consecutive breached seconds (10ms >> 1ms target) walk the
  // level one step each: kDegradeBatch, kDegradeAll, kShedBatch.
  CompleteSecond(controller, 0.5, 8, 0.010);
  CompleteSecond(controller, 1.5, 8, 0.010);  // rolls second 0 -> breach
  EXPECT_EQ(controller.level(), DegradationLevel::kDegradeBatch);
  CompleteSecond(controller, 2.5, 8, 0.010);
  EXPECT_EQ(controller.level(), DegradationLevel::kDegradeAll);
  CompleteSecond(controller, 3.5, 8, 0.010);
  EXPECT_EQ(controller.level(), DegradationLevel::kShedBatch);

  // The curve is capped: further breaches cannot go past kShedBatch.
  CompleteSecond(controller, 4.5, 8, 0.010);
  CompleteSecond(controller, 5.5, 8, 0.010);
  EXPECT_EQ(controller.level(), DegradationLevel::kShedBatch);

  // At kShedBatch, batch is refused at admission and interactive runs
  // degraded; interactive is never shed by the level.
  EXPECT_EQ(controller.Admit(PriorityClass::kBatch, 0, 6.0, false),
            AdmissionDecision::kShedOverload);
  EXPECT_EQ(controller.Admit(PriorityClass::kInteractive, 0, 6.0, false),
            AdmissionDecision::kAdmitted);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kInteractive, 0),
            AdmissionDecision::kDegraded);

  // Recovery needs recover_steps (2) healthy evaluated seconds per step
  // — asymmetric hysteresis. 100us completions are well under target.
  CompleteSecond(controller, 6.5, 8, 0.0001);
  CompleteSecond(controller, 7.5, 8, 0.0001);   // evaluates second 6: 1 healthy
  CompleteSecond(controller, 8.5, 8, 0.0001);   // 2 healthy -> step up
  CompleteSecond(controller, 9.5, 8, 0.0001);
  EXPECT_EQ(controller.level(), DegradationLevel::kDegradeAll);
}

TEST_F(FeedbackTest, MixedBreachResetsTheRecoveryStreak) {
  // breach_steps=2: an isolated breached second does not escalate, but
  // it must still wipe any recovery progress.
  AdmissionOptions options = FeedbackOptions();
  options.breach_steps = 2;
  AdmissionController controller(options);
  // Windows are evaluated when the *next* second's first completion
  // rolls them, so each CompleteSecond below scores the previous one.
  CompleteSecond(controller, 0.5, 8, 0.010);   // second 0: slow
  CompleteSecond(controller, 1.5, 8, 0.010);   // rolls s0: breach 1/2
  CompleteSecond(controller, 2.5, 8, 0.0001);  // rolls s1: breach 2/2 -> level 1
  ASSERT_EQ(controller.level(), DegradationLevel::kDegradeBatch);
  // healthy (s2), breach (s3), healthy (s4): two healthy seconds total,
  // but the breach in between resets the streak, so recover_steps=2 is
  // never reached and the level holds.
  CompleteSecond(controller, 3.5, 8, 0.010);
  CompleteSecond(controller, 4.5, 8, 0.0001);
  CompleteSecond(controller, 5.5, 8, 0.0001);  // rolls s4: streak back to 1
  EXPECT_EQ(controller.level(), DegradationLevel::kDegradeBatch);
}

TEST_F(FeedbackTest, ThinSecondsAreIgnoredByTheBreachDetector) {
  AdmissionController controller(FeedbackOptions());
  // 2 samples < kMinWindowSamples (8): slow but not a breach signal.
  CompleteSecond(controller, 0.5, 2, 0.010);
  CompleteSecond(controller, 1.5, 2, 0.010);
  CompleteSecond(controller, 2.5, 2, 0.010);
  EXPECT_EQ(controller.level(), DegradationLevel::kNormal);
}

TEST_F(FeedbackTest, BatchCompletionsDoNotDriveTheLevel) {
  AdmissionController controller(FeedbackOptions());
  for (int second = 0; second < 4; ++second) {
    for (int i = 0; i < 8; ++i) {
      controller.OnComplete(PriorityClass::kBatch,
                            static_cast<uint64_t>(10e6),  // 10ms, "breached"
                            second + 0.5);
    }
  }
  EXPECT_EQ(controller.level(), DegradationLevel::kNormal);
}

TEST_F(FeedbackTest, LevelDegradesBatchBeforeInteractive) {
  AdmissionController controller(FeedbackOptions());
  CompleteSecond(controller, 0.5, 8, 0.010);
  CompleteSecond(controller, 1.5, 8, 0.010);
  ASSERT_EQ(controller.level(), DegradationLevel::kDegradeBatch);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kBatch, 0),
            AdmissionDecision::kDegraded);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kInteractive, 0),
            AdmissionDecision::kAdmitted);
  CompleteSecond(controller, 2.5, 8, 0.010);
  ASSERT_EQ(controller.level(), DegradationLevel::kDegradeAll);
  EXPECT_EQ(controller.ExecutionDecision(PriorityClass::kInteractive, 0),
            AdmissionDecision::kDegraded);
}

}  // namespace
}  // namespace simrank::service
