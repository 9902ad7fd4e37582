// Unit tests of the benchmark harness: percentiles, due-time latency
// accounting and span self times.

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "harness/open_loop.h"
#include "harness/stats.h"
#include "harness/trace.h"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSmallestSampleCoveringTheFraction) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  EXPECT_EQ(NearestRank(samples, 0.5), 50);
  EXPECT_EQ(NearestRank(samples, 0.95), 95);
  EXPECT_EQ(NearestRank(samples, 0.99), 99);
  EXPECT_EQ(NearestRank(samples, 1.0), 100);
  EXPECT_EQ(NearestRank(samples, 0.001), 1);
  EXPECT_EQ(NearestRank({7.0}, 0.5), 7);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  // p * n lands on an exact integer rank despite binary rounding.
  std::vector<double> two_hundred;
  for (int i = 1; i <= 200; ++i) two_hundred.push_back(i);
  EXPECT_EQ(NearestRank(two_hundred, 0.95), 190);
}

TEST(TailFraction, LeavesTenSamplesBeyondTheTail) {
  EXPECT_DOUBLE_EQ(TailFraction(200), 0.95);
  EXPECT_DOUBLE_EQ(TailFraction(1000), 0.99);
  EXPECT_EQ(TailFraction(10), 0.0);
  EXPECT_EQ(SamplesForTail(0.95), 200u);
  EXPECT_EQ(SamplesForTail(0.99), 1000u);
  for (size_t n : {11, 57, 200, 333, 1000, 4096}) {
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) samples.push_back(static_cast<double>(i));
    const double tail = NearestRank(samples, TailFraction(n));
    size_t beyond = 0;
    for (double x : samples) beyond += x > tail ? 1 : 0;
    EXPECT_EQ(beyond, 10u) << "n=" << n;
  }
}

TEST(OpenLoop, ALateSenderIsLateByItsOwnStalls) {
  // Arrivals due every 1 ms; each send stalls the sender for 3 ms, so
  // arrival i goes out 2*i ms late.
  std::vector<double> due;
  for (int i = 0; i < 5; ++i) due.push_back(10.0 + i * 1e-3);
  double clock = 10.0;
  std::vector<double> sent_at;
  const std::vector<double> late = RunOpenLoop(
      due, [&] { return clock; }, [&](double t) { clock = t; },
      [&](size_t) {
        sent_at.push_back(clock);
        clock += 3e-3;
      });
  ASSERT_EQ(late.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(late[i], 2e-3 * i, 1e-12) << i;
    EXPECT_NEAR(sent_at[i], 10.0 + 3e-3 * i, 1e-12) << i;
  }
}

TEST(OpenLoop, AnOnTimeSenderSleepsUntilEachArrivalIsDue) {
  const std::vector<double> due = {1.0, 1.5, 1.5, 3.0};
  double clock = 1.0;
  std::vector<double> sleeps;
  const std::vector<double> late = RunOpenLoop(
      due, [&] { return clock; },
      [&](double t) {
        sleeps.push_back(t);
        clock = t;
      },
      [](size_t) {});
  EXPECT_EQ(late, std::vector<double>(4, 0.0));
  EXPECT_EQ(sleeps, (std::vector<double>{1.5, 3.0}));
}

TEST(OpenLoop, LatencyCountsFromTheDueTimeOfALateSender) {
  // On the real clock: arrivals due every 1 ms, each send stalls the
  // sender for 3 ms, and each request takes 2 ms to complete. Latency
  // from the due time must include the sender's lateness, not only the
  // 2 ms the request itself took.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point origin = Clock::now();
  const auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - origin).count();
  };
  const auto sleep_until = [&](double t) {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t)));
  };
  std::vector<double> due;
  for (int i = 0; i < 6; ++i) due.push_back(5e-3 + i * 1e-3);
  CompletionStamper<int> stamper(due.size(), origin);
  const std::vector<double> late =
      RunOpenLoop(due, now, sleep_until, [&](size_t i) {
        if (i == 3) return;  // refused at submit: no future
        stamper.Add(i, std::async(std::launch::async, [] {
                      std::this_thread::sleep_for(std::chrono::milliseconds(2));
                      return 1;
                    }));
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      });
  const std::vector<double> done = stamper.Finish();
  for (size_t i = 0; i < due.size(); ++i) {
    if (i == 3) {
      EXPECT_LT(done[i], 0.0);
      EXPECT_EQ(stamper.future(i), nullptr);
      continue;
    }
    ASSERT_NE(stamper.future(i), nullptr);
    EXPECT_EQ(stamper.future(i)->get(), 1);
    // Arrival i waited behind the stalls of the sends before it (arrival
    // 3 sent nothing and did not stall).
    const double stalls = 3e-3 * static_cast<double>(i > 3 ? i - 1 : i);
    EXPECT_GE(late[i], stalls - 1e-3 * static_cast<double>(i) - 1e-9) << i;
    const double latency = done[i] - due[i];
    EXPECT_GE(latency, late[i] + 2e-3) << i;
    // Generous slack for scheduling on a loaded machine.
    EXPECT_LT(latency, late[i] + 2e-3 + 0.25) << i;
  }
}

TEST(SelfTimes, SubtractTheUnionOfChildIntervals) {
  std::vector<Span> spans = {
      {"query", kNoParent, 0, 0, 100},  // 0
      {"bfs", 0, 0, 10, 40},            // 1
      {"score", 0, 0, 50, 95},          // 2
      {"prune", 2, 0, 50, 60},          // 3
      {"refine", 2, 0, 70, 90},         // 4
      {"inner", 4, 0, 75, 80},          // 5: grandchild of score
      {"overlap", 0, 0, 30, 45},        // 6: overlaps bfs
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  // query covers [10, 45] and [50, 95]: 35 + 45 = 80 of 100.
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 45 - 10 - 20);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 20 - 5);
  EXPECT_EQ(self[5], 5);
  EXPECT_EQ(self[6], 15);
}

TEST(SelfTimes, OfProperlyNestedSpansSumToTheRoot) {
  const std::vector<Span> spans = {{"query", kNoParent, 0, 0, 100},
                                   {"bfs", 0, 0, 5, 40},
                                   {"score", 0, 0, 40, 98},
                                   {"refine", 2, 0, 60, 90}};
  int64_t total = 0;
  for (int64_t self : SelfTimesNs(spans)) total += self;
  EXPECT_EQ(total, 100);
}

TEST(SelfTimes, ClipChildrenToTheirParent) {
  const std::vector<Span> spans = {{"parent", kNoParent, 0, 100, 200},
                                   {"child", 0, 0, 150, 260}};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 110);
}

TEST(SpanRecorder, NestsScopedSpansUnderTheirParent) {
  SpanRecorder recorder;
  {
    ScopedSpan root(&recorder, "query", kNoParent, 7);
    ScopedSpan child(&recorder, "bfs", root.id(), 7);
  }
  ScopedSpan untraced(nullptr, "ignored", kNoParent, 0);
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0u);
  EXPECT_EQ(recorder.spans()[1].query, 7u);
  EXPECT_LE(recorder.spans()[0].start_ns, recorder.spans()[1].start_ns);
  EXPECT_GE(recorder.spans()[0].end_ns, recorder.spans()[1].end_ns);
}

}  // namespace
}  // namespace perfbench
