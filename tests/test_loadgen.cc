// Load-generator coverage (src/loadgen/): workload validation, the
// Zipf popularity sampler (determinism, head extraction, skew), the
// time-varying arrival schedule (determinism, rate scaling, bursts,
// mix and priority assignment), and short end-to-end LoadGenerator
// runs against a real engine.

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "loadgen/loadgen.h"
#include "loadgen/workload.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace simrank::loadgen {
namespace {

WorkloadOptions BaseWorkload() {
  WorkloadOptions options;
  options.duration_seconds = 5.0;
  options.rate_qps = 200.0;
  return options;
}

// ------------------------------------------------------------- validation

TEST(WorkloadOptionsTest, ValidateRejectsBadValues) {
  WorkloadOptions options = BaseWorkload();
  options.rate_qps = 0.0;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);

  options = BaseWorkload();
  options.duration_seconds = -1.0;
  EXPECT_FALSE(options.Validate().ok());

  options = BaseWorkload();
  options.zipf_exponent = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(options.Validate().ok());

  options = BaseWorkload();
  options.topk_weight = options.pair_weight = options.group_weight =
      options.background_weight = 0.0;
  EXPECT_FALSE(options.Validate().ok());

  options = BaseWorkload();
  options.group_size = 1;
  EXPECT_FALSE(options.Validate().ok());

  options = BaseWorkload();
  options.bursts.push_back({.start_seconds = 1.0,
                            .duration_seconds = 1.0,
                            .rate_multiplier = 0.0});
  EXPECT_FALSE(options.Validate().ok());

  EXPECT_TRUE(BaseWorkload().Validate().ok());
}

TEST(WorkloadOptionsTest, PeakMultiplierEnvelopesBursts) {
  WorkloadOptions options = BaseWorkload();
  EXPECT_DOUBLE_EQ(options.PeakMultiplier(), 1.0);
  options.bursts.push_back({0.0, 1.0, 3.0});
  options.bursts.push_back({2.0, 1.0, 2.0});
  // Product envelope: always an upper bound on RateAt/base.
  EXPECT_DOUBLE_EQ(options.PeakMultiplier(), 6.0);
  // Sub-1x phases (rate dips) do not shrink the envelope.
  options.bursts.push_back({4.0, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(options.PeakMultiplier(), 6.0);
}

TEST(WorkloadOptionsTest, RateAtAppliesActiveBursts) {
  WorkloadOptions options = BaseWorkload();
  options.bursts.push_back({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(RateAt(options, 0.5), 200.0);
  EXPECT_DOUBLE_EQ(RateAt(options, 1.0), 600.0);   // start is inclusive
  EXPECT_DOUBLE_EQ(RateAt(options, 2.99), 600.0);
  EXPECT_DOUBLE_EQ(RateAt(options, 3.0), 200.0);   // end is exclusive
  // Overlapping bursts multiply.
  options.bursts.push_back({2.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(RateAt(options, 2.5), 1200.0);
}

// ------------------------------------------------------------ Zipf sampler

TEST(ZipfSamplerTest, DeterministicGivenTheSeed) {
  Rng rng_a(42), rng_b(42);
  ZipfSampler a(64, 0.9, 500, rng_a);
  ZipfSampler b(64, 0.9, 500, rng_b);
  EXPECT_EQ(a.Head(64), b.Head(64));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Sample(rng_a), b.Sample(rng_b));
}

TEST(ZipfSamplerTest, HeadIsDistinctInRangeAndClamped) {
  Rng rng(7);
  ZipfSampler sampler(32, 0.8, 200, rng);
  EXPECT_EQ(sampler.universe(), 32u);
  const std::vector<Vertex> head = sampler.Head(1000);  // clamped
  EXPECT_EQ(head.size(), 32u);
  std::set<Vertex> distinct(head.begin(), head.end());
  EXPECT_EQ(distinct.size(), head.size());
  for (const Vertex v : head) EXPECT_LT(v, 200u);
  EXPECT_EQ(sampler.Head(4).size(), 4u);
}

TEST(ZipfSamplerTest, UniverseZeroMeansEveryVertex) {
  Rng rng(7);
  ZipfSampler sampler(0, 0.8, 123, rng);
  EXPECT_EQ(sampler.universe(), 123u);
}

TEST(ZipfSamplerTest, SkewConcentratesMassOnTheHead) {
  Rng rng(11);
  ZipfSampler sampler(256, 1.2, 1000, rng);
  const std::vector<Vertex> head = sampler.Head(8);
  const std::set<Vertex> head_set(head.begin(), head.end());
  int in_head = 0;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    if (head_set.count(sampler.Sample(rng)) != 0) ++in_head;
  }
  // With s=1.2 the top 8 of 256 ranks carry ~45% of the mass; uniform
  // would give ~3%. A wide margin keeps the test deterministic-robust.
  EXPECT_GT(in_head, kSamples / 5);
}

// --------------------------------------------------------------- arrivals

TEST(GenerateArrivalsTest, DeterministicSortedAndInRange) {
  const WorkloadOptions options = BaseWorkload();
  Rng rng_a(9), rng_b(9);
  ZipfSampler pop_a(0, 0.8, 300, rng_a);
  ZipfSampler pop_b(0, 0.8, 300, rng_b);
  const auto a = GenerateArrivals(options, 300, pop_a, rng_a);
  const auto b = GenerateArrivals(options, 300, pop_b, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_seconds, b[i].time_seconds);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].vertices, b[i].vertices);
    EXPECT_EQ(a[i].client, b[i].client);
  }
  double last = 0.0;
  for (const Arrival& arrival : a) {
    EXPECT_GE(arrival.time_seconds, last);
    EXPECT_LT(arrival.time_seconds, options.duration_seconds);
    last = arrival.time_seconds;
    for (const Vertex v : arrival.vertices) EXPECT_LT(v, 300u);
    EXPECT_LT(arrival.client, options.num_clients);
  }
}

TEST(GenerateArrivalsTest, CountTracksTheOfferedRate) {
  WorkloadOptions options = BaseWorkload();  // 200 qps x 5s = 1000 expected
  Rng rng(13);
  ZipfSampler pop(0, 0.8, 300, rng);
  const auto arrivals = GenerateArrivals(options, 300, pop, rng);
  // Poisson(1000): +/-20% is > 6 sigma, deterministic given the seed.
  EXPECT_GT(arrivals.size(), 800u);
  EXPECT_LT(arrivals.size(), 1200u);
}

TEST(GenerateArrivalsTest, BurstPhaseMultipliesTheLocalRate) {
  WorkloadOptions options = BaseWorkload();
  options.bursts.push_back({2.0, 1.0, 4.0});  // 4x during [2, 3)
  Rng rng(17);
  ZipfSampler pop(0, 0.8, 300, rng);
  const auto arrivals = GenerateArrivals(options, 300, pop, rng);
  size_t in_burst = 0, in_control = 0;
  for (const Arrival& arrival : arrivals) {
    if (arrival.time_seconds >= 2.0 && arrival.time_seconds < 3.0) ++in_burst;
    if (arrival.time_seconds >= 0.0 && arrival.time_seconds < 1.0) {
      ++in_control;
    }
  }
  // Expected 800 vs 200; even with Poisson noise the burst second must
  // carry at least twice the control second.
  EXPECT_GT(in_burst, 2 * in_control);
}

TEST(GenerateArrivalsTest, MixShapesKindsAndPriorities) {
  WorkloadOptions options = BaseWorkload();
  options.pair_weight = 0.2;
  options.group_weight = 0.2;
  options.background_weight = 0.2;
  options.group_size = 5;
  Rng rng(21);
  ZipfSampler pop(0, 0.8, 300, rng);
  const auto arrivals = GenerateArrivals(options, 300, pop, rng);
  size_t counts[kNumTrafficKinds] = {};
  for (const Arrival& arrival : arrivals) {
    ++counts[static_cast<size_t>(arrival.kind)];
    switch (arrival.kind) {
      case TrafficKind::kTopK:
        EXPECT_EQ(arrival.vertices.size(), 1u);
        EXPECT_EQ(arrival.priority, service::PriorityClass::kInteractive);
        break;
      case TrafficKind::kPair:
      case TrafficKind::kGroup: {
        const size_t want =
            arrival.kind == TrafficKind::kPair ? 2u : 5u;
        EXPECT_EQ(arrival.vertices.size(), want);
        std::set<Vertex> distinct(arrival.vertices.begin(),
                                  arrival.vertices.end());
        EXPECT_EQ(distinct.size(), want);  // members are distinct
        EXPECT_EQ(arrival.priority, service::PriorityClass::kInteractive);
        break;
      }
      case TrafficKind::kBackground:
        EXPECT_EQ(arrival.vertices.size(), 1u);
        EXPECT_EQ(arrival.priority, service::PriorityClass::kBatch);
        break;
    }
  }
  // Every configured kind occurs.
  for (const size_t count : counts) EXPECT_GT(count, 0u);
}

TEST(GenerateArrivalsTest, SingleKindMixGeneratesOnlyThatKind) {
  WorkloadOptions options = BaseWorkload();
  options.topk_weight = 0.0;
  options.pair_weight = 0.0;
  options.group_weight = 0.0;
  options.background_weight = 1.0;
  Rng rng(23);
  ZipfSampler pop(0, 0.8, 50, rng);
  for (const Arrival& arrival : GenerateArrivals(options, 50, pop, rng)) {
    EXPECT_EQ(arrival.kind, TrafficKind::kBackground);
    EXPECT_EQ(arrival.priority, service::PriorityClass::kBatch);
  }
}

TEST(GenerateArrivalsTest, TinyUniverseGroupsStillTerminate) {
  WorkloadOptions options = BaseWorkload();
  options.duration_seconds = 1.0;
  options.topk_weight = 0.0;
  options.pair_weight = 0.0;
  options.group_weight = 1.0;
  options.background_weight = 0.0;
  options.group_size = 4;
  options.popularity_universe = 2;  // < group_size: fallback path
  Rng rng(29);
  ZipfSampler pop(2, 0.8, 100, rng);
  const auto arrivals = GenerateArrivals(options, 100, pop, rng);
  ASSERT_FALSE(arrivals.empty());
  for (const Arrival& arrival : arrivals) {
    EXPECT_EQ(arrival.vertices.size(), 4u);
  }
}

// ------------------------------------------------------------- end to end

TEST(LoadGeneratorTest, ShortRunReportsAllTraffic) {
  const DirectedGraph graph = simrank::testing::SmallRandomGraph(120, 540, 31);
  service::EngineOptions engine_options;
  engine_options.search.k = 8;
  engine_options.search.threshold = 0.01;
  engine_options.search.seed = 20260808;
  engine_options.num_threads = 2;
  engine_options.admission.interactive_queue_limit = 256;
  engine_options.admission.batch_queue_limit = 64;
  auto engine = service::QueryEngine::Create(graph, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  LoadGenOptions options;
  options.workload.duration_seconds = 1.0;
  options.workload.rate_qps = 60.0;
  options.seed = 5;
  options.prewarm = 16;

  LoadGenerator generator(**engine, options);
  auto report = generator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->arrivals, 0u);
  EXPECT_EQ(report->arrivals,
            report->interactive.sent + report->batch.sent);
  EXPECT_GT(report->interactive.completed, 0u);
  EXPECT_GE(report->wall_seconds, options.workload.duration_seconds * 0.9);
  EXPECT_GT(report->achieved_qps, 0.0);
  // Prewarming the popularity head means some arrivals hit the cache.
  EXPECT_GT(report->interactive.cache_hits +
                report->batch.cache_hits,
            0u);
  // Nothing was shed or rejected at this gentle rate.
  EXPECT_EQ(report->interactive.shed, 0u);
  EXPECT_EQ(report->interactive.rejected, 0u);
  // Percentiles are ordered.
  EXPECT_LE(report->interactive.p50_seconds, report->interactive.p99_seconds);
  EXPECT_LE(report->interactive.p99_seconds, report->interactive.max_seconds);
}

TEST(LoadGeneratorTest, PercentilesRankAnsweredRequestsOnly) {
  // One worker and no cache: by the time a worker starts an interactive
  // request its 1 ns deadline has passed, so none is answered. Each is
  // counted as a deadline, but its engine time is no latency.
  const DirectedGraph graph = simrank::testing::SmallRandomGraph(120, 540, 31);
  service::EngineOptions engine_options;
  engine_options.search.k = 8;
  engine_options.num_threads = 1;
  engine_options.cache_capacity = 0;
  auto engine = service::QueryEngine::Create(graph, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  LoadGenOptions options;
  options.workload.duration_seconds = 0.5;
  options.workload.rate_qps = 200.0;
  options.seed = 9;
  options.interactive_deadline_seconds = 1e-9;
  LoadGenerator generator(**engine, options);
  auto report = generator.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ClassReport& interactive = report->interactive;
  ASSERT_GT(interactive.sent, 0u);
  EXPECT_EQ(interactive.deadline, interactive.sent);
  EXPECT_EQ(interactive.completed, 0u);
  EXPECT_EQ(interactive.p50_seconds, 0.0);
  EXPECT_EQ(interactive.p99_seconds, 0.0);
  EXPECT_EQ(interactive.p999_seconds, 0.0);
  EXPECT_EQ(interactive.max_seconds, 0.0);
  // Batch requests carry no deadline: they are answered and ranked.
  ASSERT_GT(report->batch.sent, 0u);
  EXPECT_EQ(report->batch.completed, report->batch.sent);
  EXPECT_GT(report->batch.max_seconds, 0.0);
}

TEST(LoadGeneratorTest, RejectsInvalidOptions) {
  const DirectedGraph graph = simrank::testing::SmallRandomGraph(50, 200, 3);
  service::EngineOptions engine_options;
  engine_options.search.k = 4;
  engine_options.num_threads = 1;
  auto engine = service::QueryEngine::Create(graph, engine_options);
  ASSERT_TRUE(engine.ok());
  LoadGenOptions options;
  options.workload.rate_qps = 0.0;
  LoadGenerator generator(**engine, options);
  auto report = generator.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simrank::loadgen
