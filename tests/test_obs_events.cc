// Tests for the per-query event telemetry layer: the flight recorder
// (obs::EventLog), rolling SLO windows (obs::RollingWindow), the
// slow-query log (obs::SlowQueryLog), engine integration (walks and phase
// timings per event), the "simrank-events-v2" exporter, and crash-time
// postmortem dumps.
//
// Concurrency coverage: the writer/snapshotter stress tests here are the
// ones the tsan preset leans on (see docs/OBSERVABILITY.md).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_test_util.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/rolling.h"
#include "obs/slow_log.h"
#include "service/query_engine.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace simrank {
namespace {

using obs::EventLog;
using obs::QueryEvent;
using obs::QueryEventMode;
using obs::RollingWindow;
using obs::SloSpec;
using obs::SlowQueryLog;
using obs::SlowQueryRecord;
using obs::WindowSnapshot;
using testjson::JsonValue;
using testjson::ParseOrFail;

QueryEvent MakeEvent(uint64_t duration_ns, uint8_t flags = 0,
                     uint8_t status = 0) {
  QueryEvent event;
  event.start_ns = 1'000'000'000;
  event.duration_ns = duration_ns;
  event.vertex = 7;
  event.k = 10;
  event.flags = flags;
  event.status = status;
  return event;
}

// --- EventLog ---------------------------------------------------------------

TEST(EventLogTest, RecordAssignsIncreasingIds) {
  EventLog log(64);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(log.Record(MakeEvent(100)), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(log.TotalRecorded(), 10u);
  std::vector<QueryEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].query_id, i + 1);
  }
}

TEST(EventLogTest, OneThreadKeepsTheLastCapacityEvents) {
  EventLog log(8);
  EXPECT_EQ(log.capacity(), 8u);
  for (int i = 0; i < 16; ++i) log.Record(MakeEvent(100 + i));
  EXPECT_EQ(log.TotalRecorded(), 16u);
  std::vector<QueryEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The 8 newest records (ids 9..16), oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].query_id, 9 + i);
    EXPECT_EQ(events[i].duration_ns, 100 + 8 + i);
  }
}

TEST(EventLogTest, CapacityIsClampedToOne) {
  EventLog log(0);
  EXPECT_EQ(log.capacity(), 1u);
  log.Record(MakeEvent(1));
  log.Record(MakeEvent(2));
  const std::vector<QueryEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].query_id, 2u);
}

// The last capacity() events, ids first - capacity() + 1 .. last in order.
void ExpectLastEvents(const EventLog& log, uint64_t last) {
  const std::vector<QueryEvent> events = log.Snapshot();
  ASSERT_EQ(events.size(), log.capacity());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].query_id, last - log.capacity() + 1 + i);
  }
}

TEST(EventLogTest, FourThreadsKeepTheLastCapacityEvents) {
  EventLog log(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < 50; ++i) log.Record(MakeEvent(100));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(log.TotalRecorded(), 200u);
  ExpectLastEvents(log, 200);
}

TEST(EventLogTest, KillSwitchesDisableRecording) {
  EventLog log(16);

  obs::SetEnabled(false);
  EXPECT_EQ(log.Record(MakeEvent(1)), 0u);
  obs::SetEnabled(true);

  EXPECT_EQ(log.TotalRecorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_NE(log.Record(MakeEvent(1)), 0u);
}

TEST(EventLogTest, ClearRestartsSequence) {
  EventLog log(16);
  log.Record(MakeEvent(1));
  log.Record(MakeEvent(2));
  log.Clear();
  EXPECT_EQ(log.TotalRecorded(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  EXPECT_EQ(log.Record(MakeEvent(3)), 1u);
}

TEST(EventLogStressTest, ConcurrentWritersAndSnapshotters) {
  // TSan target: writers race Record against Snapshot readers; asserts
  // the view is always id-sorted and within capacity.
  EventLog log(256);
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 5000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerWriter; ++i) {
        EXPECT_NE(log.Record(MakeEvent(static_cast<uint64_t>(i))), 0u);
      }
    });
  }
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&log, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<QueryEvent> events = log.Snapshot();
        EXPECT_LE(events.size(), log.capacity());
        for (size_t i = 1; i < events.size(); ++i) {
          EXPECT_LT(events[i - 1].query_id, events[i].query_id);
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  EXPECT_EQ(log.TotalRecorded(),
            static_cast<uint64_t>(kWriters) * kPerWriter);
  ExpectLastEvents(log, static_cast<uint64_t>(kWriters) * kPerWriter);
}

// --- RollingWindow ----------------------------------------------------------

TEST(RollingWindowTest, AggregatesInWindowBuckets) {
  RollingWindow window(4, 1);
  window.Record(100, 1'000'000, 0, 0);
  window.Record(101, 2'000'000, obs::kEventCacheHit, 0);
  window.Record(102, 3'000'000, obs::kEventShed | obs::kEventDegraded, 0);
  window.Record(103, 4'000'000, 0, 3);  // kIoError => error

  WindowSnapshot snapshot = window.Snapshot(103);
  EXPECT_EQ(snapshot.count, 4u);
  EXPECT_EQ(snapshot.errors, 1u);
  EXPECT_EQ(snapshot.shed, 1u);
  EXPECT_EQ(snapshot.degraded, 1u);
  EXPECT_EQ(snapshot.cache_hits, 1u);
  EXPECT_EQ(snapshot.latency_max_ns, 4'000'000u);
  EXPECT_EQ(snapshot.latency_sum_ns, 10'000'000u);
  ASSERT_EQ(snapshot.buckets.size(), 4u);
  EXPECT_EQ(snapshot.buckets.front().second, 100u);
  EXPECT_EQ(snapshot.buckets.back().second, 103u);
  // Log-linear buckets quantize to ~12.5%; the representative halves that.
  EXPECT_NEAR(snapshot.latency_p50_ns, 2'000'000.0, 2'000'000.0 * 0.15);
  EXPECT_NEAR(snapshot.latency_p99_ns, 4'000'000.0, 4'000'000.0 * 0.15);
}

TEST(RollingWindowTest, OldBucketsAgeOut) {
  RollingWindow window(4, 1);
  for (uint64_t second = 100; second <= 104; ++second) {
    window.Record(second, 1'000'000, 0, 0);
  }
  // Second 104 reuses the bucket of second 100; only 101..104 remain.
  WindowSnapshot snapshot = window.Snapshot(104);
  EXPECT_EQ(snapshot.count, 4u);
  ASSERT_EQ(snapshot.buckets.size(), 4u);
  EXPECT_EQ(snapshot.buckets.front().second, 101u);

  // Advancing the clock far past the span empties the window.
  EXPECT_EQ(window.Snapshot(1000).count, 0u);
}

TEST(RollingWindowTest, LatencySloViolationFlipsGauge) {
  RollingWindow window(4, 1);
  SloSpec spec;
  spec.name = "test_ev_p99";
  spec.objective = SloSpec::Objective::kLatencyP99;
  spec.threshold = 0.001;  // 1 ms
  ASSERT_TRUE(window.SetSlos({spec}).ok());

  window.Record(200, 2'000'000, 0, 0);  // 2 ms > 1 ms threshold
  WindowSnapshot snapshot = window.Snapshot(200);
  ASSERT_EQ(snapshot.slos.size(), 1u);
  EXPECT_FALSE(snapshot.slos[0].ok);
  EXPECT_EQ(snapshot.slos[0].samples, 1u);
  EXPECT_NEAR(snapshot.slos[0].value, 0.002, 0.002 * 0.15);

  obs::MetricsSnapshot metrics = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(metrics.gauges.count("service.slo.test_ev_p99.ok"));
  EXPECT_EQ(metrics.gauges["service.slo.test_ev_p99.ok"], 0);
  const int64_t value_us = metrics.gauges["service.slo.test_ev_p99.value_us"];
  EXPECT_NEAR(static_cast<double>(value_us), 2000.0, 2000.0 * 0.15);
}

TEST(RollingWindowTest, RateSlosAndVacuousOk) {
  RollingWindow window(4, 1);
  SloSpec errors;
  errors.name = "test_ev_errors";
  errors.objective = SloSpec::Objective::kErrorRate;
  errors.threshold = 0.10;
  ASSERT_TRUE(window.SetSlos({errors}).ok());

  // Empty window: vacuously ok.
  WindowSnapshot empty = window.Snapshot(300);
  ASSERT_EQ(empty.slos.size(), 1u);
  EXPECT_TRUE(empty.slos[0].ok);
  EXPECT_EQ(empty.slos[0].samples, 0u);

  // 1 error in 4 => 25% > 10%.
  window.Record(300, 1000, 0, 0);
  window.Record(300, 1000, 0, 0);
  window.Record(300, 1000, 0, 0);
  window.Record(300, 1000, 0, 3);
  WindowSnapshot snapshot = window.Snapshot(300);
  EXPECT_FALSE(snapshot.slos[0].ok);
  EXPECT_DOUBLE_EQ(snapshot.slos[0].value, 0.25);

  obs::MetricsSnapshot metrics = obs::MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(metrics.gauges["service.slo.test_ev_errors.ok"], 0);
  EXPECT_EQ(metrics.gauges["service.slo.test_ev_errors.value_ppm"], 250000);
}

TEST(RollingWindowTest, SetSlosRejectsBadSpecs) {
  RollingWindow window(4, 1);
  SloSpec good;
  good.name = "test_ev_good";
  good.threshold = 0.5;
  ASSERT_TRUE(window.SetSlos({good}).ok());

  const auto rejected = [&window](std::string name, double threshold) {
    SloSpec spec;
    spec.name = std::move(name);
    spec.threshold = threshold;
    return window.SetSlos({spec}).code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(rejected("", 0.5));
  EXPECT_TRUE(rejected("Bad Name", 0.5));  // not [a-z0-9_]+
  EXPECT_TRUE(rejected("p99.tail", 0.5));
  EXPECT_TRUE(rejected("test_ev_bad", -0.1));
  EXPECT_TRUE(rejected("test_ev_bad", std::nan("")));
  EXPECT_TRUE(rejected("test_ev_bad", HUGE_VAL));
  // A refused set changes nothing.
  const std::vector<SloSpec> kept = window.slos();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].name, "test_ev_good");
}

TEST(RollingWindowTest, KillSwitchDisablesRecording) {
  RollingWindow window(4, 1);
  obs::SetEnabled(false);
  window.Record(400, 1000, 0, 0);
  obs::SetEnabled(true);
  EXPECT_EQ(window.Snapshot(400).count, 0u);
}

TEST(RollingWindowStressTest, ConcurrentRecordAndSnapshot) {
  RollingWindow window(8, 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&window, w] {
      for (int i = 0; i < 5000; ++i) {
        window.Record(500 + static_cast<uint64_t>(i % 4),
                      static_cast<uint64_t>(1000 + i),
                      i % 8 == 0 ? obs::kEventCacheHit : 0,
                      i % 16 == 0 ? 3 : 0);
      }
      (void)w;
    });
  }
  threads.emplace_back([&window, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      WindowSnapshot snapshot = window.Snapshot(503);
      EXPECT_LE(snapshot.errors, snapshot.count);
      EXPECT_LE(snapshot.cache_hits, snapshot.count);
    }
  });
  for (int w = 0; w < 4; ++w) threads[w].join();
  stop.store(true, std::memory_order_relaxed);
  threads.back().join();

  EXPECT_EQ(window.Snapshot(503).count, 4u * 5000u);
}

// --- SlowQueryLog -----------------------------------------------------------

SlowQueryRecord MakeSlowRecord(uint64_t duration_ns) {
  SlowQueryRecord record;
  record.event = MakeEvent(duration_ns);
  record.vertices = {7};
  return record;
}

TEST(SlowQueryLogTest, RetainsTopNSlowest) {
  SlowQueryLog log(4);
  ASSERT_TRUE(log.Configure(1e-6, 2).ok());
  EXPECT_EQ(log.threshold_ns(), 1000u);
  EXPECT_EQ(log.capacity(), 2u);

  EXPECT_FALSE(log.Offer(MakeSlowRecord(500)));   // under threshold
  EXPECT_TRUE(log.Offer(MakeSlowRecord(2000)));
  EXPECT_TRUE(log.Offer(MakeSlowRecord(1500)));
  EXPECT_TRUE(log.Offer(MakeSlowRecord(3000)));   // evicts 1500
  EXPECT_FALSE(log.Offer(MakeSlowRecord(1200)));  // fastest retained is 2000

  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event.duration_ns, 3000u);
  EXPECT_EQ(records[1].event.duration_ns, 2000u);
}

TEST(SlowQueryLogTest, DisarmedAndKillSwitchedLogRejects) {
  SlowQueryLog log(4);
  EXPECT_FALSE(log.armed());  // threshold defaults to 0
  EXPECT_FALSE(log.Offer(MakeSlowRecord(1'000'000)));

  ASSERT_TRUE(log.Configure(1e-6, 4).ok());
  EXPECT_TRUE(log.armed());
  obs::SetEnabled(false);
  EXPECT_FALSE(log.armed());
  EXPECT_FALSE(log.Offer(MakeSlowRecord(1'000'000)));
  obs::SetEnabled(true);
  EXPECT_TRUE(log.Offer(MakeSlowRecord(1'000'000)));
  EXPECT_EQ(log.size(), 1u);
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
}

TEST(SlowQueryLogTest, ShrinkingCapacityKeepsSlowest) {
  SlowQueryLog log(8);
  ASSERT_TRUE(log.Configure(1e-9, 8).ok());
  for (uint64_t d = 100; d <= 800; d += 100) {
    EXPECT_TRUE(log.Offer(MakeSlowRecord(d)));
  }
  ASSERT_TRUE(log.Configure(1e-9, 2).ok());
  std::vector<SlowQueryRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].event.duration_ns, 800u);
  EXPECT_EQ(records[1].event.duration_ns, 700u);
}

TEST(SlowQueryLogTest, ConfigureTakesSecondsAndRejectsBadThresholds) {
  SlowQueryLog log(4);
  ASSERT_TRUE(log.Configure(0.25, 3).ok());
  EXPECT_EQ(log.threshold_ns(), 250'000'000u);
  // Below 1 ns arms at 1 ns instead of truncating to the disarming 0.
  ASSERT_TRUE(log.Configure(1e-12, 3).ok());
  EXPECT_EQ(log.threshold_ns(), 1u);
  EXPECT_TRUE(log.armed());

  for (const double bad : {-1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_EQ(log.Configure(bad, 5).code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(log.threshold_ns(), 1u);  // a refused threshold changes nothing
  EXPECT_EQ(log.capacity(), 3u);

  ASSERT_TRUE(log.Configure(0.0, 3).ok());
  EXPECT_FALSE(log.armed());
}

// --- Engine integration -----------------------------------------------------

class EngineEventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EventLog::Default().Clear();
    ResetSinks();
    SlowQueryLog::Default().Clear();
    RollingWindow::Default().Clear();
  }
  void TearDown() override { ResetSinks(); }

  // The sinks' configuration is the process's: each test starts from and
  // leaves the defaults (disarmed slow log, no SLOs).
  static void ResetSinks() {
    EXPECT_TRUE(SlowQueryLog::Default()
                    .Configure(0.0, SlowQueryLog::kDefaultCapacity)
                    .ok());
    EXPECT_TRUE(RollingWindow::Default().SetSlos({}).ok());
  }
};

service::EngineOptions SmallEngineOptions() {
  service::EngineOptions options;
  options.num_threads = 2;
  options.search.profile_walks = 64;
  options.search.estimate_walks = 8;
  options.search.refine_walks = 32;
  return options;
}

// The recorded event of `query_id`.
QueryEvent EventOf(uint64_t query_id) {
  for (const QueryEvent& event : EventLog::Default().Snapshot()) {
    if (event.query_id == query_id) return event;
  }
  ADD_FAILURE() << "no event " << query_id;
  return {};
}

void ExpectPhasesEqual(const obs::PhaseTimes& actual,
                       const obs::PhaseTimes& expected) {
  for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
    EXPECT_EQ(actual.ns[i], expected.ns[i]) << obs::kQueryPhaseNames[i];
  }
}

// Answers every vertex with fixed stats derived from its id, so the sums
// the engine forms over group members are exact.
class FixedStatsBackend : public SearcherBackend {
 public:
  explicit FixedStatsBackend(const DirectedGraph& graph) : graph_(graph) {}

  static QueryStats StatsOf(Vertex v) {
    QueryStats stats;
    stats.walks = 100 + v;
    for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
      stats.phases.ns[i] = (v + 1) * (i + 1);
    }
    return stats;
  }

  BackendKind kind() const override { return BackendKind::kExact; }
  void Build(ThreadPool*) override {}
  bool built() const override { return true; }
  double preprocess_seconds() const override { return 0.0; }
  uint64_t MemoryBytes() const override { return 0; }
  QueryResult Query(Vertex query, const QueryOverrides&) const override {
    QueryResult result;
    result.stats = StatsOf(query);
    return result;
  }
  const DirectedGraph& graph() const override { return graph_; }
  const SearchOptions& options() const override { return options_; }

 private:
  const DirectedGraph& graph_;
  SearchOptions options_;
};

TEST_F(EngineEventsTest, QueryRecordsVertexEvent) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 901, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  auto response =
      (*engine)->Query(service::QueryRequest::ForVertex(5).WithK(8));
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response->query_id, 0u);

  std::vector<QueryEvent> events = EventLog::Default().Snapshot();
  ASSERT_FALSE(events.empty());
  const QueryEvent& event = events.back();
  EXPECT_EQ(event.query_id, response->query_id);
  EXPECT_EQ(event.mode, QueryEventMode::kVertex);
  EXPECT_EQ(event.vertex, 5u);
  EXPECT_EQ(event.k, 8u);
  EXPECT_EQ(event.group_size, 1u);
  EXPECT_EQ(event.status, 0u);
  EXPECT_GT(event.walks, 0u);
  EXPECT_EQ(event.walks, response->stats.walks);
  EXPECT_GT(event.duration_ns, 0u);
  // One start and one end read time the request, so the event and the
  // response report the same nanoseconds.
  EXPECT_EQ(static_cast<double>(event.duration_ns) / 1e9,
            response->engine_seconds);
  EXPECT_EQ(event.queue_wait_ns, 0u);  // synchronous path never queued
  EXPECT_EQ(event.flags & obs::kEventSubmitted, 0);
  EXPECT_EQ(event.flags & obs::kEventCacheHit, 0);
  // The backend's phases, each MC phase run, within the engine's time.
  ExpectPhasesEqual(event.phases, response->stats.phases);
  for (obs::QueryPhase phase :
       {obs::QueryPhase::kBfs, obs::QueryPhase::kL1, obs::QueryPhase::kProfile,
        obs::QueryPhase::kCandidates}) {
    EXPECT_GT(event.phases[phase], 0u)
        << obs::kQueryPhaseNames[static_cast<size_t>(phase)];
  }
  EXPECT_LE(event.phases.Sum(), event.duration_ns);
}

TEST_F(EngineEventsTest, CacheHitEventHasZeroWalks) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 902, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  auto first = (*engine)->Query(service::QueryRequest::ForVertex(3));
  ASSERT_TRUE(first.ok());
  auto second = (*engine)->Query(service::QueryRequest::ForVertex(3));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);

  std::vector<QueryEvent> events = EventLog::Default().Snapshot();
  ASSERT_GE(events.size(), 2u);
  const QueryEvent& hit = events.back();
  EXPECT_EQ(hit.query_id, second->query_id);
  EXPECT_NE(hit.flags & obs::kEventCacheHit, 0);
  EXPECT_EQ(hit.walks, 0u);
  EXPECT_EQ(hit.phases.Sum(), 0u);
  // The response agrees: the cache keeps the ranking alone.
  EXPECT_GT(first->stats.walks, 0u);
  EXPECT_EQ(second->stats.walks, 0u);
}

TEST_F(EngineEventsTest, ExpiredVertexRequestRecordsZeroWalks) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 910, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  service::QueryRequest request = service::QueryRequest::ForVertex(3);
  request.deadline = service::EngineClock::now() - std::chrono::seconds(1);
  auto response = (*engine)->Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);

  const QueryEvent event = EventOf(response->query_id);
  EXPECT_EQ(event.walks, 0u);  // nothing ran
  EXPECT_EQ(event.phases.Sum(), 0u);
}

TEST_F(EngineEventsTest, ExpiredGroupRequestRecordsZeroWalks) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 911, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  service::QueryRequest request = service::QueryRequest::ForGroup({2, 5, 9});
  request.deadline = service::EngineClock::now() - std::chrono::seconds(1);
  auto response = (*engine)->Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);

  const QueryEvent event = EventOf(response->query_id);
  EXPECT_EQ(event.group_size, 3u);
  EXPECT_EQ(event.walks, 0u);  // no member ran
  EXPECT_EQ(event.phases.Sum(), 0u);
}

TEST_F(EngineEventsTest, GroupEventSumsItsMembersPhasesAndWalks) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 912, 40);
  service::EngineOptions options;
  options.num_threads = 1;
  auto engine = service::QueryEngine::AdoptBackend(
      std::make_unique<FixedStatsBackend>(graph), options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  auto response =
      (*engine)->Query(service::QueryRequest::ForGroup({1, 2, 5}));
  ASSERT_TRUE(response.ok());
  QueryStats expected = FixedStatsBackend::StatsOf(1);
  expected += FixedStatsBackend::StatsOf(2);
  expected += FixedStatsBackend::StatsOf(5);
  EXPECT_EQ(response->stats.walks, expected.walks);
  ExpectPhasesEqual(response->stats.phases, expected.phases);

  const QueryEvent event = EventOf(response->query_id);
  EXPECT_EQ(event.walks, expected.walks);
  ExpectPhasesEqual(event.phases, expected.phases);
}

TEST_F(EngineEventsTest, GroupWalksAreTheMembersWalks) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 913, 40);
  const service::EngineOptions options = SmallEngineOptions();
  auto engine = service::QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());

  auto response = (*engine)->Query(
      service::QueryRequest::ForGroup({2, 11, 17}).WithBypassCache());
  ASSERT_TRUE(response.ok());
  // Each member draws from its own seeded stream, so its walk count does
  // not depend on how it was run.
  const TopKSearcher& searcher = (*engine)->searcher();
  uint64_t member_walks = 0;
  for (Vertex v : {2u, 11u, 17u}) member_walks += searcher.Query(v).stats.walks;
  EXPECT_EQ(response->stats.walks, member_walks);
  EXPECT_EQ(EventOf(response->query_id).walks, member_walks);
}

TEST_F(EngineEventsTest, DegradedEventRecordsTheWalksItDrew) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 914, 40);
  service::EngineOptions options = SmallEngineOptions();
  options.num_threads = 1;
  options.admission.degrade_watermark = 1;
  auto engine = service::QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());

  std::vector<service::QueryRequest> requests;
  for (Vertex v = 0; v < 16; ++v) {
    requests.push_back(service::QueryRequest::ForVertex(v));
  }
  size_t degraded = 0;
  for (const auto& response : (*engine)->SubmitBatch(requests)) {
    ASSERT_TRUE(response.ok());
    if (!response->degraded) continue;
    ++degraded;
    // Degraded queries refine with the rough sample count.
    const QueryStats& stats = response->stats;
    EXPECT_EQ(stats.walks, options.search.profile_walks +
                               (stats.rough_estimates + stats.refined) *
                                   options.search.estimate_walks);
    const QueryEvent event = EventOf(response->query_id);
    EXPECT_NE(event.flags & obs::kEventDegraded, 0);
    EXPECT_EQ(event.walks, stats.walks);
  }
  EXPECT_GE(degraded, 1u);
}

TEST_F(EngineEventsTest, SubmittedEventCarriesQueueWait) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 903, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  auto future = (*engine)->Submit(
      service::QueryRequest::ForVertex(9).WithBypassCache());
  ASSERT_TRUE(future.ok());
  auto response = future->get();
  ASSERT_TRUE(response.ok());

  std::vector<QueryEvent> events = EventLog::Default().Snapshot();
  ASSERT_FALSE(events.empty());
  const QueryEvent& event = events.back();
  EXPECT_NE(event.flags & obs::kEventSubmitted, 0);
  // queue_wait_ns and response.queue_seconds are the same enqueue ->
  // start clock reads.
  EXPECT_EQ(static_cast<double>(event.queue_wait_ns) / 1e9,
            response->queue_seconds);
}

TEST_F(EngineEventsTest, GroupEventRecordsGroupSize) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 904, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  auto response =
      (*engine)->Query(service::QueryRequest::ForGroup({2, 11, 17}));
  ASSERT_TRUE(response.ok());

  std::vector<QueryEvent> events = EventLog::Default().Snapshot();
  ASSERT_FALSE(events.empty());
  const QueryEvent& event = events.back();
  EXPECT_EQ(event.mode, QueryEventMode::kGroup);
  EXPECT_EQ(event.group_size, 3u);
  EXPECT_EQ(event.vertex, 2u);
}

TEST_F(EngineEventsTest, RecordEventsOffDisablesRecording) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 905, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  obs::SetEnabled(false);
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(1));
  obs::SetEnabled(true);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->query_id, 0u);
  EXPECT_TRUE(EventLog::Default().Snapshot().empty());
}

TEST_F(EngineEventsTest, SlowLogRecordsCarryPhases) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 906, 40);
  // Everything is slow.
  ASSERT_TRUE(SlowQueryLog::Default().Configure(1e-12, 4).ok());
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  auto response = (*engine)->Query(
      service::QueryRequest::ForVertex(4).WithBypassCache());
  ASSERT_TRUE(response.ok());

  std::vector<SlowQueryRecord> records = SlowQueryLog::Default().Snapshot();
  ASSERT_FALSE(records.empty());
  const SlowQueryRecord& record = records.front();
  EXPECT_EQ(record.vertices, std::vector<uint32_t>{4});
  EXPECT_EQ(record.event.query_id, response->query_id);
  ExpectPhasesEqual(record.event.phases, response->stats.phases);
  EXPECT_GT(record.event.phases[obs::QueryPhase::kBfs], 0u);
  EXPECT_GT(record.event.phases[obs::QueryPhase::kProfile], 0u);
  EXPECT_GT(record.event.phases[obs::QueryPhase::kCandidates], 0u);
}

TEST_F(EngineEventsTest, SloSpecsPublishServiceGauges) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 907, 40);
  SloSpec spec;
  spec.name = "test_engine_p99";
  spec.objective = SloSpec::Objective::kLatencyP99;
  spec.threshold = 10.0;  // generous: queries finish well under 10 s
  ASSERT_TRUE(RollingWindow::Default().SetSlos({spec}).ok());
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  ASSERT_TRUE((*engine)->Query(service::QueryRequest::ForVertex(6)).ok());
  RollingWindow::Default().UpdateGauges(RollingWindow::NowSecond());

  obs::MetricsSnapshot metrics = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_TRUE(metrics.gauges.count("service.slo.test_engine_p99.ok"));
  EXPECT_EQ(metrics.gauges["service.slo.test_engine_p99.ok"], 1);
}

TEST_F(EngineEventsTest, EnginesLeaveTheSinksAsTheProcessSetThem) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 908, 40);
  SloSpec spec;
  spec.name = "test_engine_owner";
  spec.threshold = 10.0;
  // Armed with an SLO, then disarmed with none: building, serving and
  // destroying an engine changes neither configuration.
  for (const bool armed : {true, false}) {
    SCOPED_TRACE(armed);
    ASSERT_TRUE(SlowQueryLog::Default().Configure(armed ? 0.5 : 0.0, 3).ok());
    ASSERT_TRUE(RollingWindow::Default()
                    .SetSlos(armed ? std::vector<SloSpec>{spec}
                                   : std::vector<SloSpec>{})
                    .ok());
    {
      auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
      ASSERT_TRUE(engine.ok());
      ASSERT_TRUE((*engine)->Query(service::QueryRequest::ForVertex(6)).ok());
    }
    EXPECT_EQ(SlowQueryLog::Default().threshold_ns(),
              armed ? 500'000'000u : 0u);
    EXPECT_EQ(SlowQueryLog::Default().capacity(), 3u);
    EXPECT_EQ(RollingWindow::Default().slos().size(), armed ? 1u : 0u);
  }
}

// --- Request lifecycle: one accounting step per request -------------------

// The process-wide sinks one request is accounted into, read before and
// after it.
struct Accounting {
  uint64_t requests = 0, shed = 0, deadline_exceeded = 0, degraded = 0;
  uint64_t class_requests = 0, class_shed = 0, class_degraded = 0;
  uint64_t backend_requests = 0, latency_samples = 0;
  uint64_t class_latency_samples = 0, events = 0;

  static Accounting Read(service::PriorityClass priority) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    const std::string cls = std::string("service.class.") +
                            service::PriorityClassName(priority) + ".";
    Accounting a;
    a.requests = registry.GetCounter("service.requests").Value();
    a.shed = registry.GetCounter("service.shed").Value();
    a.deadline_exceeded =
        registry.GetCounter("service.deadline_exceeded").Value();
    a.degraded = registry.GetCounter("service.degraded").Value();
    a.class_requests = registry.GetCounter(cls + "requests").Value();
    a.class_shed = registry.GetCounter(cls + "shed").Value();
    a.class_degraded = registry.GetCounter(cls + "degraded").Value();
    a.backend_requests =
        registry.GetCounter("service.backend.mc.requests").Value();
    a.latency_samples = registry.GetHistogram("service.latency_ns").Count();
    a.class_latency_samples =
        registry.GetHistogram(cls + "latency_ns").Count();
    a.events = EventLog::Default().TotalRecorded();
    return a;
  }
};

TEST_F(EngineEventsTest, ShedRequestsGiveNoLatencySample) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 917, 40);
  service::EngineOptions options = SmallEngineOptions();
  options.admission.client_rate = 1.0;
  options.admission.client_burst = 1.0;
  auto engine = service::QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());

  // One answered request, then three the client's empty bucket sheds.
  const Accounting before =
      Accounting::Read(service::PriorityClass::kInteractive);
  auto answered = (*engine)->Query(
      service::QueryRequest::ForVertex(3).WithClientId("greedy"));
  ASSERT_TRUE(answered.ok());
  ASSERT_TRUE(answered->status.ok());
  for (Vertex v = 4; v < 7; ++v) {
    auto shed = (*engine)->Query(
        service::QueryRequest::ForVertex(v).WithClientId("greedy"));
    ASSERT_TRUE(shed.ok());
    ASSERT_EQ(shed->decision, service::AdmissionDecision::kShedRateLimited);
  }
  const Accounting after =
      Accounting::Read(service::PriorityClass::kInteractive);
  EXPECT_EQ(after.requests - before.requests, 4u);
  EXPECT_EQ(after.shed - before.shed, 3u);
  EXPECT_EQ(after.latency_samples - before.latency_samples, 1u);

  // The window counts the shed requests but ranks latency over the one
  // answered request: its p50 is that request's latency, not 0.
  const uint64_t duration_ns = EventOf(answered->query_id).duration_ns;
  const WindowSnapshot window =
      RollingWindow::Default().Snapshot(RollingWindow::NowSecond());
  EXPECT_EQ(window.count, 4u);
  EXPECT_EQ(window.shed, 3u);
  EXPECT_EQ(window.latency_sum_ns, duration_ns);
  EXPECT_EQ(window.latency_p50_ns,
            obs::Histogram::BucketRepresentative(
                obs::Histogram::BucketIndex(duration_ns)));
  EXPECT_GT(window.latency_p50_ns, 0.0);
}

TEST_F(EngineEventsTest, ExpiredRequestsGiveNoLatencySample) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 918, 40);
  auto engine = service::QueryEngine::Create(graph, SmallEngineOptions());
  ASSERT_TRUE(engine.ok());

  const Accounting before =
      Accounting::Read(service::PriorityClass::kInteractive);
  service::QueryRequest request = service::QueryRequest::ForVertex(3);
  request.deadline = service::EngineClock::now() - std::chrono::seconds(1);
  auto expired = (*engine)->Query(request);
  ASSERT_TRUE(expired.ok());
  ASSERT_EQ(expired->status.code(), StatusCode::kDeadlineExceeded);
  const Accounting after =
      Accounting::Read(service::PriorityClass::kInteractive);

  // Counted, as a deadline, but its few hundred nanoseconds of engine
  // time are no latency sample.
  EXPECT_EQ(after.requests - before.requests, 1u);
  EXPECT_EQ(after.deadline_exceeded - before.deadline_exceeded, 1u);
  EXPECT_EQ(after.latency_samples - before.latency_samples, 0u);
  EXPECT_EQ(after.class_latency_samples - before.class_latency_samples, 0u);
  const WindowSnapshot window =
      RollingWindow::Default().Snapshot(RollingWindow::NowSecond());
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.errors, 1u);
  EXPECT_EQ(window.latency_sum_ns, 0u);
  EXPECT_EQ(window.latency_p50_ns, 0.0);
}

// An mc-kind backend (so admission control can degrade it) that answers
// every vertex with one fixed entry. Its queries can be held until the
// test releases them, or kept running until a given time.
class ScriptedBackend : public SearcherBackend {
 public:
  explicit ScriptedBackend(const DirectedGraph& graph) : graph_(graph) {}

  // Call before the first request: queries then block until Release().
  void Hold() { released_ = release_.get_future().share(); }
  void Release() { release_.set_value(); }
  void WaitForQueries(int n) const {
    while (started_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Call before the first request: each query runs until `time`.
  void RunUntil(service::EngineClock::time_point time) { run_until_ = time; }
  // Call before the first request: each query then throws.
  void Throw() { throws_ = true; }

  BackendKind kind() const override { return BackendKind::kMonteCarlo; }
  void Build(ThreadPool*) override {}
  bool built() const override { return true; }
  double preprocess_seconds() const override { return 0.0; }
  uint64_t MemoryBytes() const override { return 0; }
  QueryResult Query(Vertex query,
                    const QueryOverrides& overrides) const override {
    started_.fetch_add(1);
    if (throws_) throw std::runtime_error("scripted backend failure");
    if (released_.valid()) released_.wait();
    if (run_until_.has_value()) std::this_thread::sleep_until(*run_until_);
    QueryResult result;
    result.top = {{(query + 1) % graph_.NumVertices(), 0.5}};
    result.stats.walks = overrides.refine_walks.value_or(options_.refine_walks);
    return result;
  }
  const DirectedGraph& graph() const override { return graph_; }
  const SearchOptions& options() const override { return options_; }

 private:
  const DirectedGraph& graph_;
  SearchOptions options_;
  std::promise<void> release_;
  std::shared_future<void> released_;
  std::optional<service::EngineClock::time_point> run_until_;
  bool throws_ = false;
  mutable std::atomic<int> started_{0};
};

// Walks the engine's admission controller to kShedBatch: three breached
// seconds of interactive completions on a synthetic clock (the controller
// takes time explicitly; seconds 0-3 lie before any engine clock read).
void DriveToShedBatch(const service::AdmissionController* controller) {
  ASSERT_NE(controller, nullptr);
  auto* driven = const_cast<service::AdmissionController*>(controller);
  for (double second : {0.5, 1.5, 2.5, 3.5}) {
    for (uint64_t i = 0; i < service::kMinWindowSamples; ++i) {
      driven->OnComplete(service::PriorityClass::kInteractive,
                         1'000'000'000, second);
    }
  }
  ASSERT_EQ(controller->level(), service::DegradationLevel::kShedBatch);
}

// One row: the engine's admission options, a run that measures exactly
// one request between start() and stop(), and what that request must
// have been accounted as.
struct LifecycleCase {
  const char* name;
  service::AdmissionOptions admission{};
  service::PriorityClass priority = service::PriorityClass::kInteractive;
  std::function<Result<service::QueryResponse>(
      service::QueryEngine&, ScriptedBackend&, const std::function<void()>&,
      const std::function<void()>&)>
      run;
  service::AdmissionDecision decision = service::AdmissionDecision::kAdmitted;
  uint8_t flags = 0;
  StatusCode status = StatusCode::kOk;
  bool answered = true;
  bool shed = false;
  bool deadline_exceeded = false;
  bool degraded = false;
};

TEST_F(EngineEventsTest, EachRequestIsAccountedOnce) {
  using service::PriorityClass;
  using service::QueryEngine;
  using service::QueryRequest;
  using Run = std::function<void()>;
  DirectedGraph graph = testing::SmallRandomGraph(60, 919, 40);
  service::AdmissionOptions rate_limited;
  rate_limited.client_rate = 1.0;
  rate_limited.client_burst = 1.0;
  service::AdmissionOptions queue_limited;
  queue_limited.interactive_queue_limit = 1;
  service::AdmissionOptions feedback;
  feedback.target_p99_seconds = 0.001;
  feedback.breach_steps = 1;

  const std::vector<LifecycleCase> cases = {
      {.name = "vertex",
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         start();
         auto result = engine.Query(QueryRequest::ForVertex(3));
         stop();
         return result;
       }},
      {.name = "group",
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         start();
         auto result = engine.Query(QueryRequest::ForGroup({3, 5, 7}));
         stop();
         return result;
       }},
      {.name = "submitted",
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         start();
         auto result = engine.Submit(QueryRequest::ForVertex(3))->get();
         stop();
         return result;
       },
       .flags = obs::kEventSubmitted},
      {.name = "cache_hit",
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         EXPECT_TRUE(engine.Query(QueryRequest::ForVertex(4)).ok());
         start();
         auto result = engine.Query(QueryRequest::ForVertex(4));
         stop();
         return result;
       },
       .flags = obs::kEventCacheHit},
      {.name = "shed_rate_limited",
       .admission = rate_limited,
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         EXPECT_TRUE(
             engine.Query(QueryRequest::ForVertex(1).WithClientId("c")).ok());
         start();
         auto result =
             engine.Query(QueryRequest::ForVertex(2).WithClientId("c"));
         stop();
         return result;
       },
       .decision = service::AdmissionDecision::kShedRateLimited,
       .flags = obs::kEventShed,
       .status = StatusCode::kUnavailable,
       .answered = false,
       .shed = true},
      {.name = "shed_queue_full",
       .admission = queue_limited,
       .run = [](QueryEngine& engine, ScriptedBackend& backend,
                 const Run& start, const Run& stop) {
         // The worker holds the first request; the second fills the
         // one-deep interactive backlog.
         backend.Hold();
         auto running = engine.Submit(QueryRequest::ForVertex(1));
         backend.WaitForQueries(1);
         auto queued = engine.Submit(QueryRequest::ForVertex(2));
         start();
         auto result = engine.Submit(QueryRequest::ForVertex(3))->get();
         stop();
         backend.Release();
         EXPECT_TRUE(running->get().ok());
         EXPECT_TRUE(queued->get().ok());
         return result;
       },
       .decision = service::AdmissionDecision::kShedQueueFull,
       .flags = obs::kEventShed | obs::kEventSubmitted,
       .status = StatusCode::kUnavailable,
       .answered = false,
       .shed = true},
      {.name = "shed_overload",
       .admission = feedback,
       .priority = PriorityClass::kBatch,
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         DriveToShedBatch(engine.admission());
         start();
         auto result = engine.Query(
             QueryRequest::ForVertex(3).WithPriority(PriorityClass::kBatch));
         stop();
         return result;
       },
       .decision = service::AdmissionDecision::kShedOverload,
       .flags = obs::kEventShed,
       .status = StatusCode::kUnavailable,
       .answered = false,
       .shed = true},
      {.name = "expired_before_start",
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         QueryRequest request = QueryRequest::ForVertex(3);
         request.deadline =
             service::EngineClock::now() - std::chrono::seconds(1);
         start();
         auto result = engine.Query(request);
         stop();
         return result;
       },
       .status = StatusCode::kDeadlineExceeded,
       .answered = false,
       .deadline_exceeded = true},
      {.name = "expired_mid_group",
       .run = [](QueryEngine& engine, ScriptedBackend& backend,
                 const Run& start, const Run& stop) {
         // The first member runs past the deadline, so the second never
         // starts.
         QueryRequest request = QueryRequest::ForGroup({3, 5, 7});
         request.deadline =
             service::EngineClock::now() + std::chrono::milliseconds(100);
         backend.RunUntil(*request.deadline + std::chrono::milliseconds(1));
         start();
         auto result = engine.Query(request);
         stop();
         return result;
       },
       .status = StatusCode::kDeadlineExceeded,
       .deadline_exceeded = true},
      {.name = "degraded",
       .admission = feedback,
       .run = [](QueryEngine& engine, ScriptedBackend&, const Run& start,
                 const Run& stop) {
         // At kShedBatch interactive requests run degraded.
         DriveToShedBatch(engine.admission());
         start();
         auto result = engine.Query(QueryRequest::ForVertex(3));
         stop();
         return result;
       },
       .decision = service::AdmissionDecision::kDegraded,
       .flags = obs::kEventDegraded,
       .degraded = true},
  };

  for (const LifecycleCase& c : cases) {
    SCOPED_TRACE(c.name);
    service::EngineOptions options;
    options.num_threads = 1;
    options.admission = c.admission;
    auto backend = std::make_unique<ScriptedBackend>(graph);
    ScriptedBackend& scripted = *backend;
    auto engine = QueryEngine::AdoptBackend(std::move(backend), options);
    ASSERT_TRUE(engine.ok()) << engine.status().message();

    Accounting before, after;
    WindowSnapshot window;
    const Run start = [&] {
      RollingWindow::Default().Clear();
      before = Accounting::Read(c.priority);
    };
    const Run stop = [&] {
      after = Accounting::Read(c.priority);
      window = RollingWindow::Default().Snapshot(RollingWindow::NowSecond());
    };
    const Result<service::QueryResponse> result =
        c.run(**engine, scripted, start, stop);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const service::QueryResponse& response = result.value();
    EXPECT_EQ(response.decision, c.decision);
    EXPECT_EQ(response.status.code(), c.status);
    EXPECT_EQ(response.answered, c.answered);

    // Exactly one event, carrying the response's timings exactly.
    EXPECT_EQ(after.events - before.events, 1u);
    const QueryEvent event = EventOf(response.query_id);
    EXPECT_EQ(event.flags, c.flags);
    EXPECT_EQ(event.decision, static_cast<uint8_t>(c.decision));
    EXPECT_EQ(event.status, static_cast<uint8_t>(c.status));
    EXPECT_EQ(static_cast<double>(event.duration_ns) / 1e9,
              response.engine_seconds);
    EXPECT_EQ(static_cast<double>(event.queue_wait_ns) / 1e9,
              response.queue_seconds);

    // The service.* counters.
    EXPECT_EQ(after.requests - before.requests, 1u);
    EXPECT_EQ(after.class_requests - before.class_requests, 1u);
    EXPECT_EQ(after.shed - before.shed, c.shed ? 1u : 0u);
    EXPECT_EQ(after.class_shed - before.class_shed, c.shed ? 1u : 0u);
    EXPECT_EQ(after.backend_requests - before.backend_requests,
              c.shed ? 0u : 1u);
    EXPECT_EQ(after.deadline_exceeded - before.deadline_exceeded,
              c.deadline_exceeded ? 1u : 0u);
    EXPECT_EQ(after.degraded - before.degraded, c.degraded ? 1u : 0u);
    EXPECT_EQ(after.class_degraded - before.class_degraded,
              c.degraded ? 1u : 0u);

    // Only an answered request gives latency samples.
    const uint64_t samples = c.answered ? 1 : 0;
    EXPECT_EQ(after.latency_samples - before.latency_samples, samples);
    EXPECT_EQ(after.class_latency_samples - before.class_latency_samples,
              samples);

    // Exactly one window record.
    EXPECT_EQ(window.count, 1u);
    EXPECT_EQ(window.shed, c.shed ? 1u : 0u);
    EXPECT_EQ(window.degraded, c.degraded ? 1u : 0u);
    EXPECT_EQ(window.cache_hits, (c.flags & obs::kEventCacheHit) ? 1u : 0u);
    EXPECT_EQ(window.errors, c.status == StatusCode::kOk ? 0u : 1u);
    EXPECT_EQ(window.latency_sum_ns, c.answered ? event.duration_ns : 0u);
  }
}

// A request whose backend throws answers Internal, from Query and Submit
// alike, and is accounted once, as an execution failure: one event and
// one window error, but no latency sample and no service.* counter.
void ExpectThrownRequestAccountedOnce(bool submitted) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 920, 40);
  auto backend = std::make_unique<ScriptedBackend>(graph);
  backend->Throw();
  service::EngineOptions options;
  options.num_threads = 1;
  auto engine = service::QueryEngine::AdoptBackend(std::move(backend), options);
  ASSERT_TRUE(engine.ok()) << engine.status().message();

  const Accounting before =
      Accounting::Read(service::PriorityClass::kInteractive);
  const service::QueryRequest request = service::QueryRequest::ForVertex(3);
  const Result<service::QueryResponse> result =
      submitted ? (*engine)->Submit(request)->get() : (*engine)->Query(request);
  const Accounting after =
      Accounting::Read(service::PriorityClass::kInteractive);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  ASSERT_EQ(after.events - before.events, 1u);
  const QueryEvent event = EventLog::Default().Snapshot().back();
  EXPECT_EQ(event.status, static_cast<uint8_t>(StatusCode::kInternal));
  EXPECT_EQ(event.flags, submitted ? obs::kEventSubmitted : 0);
  EXPECT_EQ(event.walks, 0u);

  EXPECT_EQ(after.requests, before.requests);
  EXPECT_EQ(after.class_requests, before.class_requests);
  EXPECT_EQ(after.backend_requests, before.backend_requests);
  EXPECT_EQ(after.deadline_exceeded, before.deadline_exceeded);
  EXPECT_EQ(after.latency_samples, before.latency_samples);
  EXPECT_EQ(after.class_latency_samples, before.class_latency_samples);

  const WindowSnapshot window =
      RollingWindow::Default().Snapshot(RollingWindow::NowSecond());
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.errors, 1u);
  EXPECT_EQ(window.latency_sum_ns, 0u);
}

TEST_F(EngineEventsTest, ThrownQueryAnswersInternal) {
  ExpectThrownRequestAccountedOnce(/*submitted=*/false);
}

TEST_F(EngineEventsTest, ThrownSubmittedRequestIsAccountedOnce) {
  ExpectThrownRequestAccountedOnce(/*submitted=*/true);
}

// --- simrank-events-v2 JSON -------------------------------------------------

TEST_F(EngineEventsTest, EventsJsonRoundTrips) {
  obs::EventsReport report;
  QueryEvent event = MakeEvent(1'500'000, obs::kEventCacheHit, 0);
  event.query_id = 42;
  event.group_size = 1;
  report.events.push_back(event);

  SlowQueryRecord slow = MakeSlowRecord(2'000'000);
  slow.event.query_id = 43;
  for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
    slow.event.phases.ns[i] = 1000 * (i + 1);
  }
  report.slow.push_back(slow);

  RollingWindow window(4, 1);
  SloSpec spec;
  spec.name = "test_json_p99";
  spec.objective = SloSpec::Objective::kLatencyP99;
  spec.threshold = 0.5;
  ASSERT_TRUE(window.SetSlos({spec}).ok());
  window.Record(600, 1'000'000, 0, 0);
  report.window = window.Snapshot(600);

  JsonValue doc = ParseOrFail(obs::EventsToJson(report));
  EXPECT_EQ(doc.At("schema").string, "simrank-events-v2");
  ASSERT_EQ(doc.At("events").array.size(), 1u);
  const JsonValue& ev = doc.At("events").array[0];
  EXPECT_EQ(ev.At("id").number, 42.0);
  EXPECT_EQ(ev.At("duration_ns").number, 1'500'000.0);
  EXPECT_EQ(ev.At("mode").string, "vertex");
  EXPECT_EQ(ev.At("status").string, "OK");
  EXPECT_TRUE(ev.At("cache_hit").boolean);
  EXPECT_FALSE(ev.At("submitted").boolean);
  // Every event lists every phase; a cache hit ran none.
  const JsonValue& ev_phases = ev.At("phases");
  ASSERT_EQ(ev_phases.object.size(), obs::kNumQueryPhases);
  for (const char* name : obs::kQueryPhaseNames) {
    EXPECT_EQ(ev_phases.At(name).number, 0.0) << name;
  }

  ASSERT_EQ(doc.At("slow").array.size(), 1u);
  const JsonValue& sl = doc.At("slow").array[0];
  EXPECT_EQ(sl.At("event").At("id").number, 43.0);
  ASSERT_EQ(sl.At("vertices").array.size(), 1u);
  EXPECT_EQ(sl.object.count("trace"), 0u);
  const JsonValue& sl_phases = sl.At("event").At("phases");
  for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
    EXPECT_EQ(sl_phases.At(obs::kQueryPhaseNames[i]).number,
              1000.0 * (i + 1))
        << obs::kQueryPhaseNames[i];
  }

  const JsonValue& win = doc.At("window");
  EXPECT_EQ(win.At("count").number, 1.0);
  ASSERT_EQ(win.At("slo").array.size(), 1u);
  EXPECT_EQ(win.At("slo").array[0].At("name").string, "test_json_p99");
  EXPECT_TRUE(win.At("slo").array[0].At("ok").boolean);

  // Not a postmortem dump: no crash context.
  EXPECT_EQ(doc.object.count("postmortem"), 0u);
}

// --- postmortem dumps -------------------------------------------------------

TEST_F(EngineEventsTest, WritePostmortemDumpDirectly) {
  EventLog::Default().Record(MakeEvent(1234));
  obs::PostmortemInfo info;
  info.reason = "CHECK failed at test.cc:1: false";
  info.span_path = "profile";
  const std::string path = testing::ScratchPath("events_pm_direct.json");
  Status status = obs::WritePostmortemDump(path, info);
  ASSERT_TRUE(status.ok()) << status.message();

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);

  JsonValue doc = ParseOrFail(text);
  EXPECT_EQ(doc.At("schema").string, "simrank-events-v2");
  EXPECT_GE(doc.At("events").array.size(), 1u);
  const JsonValue& pm = doc.At("postmortem");
  EXPECT_EQ(pm.At("reason").string, "CHECK failed at test.cc:1: false");
  EXPECT_EQ(pm.At("span_path").string, "profile");
}

using EngineEventsDeathTest = EngineEventsTest;

TEST_F(EngineEventsDeathTest, CheckFailureWritesPostmortemDump) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = testing::ScratchPath("events_pm_check.json");
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        obs::SetPostmortemPath(path);
        obs::EventLog::Default().Record(MakeEvent(4321));
        SIMRANK_CHECK(false);
      },
      "CHECK failed");

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr) << "postmortem dump missing: " << path;
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);

  JsonValue doc = ParseOrFail(text);
  EXPECT_EQ(doc.At("schema").string, "simrank-events-v2");
  const JsonValue& pm = doc.At("postmortem");
  EXPECT_NE(pm.At("reason").string.find("CHECK failed"), std::string::npos);
}

#ifdef SIMRANK_FAULT_INJECTION
TEST_F(EngineEventsDeathTest, InjectedCheckFailureWritesPostmortemDump) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = testing::ScratchPath("events_pm_fault.json");
  std::remove(path.c_str());

  EXPECT_DEATH(
      {
        fault::SiteConfig config;
        config.action = fault::Action::kCheckFail;
        config.on_hit = 1;
        fault::FaultInjector::Default().Arm("test.events.site", config);
        obs::SetPostmortemPath(path);
        obs::EventLog::Default().Record(MakeEvent(999));
        Status status = fault::Hit("test.events.site");
        (void)status;
      },
      "CHECK failed");

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr) << "postmortem dump missing: " << path;
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  EXPECT_NE(text.find("simrank-events-v2"), std::string::npos);
  EXPECT_NE(text.find("test.events.site"), std::string::npos);
}

TEST_F(EngineEventsDeathTest, EngineCheckFailureNamesTheEngineStage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = testing::ScratchPath("events_pm_engine.json");
  std::remove(path.c_str());
  DirectedGraph graph = testing::SmallRandomGraph(60, 915, 40);

  // The slow log stays disarmed: the phase is named regardless.
  EXPECT_DEATH(
      {
        auto engine =
            service::QueryEngine::Create(graph, SmallEngineOptions());
        fault::SiteConfig config;
        config.action = fault::Action::kCheckFail;
        config.on_hit = 1;
        fault::FaultInjector::Default().Arm("service.query.exec", config);
        obs::SetPostmortemPath(path);
        auto response = (*engine)->Query(service::QueryRequest::ForVertex(1));
        (void)response;
      },
      "CHECK failed.*\\(in phase engine_query\\)");

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr) << "postmortem dump missing: " << path;
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  JsonValue doc = ParseOrFail(text);
  EXPECT_EQ(doc.At("postmortem").At("span_path").string, "engine_query");
}
#endif  // SIMRANK_FAULT_INJECTION

}  // namespace
}  // namespace simrank
