// Size-driven backend selection and the engine's backend plumbing: the
// SelectBackend exact/mc crossover, kAuto resolution at engine creation,
// per-request backend overrides, the backend field of the result-cache
// key (a cross-backend hit would serve one algorithm's scores under
// another's name), per-backend service metrics, and the backend tag
// threaded through the per-query event telemetry.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/stats.h"
#include "json_test_util.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "simrank/searcher_backend.h"
#include "test_helpers.h"

namespace simrank {
namespace {

using obs::EventLog;
using obs::QueryEvent;
using testjson::JsonValue;
using testjson::ParseOrFail;

GraphStats StatsOf(uint64_t n, uint64_t m) {
  GraphStats stats;
  stats.num_vertices = n;
  stats.num_edges = m;
  return stats;
}

TEST(SelectBackendTest, ExactUpToTheCrossoverInclusive) {
  EXPECT_EQ(SelectBackend(StatsOf(10, 20)), BackendKind::kExact);
  EXPECT_EQ(SelectBackend(StatsOf(4'096, 32'768)), BackendKind::kExact);
  EXPECT_EQ(SelectBackend(StatsOf(8'192, 57'344)), BackendKind::kExact);
  EXPECT_EQ(SelectBackend(StatsOf(8'192, 57'345)), BackendKind::kMonteCarlo);
}

TEST(SelectBackendTest, MonteCarloAboveTheCrossover) {
  EXPECT_EQ(SelectBackend(StatsOf(16'384, 131'072)), BackendKind::kMonteCarlo);
  EXPECT_EQ(SelectBackend(StatsOf(10'000'000, 200'000'000)),
            BackendKind::kMonteCarlo);
  // The rule is on n + m, so either dimension alone can cross it.
  EXPECT_EQ(SelectBackend(StatsOf(65'537, 0)), BackendKind::kMonteCarlo);
  EXPECT_EQ(SelectBackend(StatsOf(1, 65'536)), BackendKind::kMonteCarlo);
  EXPECT_EQ(SelectBackend(StatsOf(0, 65'536)), BackendKind::kExact);
}

TEST(BackendNamesTest, ChoiceGrammarRoundTrips) {
  for (const char* name : {"mc", "exact", "auto"}) {
    const auto choice = ParseBackendChoice(name);
    ASSERT_TRUE(choice.has_value()) << name;
    EXPECT_EQ(BackendChoiceName(*choice), name);
  }
  EXPECT_FALSE(ParseBackendChoice("montecarlo").has_value());
  EXPECT_FALSE(ParseBackendChoice("").has_value());
  EXPECT_FALSE(ParseBackendKind("auto").has_value());
  EXPECT_EQ(ParseBackendKind("exact"), BackendKind::kExact);
}

TEST(BackendNamesTest, WireValuesAreStable) {
  // The values travel in cache keys, event records and the
  // service.backend.primary gauge; value 1 is retired, never reused.
  EXPECT_EQ(static_cast<int>(BackendKind::kMonteCarlo), 0);
  EXPECT_EQ(static_cast<int>(BackendKind::kExact), 2);
  EXPECT_FALSE(IsRegisteredBackend(static_cast<BackendKind>(1)));
  for (BackendKind kind : RegisteredBackends()) {
    EXPECT_TRUE(IsRegisteredBackend(kind)) << BackendKindName(kind);
    EXPECT_LT(static_cast<size_t>(kind), kBackendSlots);
  }
}

// --- engine integration -----------------------------------------------------

service::EngineOptions FastEngineOptions() {
  service::EngineOptions options;
  options.num_threads = 2;
  options.search.seed = 808;
  options.search.profile_walks = 64;
  options.search.estimate_walks = 8;
  options.search.refine_walks = 32;
  return options;
}

TEST(EngineBackendTest, DefaultPrimaryIsMonteCarlo) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 11, 30);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->primary_backend(), BackendKind::kMonteCarlo);
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(5));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->backend, BackendKind::kMonteCarlo);
}

TEST(EngineBackendTest, AutoPicksExactForSmallGraphs) {
  // 50 vertices / ~100 edges sits far below the crossover.
  DirectedGraph graph = testing::SmallRandomGraph(50, 12);
  service::EngineOptions options = FastEngineOptions();
  options.backend = BackendChoice::kAuto;
  auto engine = service::QueryEngine::Create(graph, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->primary_backend(), BackendKind::kExact);
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(3));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->backend, BackendKind::kExact);
}

TEST(EngineBackendTest, AutoSwitchesToMonteCarloPastTheCrossover) {
  // Edgeless graphs keep both builds trivial: n + m is just n.
  service::EngineOptions options = FastEngineOptions();
  options.backend = BackendChoice::kAuto;
  const DirectedGraph at_crossover = testing::GraphFromEdges(65'536, {});
  auto exact = service::QueryEngine::Create(at_crossover, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ((*exact)->primary_backend(), BackendKind::kExact);
  const DirectedGraph past_crossover = testing::GraphFromEdges(65'537, {});
  auto mc = service::QueryEngine::Create(past_crossover, options);
  ASSERT_TRUE(mc.ok());
  EXPECT_EQ((*mc)->primary_backend(), BackendKind::kMonteCarlo);
}

TEST(EngineBackendTest, CreateRejectsBadBackendConfiguration) {
  DirectedGraph graph = testing::SmallRandomGraph(40, 15);
  service::EngineOptions options = FastEngineOptions();
  options.backend = static_cast<BackendChoice>(7);
  EXPECT_FALSE(service::QueryEngine::Create(graph, options).ok());
}

// The retired wire value 1 is in range of the slot arrays but names no
// backend: it must be refused up front, not handed to MakeBackend (which
// returns null for it).
TEST(EngineBackendTest, RetiredBackendValueIsRejected) {
  DirectedGraph graph = testing::SmallRandomGraph(40, 15);
  service::EngineOptions options = FastEngineOptions();
  options.backend = static_cast<BackendChoice>(1);
  auto created = service::QueryEngine::Create(graph, options);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  service::QueryRequest request = service::QueryRequest::ForVertex(3);
  request.backend = static_cast<BackendKind>(1);
  auto response = (*engine)->Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineBackendTest, PerRequestOverrideServesThatBackend) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 16, 30);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(7)
                                       .WithBackend(BackendKind::kExact));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->backend, BackendKind::kExact);
  EXPECT_FALSE(response->from_cache);
  // The lazily built backend is remembered: a second overridden request
  // hits the cache under the same (vertex, backend) key.
  auto again = (*engine)->Query(service::QueryRequest::ForVertex(7)
                                    .WithBackend(BackendKind::kExact));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->from_cache);
  EXPECT_EQ(again->backend, BackendKind::kExact);
}

TEST(EngineBackendTest, RejectsUnknownBackendOverride) {
  DirectedGraph graph = testing::SmallRandomGraph(40, 17);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  service::QueryRequest request = service::QueryRequest::ForVertex(3);
  request.backend = static_cast<BackendKind>(9);
  auto response = (*engine)->Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// Regression: the cache key must include the backend. Without it, the
// second request here would be served the first one's ranking.
TEST(EngineBackendTest, CacheNeverServesAcrossBackends) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 18, 30);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  auto mc = (*engine)->Query(service::QueryRequest::ForVertex(9));
  ASSERT_TRUE(mc.ok());
  EXPECT_FALSE(mc->from_cache);
  EXPECT_EQ(mc->backend, BackendKind::kMonteCarlo);
  auto exact = (*engine)->Query(service::QueryRequest::ForVertex(9)
                                    .WithBackend(BackendKind::kExact));
  ASSERT_TRUE(exact.ok());
  EXPECT_FALSE(exact->from_cache) << "served the mc backend's entry";
  EXPECT_EQ(exact->backend, BackendKind::kExact);
  auto exact_again = (*engine)->Query(service::QueryRequest::ForVertex(9)
                                          .WithBackend(BackendKind::kExact));
  ASSERT_TRUE(exact_again.ok());
  EXPECT_TRUE(exact_again->from_cache);
  EXPECT_EQ(exact_again->backend, BackendKind::kExact);
}

TEST(EngineBackendTest, PerBackendRequestCountersIncrement) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 19, 30);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  obs::Counter& exact_requests = obs::MetricsRegistry::Default().GetCounter(
      "service.backend.exact.requests");
  obs::Counter& mc_requests = obs::MetricsRegistry::Default().GetCounter(
      "service.backend.mc.requests");
  const uint64_t exact_before = exact_requests.Value();
  const uint64_t mc_before = mc_requests.Value();
  ASSERT_TRUE((*engine)
                  ->Query(service::QueryRequest::ForVertex(4).WithBackend(
                      BackendKind::kExact))
                  .ok());
  ASSERT_TRUE((*engine)->Query(service::QueryRequest::ForVertex(4)).ok());
  EXPECT_EQ(exact_requests.Value(), exact_before + 1);
  EXPECT_EQ(mc_requests.Value(), mc_before + 1);
}

TEST(EngineBackendTest, EventsCarryTheBackendTag) {
  EventLog::Default().Clear();
  DirectedGraph graph = testing::SmallRandomGraph(60, 20, 30);
  auto engine = service::QueryEngine::Create(graph, FastEngineOptions());
  ASSERT_TRUE(engine.ok());
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(6)
                                       .WithBackend(BackendKind::kExact));
  ASSERT_TRUE(response.ok());
  const std::vector<QueryEvent> events = EventLog::Default().Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().query_id, response->query_id);
  EXPECT_EQ(events.back().backend,
            static_cast<uint8_t>(BackendKind::kExact));
}

TEST(EngineBackendTest, EventsJsonNamesTheBackend) {
  obs::EventsReport report;
  QueryEvent event;
  event.query_id = 77;
  event.duration_ns = 1000;
  event.backend = static_cast<uint8_t>(BackendKind::kExact);
  report.events.push_back(event);
  const JsonValue doc = ParseOrFail(obs::EventsToJson(report));
  ASSERT_EQ(doc.At("events").array.size(), 1u);
  // obs/export.cc keeps its own name table (obs cannot depend on
  // simrank); this pins the two tables to each other.
  EXPECT_EQ(doc.At("events").array[0].At("backend").string,
            BackendKindName(BackendKind::kExact));
}

TEST(EngineBackendTest, AdoptBackendPinsThePrimary) {
  DirectedGraph graph = testing::SmallRandomGraph(60, 21, 30);
  service::EngineOptions options = FastEngineOptions();
  std::unique_ptr<SearcherBackend> backend =
      MakeBackend(BackendKind::kExact, graph, options.search);
  auto engine =
      service::QueryEngine::AdoptBackend(std::move(backend), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->primary_backend(), BackendKind::kExact);
  auto response = (*engine)->Query(service::QueryRequest::ForVertex(2));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->backend, BackendKind::kExact);
}

}  // namespace
}  // namespace simrank
