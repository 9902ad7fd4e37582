// Serving-engine coverage: validated construction, request/response
// semantics, result cache (hits, keying, LRU eviction, invalidation),
// deadlines with partial results, load shedding, batch parity with the
// serial kernel, and a concurrent-submission stress that the TSan preset
// runs race detection on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_engine.h"
#include "service/result_cache.h"
#include "simrank/backend_mc.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"
#include "util/arena.h"
#include "util/timer.h"

namespace simrank::service {
namespace {

SearchOptions BaseSearch() {
  SearchOptions options;
  options.k = 8;
  options.threshold = 0.01;
  options.seed = 20260806;
  return options;
}

EngineOptions BaseEngine() {
  EngineOptions options;
  options.search = BaseSearch();
  options.num_threads = 2;
  return options;
}

void ExpectSameRanking(const std::vector<ScoredVertex>& got,
                       const std::vector<ScoredVertex>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].vertex, want[i].vertex) << "rank " << i;
    // Bit-identical: the engine runs the same kernel with the same
    // deterministic per-query RNG stream.
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

class ServiceEngineTest : public ::testing::Test {
 protected:
  ServiceEngineTest() : graph_(testing::SmallRandomGraph(150, 701, 80)) {}
  DirectedGraph graph_;
};

// ---------------------------------------------------------------- creation

TEST_F(ServiceEngineTest, CreateRejectsInvalidSearchOptions) {
  EngineOptions options = BaseEngine();
  options.search.k = 0;
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  options = BaseEngine();
  options.search.simrank.decay = 1.5;
  EXPECT_FALSE(QueryEngine::Create(graph_, options).ok());

  options = BaseEngine();
  options.search.threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(QueryEngine::Create(graph_, options).ok());

  options = BaseEngine();
  options.search.refine_walks = 0;
  EXPECT_FALSE(QueryEngine::Create(graph_, options).ok());
}

TEST_F(ServiceEngineTest, AdoptWrapsExistingSearcher) {
  TopKSearcher searcher(graph_, BaseSearch());
  searcher.BuildIndex();
  const QueryResult want = searcher.Query(5);

  TopKSearcher to_adopt(graph_, BaseSearch());
  to_adopt.BuildIndex();
  auto engine = QueryEngine::AdoptBackend(
      std::make_unique<MonteCarloBackend>(std::move(to_adopt)), BaseEngine());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto response = (*engine)->Query(QueryRequest::ForVertex(5));
  ASSERT_TRUE(response.ok());
  ExpectSameRanking(response->top, want.top);
}

// -------------------------------------------------------------- validation

TEST_F(ServiceEngineTest, RejectsInvalidRequestsWithoutRunning) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());

  auto empty = (*engine)->Query(QueryRequest{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto unknown =
      (*engine)->Query(QueryRequest::ForVertex(graph_.NumVertices()));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto zero_k = (*engine)->Query(QueryRequest::ForVertex(0).WithK(0));
  ASSERT_FALSE(zero_k.ok());
  EXPECT_EQ(zero_k.status().code(), StatusCode::kInvalidArgument);

  auto nan_threshold =
      (*engine)->Query(QueryRequest::ForVertex(0).WithThreshold(
          std::numeric_limits<double>::quiet_NaN()));
  ASSERT_FALSE(nan_threshold.ok());
  EXPECT_EQ(nan_threshold.status().code(), StatusCode::kInvalidArgument);

  // Submit validates before enqueueing too.
  auto submitted = (*engine)->Submit(QueryRequest::ForGroup({0, 9999999}));
  EXPECT_FALSE(submitted.ok());
}

// ------------------------------------------------------------ kernel parity

TEST_F(ServiceEngineTest, QueryMatchesKernelBitIdentically) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  for (Vertex v = 0; v < graph_.NumVertices(); v += 13) {
    const QueryResult want = kernel.Query(v);
    auto response =
        (*engine)->Query(QueryRequest::ForVertex(v).WithBypassCache());
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok());
    EXPECT_FALSE(response->from_cache);
    ExpectSameRanking(response->top, want.top);
    EXPECT_EQ(response->stats.candidates_enumerated,
              want.stats.candidates_enumerated);
    EXPECT_EQ(response->stats.refined, want.stats.refined);
  }
}

TEST_F(ServiceEngineTest, OverridesMatchKernelOverrides) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  const QueryOverrides overrides{
      .k = 3, .threshold = 0.05, .refine_walks = std::nullopt};
  const QueryResult want = kernel.Query(7, overrides);
  auto response = (*engine)->Query(
      QueryRequest::ForVertex(7).WithK(3).WithThreshold(0.05));
  ASSERT_TRUE(response.ok());
  EXPECT_LE(response->top.size(), 3u);
  ExpectSameRanking(response->top, want.top);
}

TEST_F(ServiceEngineTest, SubmitBatchMatchesSerialKernel) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());

  std::vector<QueryRequest> requests;
  for (Vertex v = 0; v < 64; ++v) {
    requests.push_back(QueryRequest::ForVertex(v % graph_.NumVertices())
                           .WithBypassCache());
  }
  const auto responses = (*engine)->SubmitBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses[i].ok());
    const QueryResult want = kernel.Query(requests[i].vertices.front());
    ExpectSameRanking(responses[i]->top, want.top);
  }
}

TEST_F(ServiceEngineTest, GroupRequestMatchesScoreSumOfKernelQueries) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  const std::vector<Vertex> group = {3, 14, 15, 92};
  // Reference: each candidate's kernel scores summed in member order,
  // members excluded, ranked by the shared ScoredVertex order.
  std::vector<ScoredVertex> want;
  uint64_t refined = 0;
  for (Vertex member : group) {
    const QueryResult result = kernel.Query(member);
    refined += result.stats.refined;
    for (const ScoredVertex& entry : result.top) {
      if (std::ranges::find(group, entry.vertex) != group.end()) continue;
      auto it = std::ranges::find(want, entry.vertex, &ScoredVertex::vertex);
      if (it == want.end()) {
        want.push_back(entry);
      } else {
        it->score += entry.score;
      }
    }
  }
  std::ranges::sort(want, ScoredVertexGreater);
  if (want.size() > BaseSearch().k) want.resize(BaseSearch().k);
  auto response = (*engine)->Query(QueryRequest::ForGroup(group));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->status.ok());
  ExpectSameRanking(response->top, want);
  EXPECT_EQ(response->stats.refined, refined);
}

TEST_F(ServiceEngineTest, RunAllPairsMatchesKernelQueries) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  auto shard = (*engine)->RunAllPairs(AllPairsOptions{});
  ASSERT_TRUE(shard.ok());
  ASSERT_EQ(shard->rankings.size(), graph_.NumVertices());
  for (Vertex v = 0; v < graph_.NumVertices(); ++v) {
    ExpectSameRanking(shard->rankings[v], kernel.Query(v).top);
  }
}

TEST_F(ServiceEngineTest, RunAllPairsMatchesKernelShard) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  AllPairsOptions all;
  all.partition = 1;
  all.num_partitions = 3;
  const AllPairsShard want = RunAllPairs(kernel, all);

  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  auto shard = (*engine)->RunAllPairs(all);
  ASSERT_TRUE(shard.ok());
  ASSERT_EQ(shard->rankings.size(), want.rankings.size());
  for (size_t i = 0; i < want.rankings.size(); ++i) {
    ExpectSameRanking(shard->rankings[i], want.rankings[i]);
  }

  AllPairsOptions bad;
  bad.partition = 5;
  bad.num_partitions = 2;
  auto rejected = (*engine)->RunAllPairs(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- cache

TEST_F(ServiceEngineTest, RepeatRequestServedFromCache) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  auto cold = (*engine)->Query(QueryRequest::ForVertex(11));
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->from_cache);
  EXPECT_EQ((*engine)->CacheSize(), 1u);

  auto warm = (*engine)->Query(QueryRequest::ForVertex(11));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  ExpectSameRanking(warm->top, cold->top);
  // The cache keeps the ranking alone: a hit ran nothing, so its stats
  // are zero, like its event's walks and phases.
  ASSERT_GT(cold->stats.walks, 0u);
  ASSERT_GT(cold->stats.candidates_enumerated, 0u);
  EXPECT_EQ(warm->stats.walks, 0u);
  EXPECT_EQ(warm->stats.candidates_enumerated, 0u);
  EXPECT_EQ(warm->stats.refined, 0u);
  EXPECT_EQ(warm->stats.seconds, 0.0);
  EXPECT_EQ(warm->stats.phases.Sum(), 0u);
}

TEST_F(ServiceEngineTest, CacheKeyIncludesEffectiveOptions) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Query(QueryRequest::ForVertex(4)).ok());
  // Same vertex, different k: different ranking, must not share an entry.
  auto other_k = (*engine)->Query(QueryRequest::ForVertex(4).WithK(2));
  ASSERT_TRUE(other_k.ok());
  EXPECT_FALSE(other_k->from_cache);
  EXPECT_LE(other_k->top.size(), 2u);
  EXPECT_EQ((*engine)->CacheSize(), 2u);
  // A group containing just different vertices is also distinct.
  auto group = (*engine)->Query(QueryRequest::ForGroup({4, 5}));
  ASSERT_TRUE(group.ok());
  EXPECT_FALSE(group->from_cache);
}

TEST_F(ServiceEngineTest, BypassCacheSkipsLookupAndInsertion) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(
      (*engine)->Query(QueryRequest::ForVertex(8).WithBypassCache()).ok());
  EXPECT_EQ((*engine)->CacheSize(), 0u);
  ASSERT_TRUE((*engine)->Query(QueryRequest::ForVertex(8)).ok());
  auto bypassed =
      (*engine)->Query(QueryRequest::ForVertex(8).WithBypassCache());
  ASSERT_TRUE(bypassed.ok());
  EXPECT_FALSE(bypassed->from_cache);
}

TEST_F(ServiceEngineTest, InvalidateCacheDropsEntries) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Query(QueryRequest::ForVertex(1)).ok());
  ASSERT_TRUE((*engine)->Query(QueryRequest::ForVertex(2)).ok());
  EXPECT_EQ((*engine)->CacheSize(), 2u);
  (*engine)->InvalidateCache();
  EXPECT_EQ((*engine)->CacheSize(), 0u);
  auto requery = (*engine)->Query(QueryRequest::ForVertex(1));
  ASSERT_TRUE(requery.ok());
  EXPECT_FALSE(requery->from_cache);
}

TEST_F(ServiceEngineTest, LruEvictsLeastRecentlyUsedEntry) {
  ResultCache cache(2);
  const auto key = [](Vertex v) {
    return CacheKey{.vertices = {v}, .group = false, .k = 8};
  };
  const std::vector<ScoredVertex> top = {{7, 0.5}};
  std::vector<ScoredVertex> out;
  cache.Insert(key(10), top);  // A
  cache.Insert(key(20), top);  // B
  // Touch A so B becomes least recently used, then insert C.
  ASSERT_TRUE(cache.Lookup(key(10), &out));
  cache.Insert(key(30), top);  // C
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(key(10), &out));
  EXPECT_FALSE(cache.Lookup(key(20), &out));
  EXPECT_TRUE(cache.Lookup(key(30), &out));
}

// ---------------------------------------------------------------- deadlines

TEST_F(ServiceEngineTest, ExpiredDeadlineAnsweredWithoutRunning) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  QueryRequest request = QueryRequest::ForVertex(0).WithBypassCache();
  request.deadline = EngineClock::now() - std::chrono::milliseconds(1);
  auto response = (*engine)->Query(request);
  ASSERT_TRUE(response.ok());  // accepted, but execution was cut short
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(response->top.empty());
  EXPECT_EQ(response->stats.candidates_enumerated, 0u);
}

TEST_F(ServiceEngineTest, MidGroupDeadlineReturnsPartialStats) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());

  // Measure one member query, then give a 40-member group roughly three
  // members' worth of budget: admission passes, the loop cannot finish.
  WallTimer timer;
  ASSERT_TRUE(
      (*engine)->Query(QueryRequest::ForVertex(0).WithBypassCache()).ok());
  const double member_seconds = std::max(timer.ElapsedSeconds(), 1e-5);

  std::vector<Vertex> group;
  for (Vertex v = 0; v < 40; ++v) group.push_back(v);
  auto response = (*engine)->Query(QueryRequest::ForGroup(group)
                                       .WithBypassCache()
                                       .WithTimeout(member_seconds * 3));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded);
  // Partial work is reported: some members ran before the deadline fired.
  EXPECT_GT(response->stats.candidates_enumerated, 0u);
  // Deadline-exceeded responses are never cached.
  EXPECT_EQ((*engine)->CacheSize(), 0u);
}

// ------------------------------------------------------------ load shedding

TEST_F(ServiceEngineTest, BacklogShedsLoadAndReportsDegradation) {
  EngineOptions options = BaseEngine();
  options.num_threads = 1;
  options.admission.degrade_watermark = 1;
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  std::vector<QueryRequest> requests;
  for (Vertex v = 0; v < 16; ++v) {
    requests.push_back(QueryRequest::ForVertex(v));
  }
  const auto responses = (*engine)->SubmitBatch(requests);
  size_t degraded = 0;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok());
    if (response->degraded) ++degraded;
  }
  // One worker against a 16-deep backlog with watermark 1: most of the
  // batch must have been shed.
  EXPECT_GE(degraded, 1u);
  // Degraded responses are never cached, so the cache holds fewer entries
  // than the batch had requests.
  EXPECT_LE((*engine)->CacheSize(), requests.size() - degraded);

  // An idle engine (no backlog) serves full-quality responses again.
  auto calm =
      (*engine)->Query(QueryRequest::ForVertex(0).WithBypassCache());
  ASSERT_TRUE(calm.ok());
  EXPECT_FALSE(calm->degraded);
}

// ------------------------------------------------- admission control (engine)

TEST_F(ServiceEngineTest, SaturatedQueueShedsWithUnavailableNeverCached) {
  EngineOptions options = BaseEngine();
  options.num_threads = 1;
  options.admission.interactive_queue_limit = 1;
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  std::vector<QueryRequest> requests;
  for (Vertex v = 0; v < 24; ++v) {
    requests.push_back(QueryRequest::ForVertex(v));
  }
  const auto responses = (*engine)->SubmitBatch(requests);
  size_t ok = 0, shed = 0;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok());  // shed is an answer, not a Submit error
    if (response->status.ok()) {
      EXPECT_EQ(response->decision, AdmissionDecision::kAdmitted);
      ++ok;
    } else {
      // The shed contract: Unavailable status, a shed decision, no
      // result payload, and no backend work billed to the request.
      ASSERT_EQ(response->status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(IsShed(response->decision));
      EXPECT_EQ(response->decision, AdmissionDecision::kShedQueueFull);
      EXPECT_TRUE(response->top.empty());
      EXPECT_EQ(response->stats.candidates_enumerated, 0u);
      ++shed;
    }
  }
  // One worker against 24 rapid submissions with a 1-deep backlog bound:
  // most of the batch must have been refused.
  EXPECT_GE(shed, 1u);
  EXPECT_GE(ok, 1u);  // the queue drains, so some always get through
  // Shed responses are never cached.
  EXPECT_LE((*engine)->CacheSize(), ok);

  // Once the backlog drains the engine admits again.
  auto calm = (*engine)->Query(QueryRequest::ForVertex(0).WithBypassCache());
  ASSERT_TRUE(calm.ok());
  EXPECT_TRUE(calm->status.ok());
  EXPECT_EQ(calm->decision, AdmissionDecision::kAdmitted);
}

TEST_F(ServiceEngineTest, AbusiveClientIsRateLimitedOthersUnaffected) {
  EngineOptions options = BaseEngine();
  options.admission.client_rate = 1.0;
  options.admission.client_burst = 1.0;
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  auto first = (*engine)->Query(
      QueryRequest::ForVertex(0).WithBypassCache().WithClientId("abusive"));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok());

  // The second request lands milliseconds later: the 1 rps bucket has
  // refilled a fraction of a token, so it is refused as rate-limited.
  auto second = (*engine)->Query(
      QueryRequest::ForVertex(1).WithBypassCache().WithClientId("abusive"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(second->decision, AdmissionDecision::kShedRateLimited);

  // A different client and the anonymous client are unaffected.
  auto other = (*engine)->Query(
      QueryRequest::ForVertex(2).WithBypassCache().WithClientId("polite"));
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->status.ok());
  auto anonymous =
      (*engine)->Query(QueryRequest::ForVertex(3).WithBypassCache());
  ASSERT_TRUE(anonymous.ok());
  EXPECT_TRUE(anonymous->status.ok());

  ASSERT_NE((*engine)->admission(), nullptr);
  EXPECT_EQ((*engine)->admission()->tracked_clients(), 2u);
}

TEST_F(ServiceEngineTest, AdmissionWatermarkDegradesAndRecordsDecision) {
  EngineOptions options = BaseEngine();
  options.num_threads = 1;
  options.admission.degrade_watermark = 1;  // new-style knob, not legacy
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  std::vector<QueryRequest> requests;
  for (Vertex v = 0; v < 16; ++v) {
    requests.push_back(QueryRequest::ForVertex(v));
  }
  const auto responses = (*engine)->SubmitBatch(requests);
  size_t degraded = 0;
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->status.ok());  // degraded still answers OK
    EXPECT_EQ(response->degraded,
              response->decision == AdmissionDecision::kDegraded);
    if (response->degraded) ++degraded;
  }
  EXPECT_GE(degraded, 1u);
  // Degraded responses are never cached.
  EXPECT_LE((*engine)->CacheSize(), requests.size() - degraded);
}

TEST_F(ServiceEngineTest, ValidateEngineOptionsCoversAdmission) {
  EngineOptions options = BaseEngine();
  options.admission.client_rate = -2.0;
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);

  options = BaseEngine();
  options.admission.target_p99_seconds = 0.5;
  options.admission.recover_steps = 0;
  EXPECT_FALSE(QueryEngine::Create(graph_, options).ok());

  // All-zero admission options build no controller at all.
  options = BaseEngine();
  auto plain = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ((*plain)->admission(), nullptr);
}

TEST_F(ServiceEngineTest, PrewarmCachePopulatesThePopularityHead) {
  auto engine = QueryEngine::Create(graph_, BaseEngine());
  ASSERT_TRUE(engine.ok());
  const std::vector<Vertex> head = {3, 1, 4, 1, 5};  // duplicate on purpose
  const size_t warmed = (*engine)->PrewarmCache(head);
  EXPECT_EQ(warmed, head.size());
  EXPECT_EQ((*engine)->CacheSize(), 4u);  // distinct vertices only
  auto hit = (*engine)->Query(QueryRequest::ForVertex(3));
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->from_cache);
}

// Saturation stress across both priority classes with every admission
// mechanism armed; the TSan preset runs race detection over this path.
// Every response must be either OK (with decision/degraded agreeing) or
// the well-formed shed answer — never an internal error.
TEST_F(ServiceEngineTest, ConcurrentSaturationWithAdmissionControl) {
  EngineOptions options = BaseEngine();
  options.num_threads = 2;
  options.admission.interactive_queue_limit = 4;
  options.admission.batch_queue_limit = 2;
  options.admission.degrade_watermark = 2;
  options.admission.client_rate = 1000.0;  // high: exercised, rarely trips
  options.cache_capacity = 16;  // churn eviction under load
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  constexpr int kClientThreads = 4;
  constexpr int kIterations = 30;
  std::atomic<int> failures{0};
  std::atomic<int> ok_count{0}, shed_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const std::string client_id = "stress-" + std::to_string(t);
      std::vector<std::future<Result<QueryResponse>>> pending;
      for (int i = 0; i < kIterations; ++i) {
        const Vertex v =
            static_cast<Vertex>((t * 41 + i * 13) % graph_.NumVertices());
        const PriorityClass priority =
            i % 3 == 0 ? PriorityClass::kBatch : PriorityClass::kInteractive;
        auto submitted = (*engine)->Submit(QueryRequest::ForVertex(v)
                                               .WithPriority(priority)
                                               .WithClientId(client_id));
        if (!submitted.ok()) {
          failures.fetch_add(1);
          continue;
        }
        pending.push_back(std::move(submitted.value()));
        if (i % 7 == 0 && (*engine)->admission() != nullptr) {
          (void)(*engine)->admission()->level();
          (void)(*engine)->admission()->queue_depth(priority);
        }
      }
      for (auto& future : pending) {
        auto response = future.get();
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (response->status.ok()) {
          if (response->degraded !=
              (response->decision == AdmissionDecision::kDegraded)) {
            failures.fetch_add(1);
          }
          ok_count.fetch_add(1);
        } else if (response->status.code() == StatusCode::kUnavailable &&
                   IsShed(response->decision)) {
          shed_count.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ok_count.load() + shed_count.load(),
            kClientThreads * kIterations);
  EXPECT_GT(ok_count.load(), 0);
  // Shed responses never reach the cache.
  EXPECT_LE((*engine)->CacheSize(), static_cast<size_t>(ok_count.load()));
}

// ------------------------------------------------------- workspace recycling

TEST_F(ServiceEngineTest, KernelConvenienceOverloadsRecycleWorkspaces) {
  TopKSearcher kernel(graph_, BaseSearch());
  kernel.BuildIndex();
  EXPECT_EQ(kernel.pooled_workspaces(), 0u);
  (void)kernel.Query(0);
  EXPECT_EQ(kernel.pooled_workspaces(), 1u);
  // A loop of convenience calls reuses the one parked workspace instead of
  // re-paying the O(n) construction each iteration.
  for (Vertex v = 0; v < 10; ++v) (void)kernel.Query(v);
  EXPECT_EQ(kernel.pooled_workspaces(), 1u);
  // The serial all-vertices runner borrows from the same freelist.
  (void)RunAllPairs(kernel);
  EXPECT_EQ(kernel.pooled_workspaces(), 1u);
}

// Arena recycling under concurrency: pooled workspaces (each owning a
// per-query arena) migrate between worker threads through the freelist
// mutex. TSan checks the hand-off; the steady-state gauge checks that the
// arenas were presized right — a workspace must reach its high-water mark
// in its first generation and never malloc again, no matter which thread
// runs it or in what order queries land.
TEST_F(ServiceEngineTest, ArenaRecyclingStaysAllocationFreeUnderLoad) {
  EngineOptions options = BaseEngine();
  options.num_threads = 3;
  options.cache_capacity = 4;  // tiny: most queries actually compute
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  const uint64_t steady_before = Arena::TotalSteadyStateAllocs();
  constexpr int kClientThreads = 3;
  constexpr int kIterations = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<Result<QueryResponse>>> pending;
      for (int i = 0; i < kIterations; ++i) {
        const Vertex v =
            static_cast<Vertex>((t * 53 + i * 17) % graph_.NumVertices());
        auto submitted = (*engine)->Submit(QueryRequest::ForVertex(v));
        if (submitted.ok()) {
          pending.push_back(std::move(submitted.value()));
        } else {
          failures.fetch_add(1);
        }
      }
      for (auto& future : pending) {
        auto response = future.get();
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  // Every per-query arena was reserved to its workload's high-water mark
  // at workspace construction: zero warm-arena mallocs across the storm.
  EXPECT_EQ(Arena::TotalSteadyStateAllocs(), steady_before);
}

// ------------------------------------------------------------------- stress

TEST_F(ServiceEngineTest, ConcurrentSubmissionStress) {
  EngineOptions options = BaseEngine();
  options.num_threads = 4;
  options.admission.degrade_watermark = 8;
  options.cache_capacity = 32;  // small, so eviction churns under load
  auto engine = QueryEngine::Create(graph_, options);
  ASSERT_TRUE(engine.ok());

  constexpr int kClientThreads = 4;
  constexpr int kIterations = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      std::vector<std::future<Result<QueryResponse>>> pending;
      for (int i = 0; i < kIterations; ++i) {
        const Vertex v =
            static_cast<Vertex>((t * 37 + i * 11) % graph_.NumVertices());
        switch (i % 4) {
          case 0: {
            auto submitted = (*engine)->Submit(QueryRequest::ForVertex(v));
            if (submitted.ok()) {
              pending.push_back(std::move(submitted.value()));
            } else {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto response = (*engine)->Query(QueryRequest::ForVertex(v));
            if (!response.ok() || !response->status.ok()) failures.fetch_add(1);
            break;
          }
          case 2: {
            auto response = (*engine)->Query(
                QueryRequest::ForGroup({v, (v + 1) % graph_.NumVertices()}));
            if (!response.ok() || !response->status.ok()) failures.fetch_add(1);
            break;
          }
          default:
            (*engine)->InvalidateCache();
            (void)(*engine)->CacheSize();
            break;
        }
      }
      for (auto& future : pending) {
        auto response = future.get();
        if (!response.ok() || !response->status.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
}

// ------------------------------------------------------- result cache (unit)

TEST(ResultCacheTest, LookupInsertRefreshClear) {
  ResultCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
  const std::vector<ScoredVertex> top = {{7, 0.5}};
  CacheKey key{.vertices = {1}, .group = false, .k = 10, .threshold_bits = 0};
  std::vector<ScoredVertex> out;
  EXPECT_FALSE(cache.Lookup(key, &out));
  cache.Insert(key, top);
  ASSERT_TRUE(cache.Lookup(key, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].vertex, 7u);
  // Refresh does not duplicate.
  cache.Insert(key, top);
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

CacheKey VertexKey(Vertex v) {
  return CacheKey{.vertices = {v}, .group = false, .k = 10};
}

TEST(ResultCacheTest, NeverHoldsMoreThanCapacity) {
  ResultCache cache(10);
  for (Vertex v = 0; v < 40; ++v) {
    cache.Insert(VertexKey(v), {{v, 0.5}});
    EXPECT_LE(cache.size(), 10u);
  }
  EXPECT_EQ(cache.size(), 10u);
  // The ten most recent inserts are the ones held.
  std::vector<ScoredVertex> out;
  for (Vertex v = 30; v < 40; ++v) {
    EXPECT_TRUE(cache.Lookup(VertexKey(v), &out));
  }
}

TEST(ResultCacheTest, EvictsTheLeastRecentlyUsedEntryOfTheWholeCache) {
  ResultCache cache(10);
  for (Vertex v = 1; v <= 10; ++v) cache.Insert(VertexKey(v), {{v, 0.5}});
  std::vector<ScoredVertex> out;
  ASSERT_TRUE(cache.Lookup(VertexKey(1), &out));  // 2 is now the oldest
  cache.Insert(VertexKey(11), {{11, 0.5}});
  EXPECT_EQ(cache.size(), 10u);
  for (Vertex v = 1; v <= 11; ++v) {
    EXPECT_EQ(cache.Lookup(VertexKey(v), &out), v != 2) << v;
  }
}

}  // namespace
}  // namespace simrank::service
