// Tests for group requests (aggregated similarity to a set of vertices):
// the engine's score-sum voting over the members' single-vertex rankings.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "service/query_engine.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"

namespace simrank {
namespace {

using service::QueryEngine;
using service::QueryRequest;
using service::QueryResponse;

SearchOptions Options() {
  SearchOptions options;
  options.k = 8;
  options.threshold = 0.01;
  options.seed = 404;
  return options;
}

std::unique_ptr<QueryEngine> MakeEngine(const DirectedGraph& graph,
                                        const SearchOptions& search) {
  service::EngineOptions options;
  options.search = search;
  options.num_threads = 1;
  options.cache_capacity = 0;
  Result<std::unique_ptr<QueryEngine>> engine =
      QueryEngine::Create(graph, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

QueryResponse Group(QueryEngine& engine, std::vector<Vertex> group) {
  Result<QueryResponse> response =
      engine.Query(QueryRequest::ForGroup(std::move(group)));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->status.ok());
  return std::move(response).value();
}

TEST(GroupRequestTest, SingleMemberMatchesPlainQuery) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1101, 60);
  TopKSearcher searcher(graph, Options());
  searcher.BuildIndex();
  const std::unique_ptr<QueryEngine> engine = MakeEngine(graph, Options());
  const auto single = searcher.Query(7).top;
  const auto grouped = Group(*engine, {7}).top;
  ASSERT_EQ(single.size(), grouped.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].vertex, grouped[i].vertex);
    EXPECT_DOUBLE_EQ(single[i].score, grouped[i].score);
  }
}

TEST(GroupRequestTest, MembersAreNeverRecommended) {
  const DirectedGraph star = MakeStar(8);
  SearchOptions options = Options();
  options.threshold = 0.0;
  const std::unique_ptr<QueryEngine> engine = MakeEngine(star, options);
  const QueryResponse result = Group(*engine, {1, 2, 3});
  for (const ScoredVertex& entry : result.top) {
    EXPECT_NE(entry.vertex, 1u);
    EXPECT_NE(entry.vertex, 2u);
    EXPECT_NE(entry.vertex, 3u);
  }
  // The remaining leaves are similar to every member and should rank.
  EXPECT_FALSE(result.top.empty());
}

TEST(GroupRequestTest, SharedCandidateAccumulatesVotes) {
  // Star leaves: every leaf is similar to every other. A candidate leaf
  // similar to all three members must out-rank one similar to just one
  // member... on the symmetric star all candidates tie, so instead check
  // that the aggregated score of a candidate is (about) the sum of its
  // per-member scores.
  const DirectedGraph star = MakeStar(6);
  SearchOptions options = Options();
  options.threshold = 0.0;
  TopKSearcher searcher(star, options);
  searcher.BuildIndex();
  const std::unique_ptr<QueryEngine> engine = MakeEngine(star, options);
  const std::vector<Vertex> group = {1, 2};
  const auto grouped = Group(*engine, group).top;
  ASSERT_FALSE(grouped.empty());
  // Candidate leaf 3: sum of Query(1) and Query(2) scores for 3.
  double expected = 0.0;
  for (Vertex member : group) {
    for (const ScoredVertex& entry : searcher.Query(member).top) {
      if (entry.vertex == 3) expected += entry.score;
    }
  }
  double actual = 0.0;
  for (const ScoredVertex& entry : grouped) {
    if (entry.vertex == 3) actual = entry.score;
  }
  EXPECT_DOUBLE_EQ(actual, expected);
}

TEST(GroupRequestTest, StatsAreAccumulated) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1102, 60);
  TopKSearcher searcher(graph, Options());
  searcher.BuildIndex();
  const std::unique_ptr<QueryEngine> engine = MakeEngine(graph, Options());
  const std::vector<Vertex> group = {1, 2, 3};
  const QueryResponse result = Group(*engine, group);
  uint64_t individual = 0;
  for (Vertex member : group) {
    individual += searcher.Query(member).stats.candidates_enumerated;
  }
  EXPECT_EQ(result.stats.candidates_enumerated, individual);
}

TEST(GroupRequestTest, RepeatedGroupQueriesAreIndependent) {
  // Votes accumulate per call: an interleaved group leaves nothing behind.
  const DirectedGraph graph = testing::SmallRandomGraph(100, 1103, 60);
  const std::unique_ptr<QueryEngine> engine = MakeEngine(graph, Options());
  const auto first = Group(*engine, {1, 2}).top;
  Group(*engine, {50, 51});
  const auto again = Group(*engine, {1, 2}).top;
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].vertex, again[i].vertex);
    EXPECT_DOUBLE_EQ(first[i].score, again[i].score);
  }
}

TEST(GroupRequestTest, EmptyGroupIsRejected) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 1104, 30);
  const std::unique_ptr<QueryEngine> engine = MakeEngine(graph, Options());
  const Result<QueryResponse> response =
      engine->Query(QueryRequest::ForGroup({}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace simrank
