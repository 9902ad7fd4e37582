// The SearcherBackend contract, enforced over every registered backend:
// each implementation must agree with the exact linear-formulation oracle
// within its advertised accuracy, honor the query limits and survive the
// degenerate graphs; the engine's group voting composes any of them. The
// Monte-Carlo index round trip is covered by test_simrank_serialization.cc.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "service/query_engine.h"
#include "simrank/backend_exact.h"
#include "simrank/backend_mc.h"
#include "simrank/diagonal.h"
#include "simrank/linear.h"
#include "simrank/searcher_backend.h"
#include "test_helpers.h"

namespace simrank {
namespace {

SearchOptions ContractOptions() {
  SearchOptions options;
  options.k = 10;
  options.threshold = 0.001;
  options.seed = 555;
  return options;
}

class BackendContractTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  BackendContractTest() : graph_(testing::SmallRandomGraph(120, 977, 60)) {}

  std::unique_ptr<SearcherBackend> MakeBuilt(
      const DirectedGraph& graph, SearchOptions options = ContractOptions()) {
    std::unique_ptr<SearcherBackend> backend =
        MakeBackend(GetParam(), graph, options);
    backend->Build();
    return backend;
  }

  /// Absolute per-score tolerance vs the exact oracle. Monte-Carlo pays
  /// sampling variance (deterministic per seed, so the bound is tested
  /// once, not flakily); the exact backend is the oracle up to float
  /// noise.
  double Tolerance() const {
    switch (GetParam()) {
      case BackendKind::kMonteCarlo:
        return 0.12;
      case BackendKind::kExact:
        return 1e-9;
    }
    return 0.0;
  }

  LinearSimRank Oracle(const DirectedGraph& graph) const {
    const SearchOptions options = ContractOptions();
    return LinearSimRank(
        graph, options.simrank,
        UniformDiagonal(graph.NumVertices(), options.simrank.decay));
  }

  /// An engine serving this backend with the contract options.
  service::EngineOptions EngineOptionsFor() const {
    service::EngineOptions options;
    options.search = ContractOptions();
    options.backend = static_cast<BackendChoice>(GetParam());
    options.num_threads = 1;
    return options;
  }

  DirectedGraph graph_;
};

TEST_P(BackendContractTest, KindNameRoundTrips) {
  std::unique_ptr<SearcherBackend> backend =
      MakeBackend(GetParam(), graph_, ContractOptions());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->kind(), GetParam());
  EXPECT_EQ(ParseBackendKind(backend->name()), GetParam());
}

TEST_P(BackendContractTest, BuildIsIdempotentAndReportsState) {
  std::unique_ptr<SearcherBackend> backend =
      MakeBackend(GetParam(), graph_, ContractOptions());
  EXPECT_FALSE(backend->built());
  backend->Build();
  EXPECT_TRUE(backend->built());
  const std::vector<ScoredVertex> first = backend->Query(3).top;
  backend->Build();  // must be a no-op
  EXPECT_TRUE(backend->built());
  const std::vector<ScoredVertex> second = backend->Query(3).top;
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].vertex, second[i].vertex);
    EXPECT_EQ(first[i].score, second[i].score);
  }
  // Only the Monte-Carlo backend holds an index.
  if (GetParam() == BackendKind::kMonteCarlo) {
    EXPECT_GT(backend->MemoryBytes(), 0u);
  } else {
    EXPECT_EQ(backend->MemoryBytes(), 0u);
  }
}

TEST_P(BackendContractTest, TopKScoresMatchExactOracle) {
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph_);
  const LinearSimRank oracle = Oracle(graph_);
  const SearchOptions options = ContractOptions();
  for (Vertex u : {Vertex{0}, Vertex{7}, Vertex{23}, Vertex{55}}) {
    const QueryResult result = backend->Query(u);
    const std::vector<double> row = oracle.SingleSource(u);
    EXPECT_LE(result.top.size(), options.k);
    double previous = 2.0;
    for (const ScoredVertex& entry : result.top) {
      EXPECT_NE(entry.vertex, u) << "self-result for query " << u;
      EXPECT_LE(entry.score, previous) << "ranking not sorted";
      previous = entry.score;
      EXPECT_GE(entry.score, options.threshold);
      EXPECT_NEAR(entry.score, row[entry.vertex], Tolerance())
          << "query " << u << " result " << entry.vertex;
    }
  }
}

TEST_P(BackendContractTest, TopResultIsNearOracleBest) {
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph_);
  const LinearSimRank oracle = Oracle(graph_);
  for (Vertex u : {Vertex{5}, Vertex{40}}) {
    const std::vector<ScoredVertex> exact_top = oracle.TopK(u, 1);
    ASSERT_FALSE(exact_top.empty());
    const QueryResult result = backend->Query(u);
    ASSERT_FALSE(result.top.empty()) << "query " << u;
    // The backend's best answer must score at least as well (under the
    // oracle's measure) as the true best, minus the accuracy budget.
    EXPECT_GE(result.top.front().score + Tolerance(), exact_top.front().score)
        << "query " << u;
  }
}

TEST_P(BackendContractTest, GroupQueryAggregatesPerMemberRankings) {
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph_);
  const std::vector<Vertex> group = {1, 2, 3};
  auto engine = service::QueryEngine::Create(graph_, EngineOptionsFor());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = (*engine)->Query(service::QueryRequest::ForGroup(group));
  ASSERT_TRUE(result.ok());
  // Reference semantics: score-sum voting over the members' individual
  // rankings, members never recommended.
  std::unordered_map<Vertex, double> votes;
  for (Vertex member : group) {
    for (const ScoredVertex& entry : backend->Query(member).top) {
      votes[entry.vertex] += entry.score;
    }
  }
  for (Vertex member : group) votes.erase(member);
  EXPECT_LE(result->top.size(), ContractOptions().k);
  for (const ScoredVertex& entry : result->top) {
    for (Vertex member : group) EXPECT_NE(entry.vertex, member);
    const auto it = votes.find(entry.vertex);
    ASSERT_NE(it, votes.end()) << "vote for " << entry.vertex;
    EXPECT_NEAR(entry.score, it->second, 1e-9) << entry.vertex;
  }
}

TEST_P(BackendContractTest, SingletonGraph) {
  const DirectedGraph graph = testing::GraphFromEdges(1, {});
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph);
  EXPECT_TRUE(backend->Query(0).top.empty());
}

TEST_P(BackendContractTest, DisconnectedVerticesScoreZero) {
  // Vertices 2 and 3 are isolated: no walk meets, so nothing scores.
  const DirectedGraph graph = testing::GraphFromEdges(4, {{0, 1}, {1, 0}});
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph);
  EXPECT_TRUE(backend->Query(2).top.empty());
  EXPECT_TRUE(backend->Query(3).top.empty());
}

TEST_P(BackendContractTest, ZeroScoresAreNotAnswers) {
  // At threshold 0 every vertex the search reaches passes the threshold,
  // so only the score > 0 rule keeps unrelated vertices out.
  const DirectedGraph graph =
      testing::GraphFromEdges(6, {{4, 0}, {5, 2}, {5, 1}, {0, 3}, {2, 3}});
  SearchOptions options = ContractOptions();
  options.threshold = 0.0;
  options.use_index = false;
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph, options);
  for (Vertex u : {Vertex{0}, Vertex{1}}) {
    for (const ScoredVertex& entry : backend->Query(u).top) {
      EXPECT_GT(entry.score, 0.0) << "query " << u << " lists "
                                  << entry.vertex;
    }
  }
  service::EngineOptions engine_options = EngineOptionsFor();
  engine_options.search = options;
  auto engine = service::QueryEngine::Create(graph, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto group = (*engine)->Query(service::QueryRequest::ForGroup({0, 1}));
  ASSERT_TRUE(group.ok());
  size_t listed = 0;
  for (const ScoredVertex& entry : group->top) {
    EXPECT_GT(entry.score, 0.0);
    if (entry.vertex == 2) ++listed;
  }
  EXPECT_EQ(listed, 1u);
}

TEST_P(BackendContractTest, QueryOverridesApply) {
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph_);
  QueryOverrides overrides;
  overrides.k = 2;
  EXPECT_LE(backend->Query(7, overrides).top.size(), 2u);
  overrides.k.reset();
  overrides.threshold = 0.9;  // nothing scores this high
  EXPECT_TRUE(backend->Query(7, overrides).top.empty());
}

TEST_P(BackendContractTest, DeterministicBackendsIgnoreTheSeed) {
  if (GetParam() == BackendKind::kMonteCarlo) {
    GTEST_SKIP() << "sampling backend: seeds are meant to matter";
  }
  std::unique_ptr<SearcherBackend> backend = MakeBuilt(graph_);
  SearchOptions reseeded = ContractOptions();
  reseeded.seed += 1;
  std::unique_ptr<SearcherBackend> other = MakeBuilt(graph_, reseeded);
  for (Vertex u : {Vertex{0}, Vertex{31}, Vertex{99}}) {
    const std::vector<ScoredVertex> a = backend->Query(u).top;
    const std::vector<ScoredVertex> b = other->Query(u).top;
    ASSERT_EQ(a.size(), b.size()) << u;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vertex, b[i].vertex);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContractTest,
    ::testing::ValuesIn(RegisteredBackends().begin(),
                        RegisteredBackends().end()),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return std::string(BackendKindName(info.param));
    });

// The refactor's golden test: the Monte-Carlo backend is a transparent
// adapter — with the same options and seed it must reproduce the direct
// TopKSearcher's rankings bit for bit, scores included.
TEST(MonteCarloBackendGoldenTest, BitIdenticalToDirectSearcher) {
  const DirectedGraph graph = testing::SmallRandomGraph(120, 977, 60);
  const SearchOptions options = ContractOptions();
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  MonteCarloBackend backend(graph, options);
  backend.Build();
  for (Vertex u = 0; u < 120; u += 9) {
    const std::vector<ScoredVertex> direct = searcher.Query(u).top;
    const std::vector<ScoredVertex> adapted = backend.Query(u).top;
    ASSERT_EQ(direct.size(), adapted.size()) << u;
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(direct[i].vertex, adapted[i].vertex) << u;
      EXPECT_EQ(direct[i].score, adapted[i].score) << u;
    }
  }
}

TEST(BackendRegistryTest, EveryRegisteredKindConstructs) {
  const DirectedGraph graph = testing::SmallRandomGraph(30, 5);
  for (BackendKind kind : RegisteredBackends()) {
    std::unique_ptr<SearcherBackend> backend =
        MakeBackend(kind, graph, ContractOptions());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
  }
}

}  // namespace
}  // namespace simrank
