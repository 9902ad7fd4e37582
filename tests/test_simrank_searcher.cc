// End-to-end tests of the TopKSearcher (Algorithm 5 + preprocess): result
// quality against exact ground truth, pruning correctness, option
// ablations, determinism, and edge cases.

#include "simrank/top_k_searcher.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "simrank/all_pairs.h"
#include "simrank/linear.h"
#include "simrank/partial_sums.h"
#include "simrank/yu_all_pairs.h"
#include "test_helpers.h"

namespace simrank {
namespace {

SearchOptions DefaultOptions() {
  SearchOptions options;
  options.simrank.decay = 0.6;
  options.simrank.num_steps = 11;
  options.k = 10;
  options.threshold = 0.02;
  options.seed = 9000;
  return options;
}

// Shared fixture: one mid-size community graph with exact ground truth.
class SearcherQualityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new DirectedGraph(testing::SmallRandomGraph(300, 601, 150));
    SimRankParams params;
    params.decay = 0.6;
    params.num_steps = 11;
    exact_ = new DenseMatrix(ComputeSimRankPartialSums(*graph_, params));
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete exact_;
    graph_ = nullptr;
    exact_ = nullptr;
  }

  static DirectedGraph* graph_;
  static DenseMatrix* exact_;
};

DirectedGraph* SearcherQualityTest::graph_ = nullptr;
DenseMatrix* SearcherQualityTest::exact_ = nullptr;

// Ground truth the algorithm actually targets: the truncated linear score
// under the searcher's own diagonal.
std::vector<ScoredVertex> OracleTopK(const DirectedGraph& graph,
                                     const TopKSearcher& searcher, Vertex u,
                                     uint32_t k, double threshold) {
  const LinearSimRank oracle(graph, searcher.options().simrank,
                             searcher.diagonal());
  return oracle.TopK(u, k, threshold);
}

TEST_F(SearcherQualityTest, HighScoreRecallWithEstimatedDiagonal) {
  // The paper's Table 3 metric against *true* SimRank: fraction of
  // vertices with exact score >= threshold that the search recovers. With
  // the fixed-point D estimate the engine tracks true SimRank (measured
  // score ratio ~0.99), reproducing the paper's 0.95+ accuracy.
  SearchOptions options = DefaultOptions();
  options.estimate_diagonal = true;
  options.k = 60;
  options.threshold = 0.032;
  TopKSearcher searcher(*graph_, options);
  searcher.BuildIndex();
  QueryWorkspace workspace(searcher);
  double recall_sum = 0.0;
  int queries = 0;
  std::vector<double> row(graph_->NumVertices());
  for (Vertex u = 0; u < graph_->NumVertices(); u += 7) {
    for (Vertex v = 0; v < graph_->NumVertices(); ++v) {
      row[v] = exact_->At(u, v);
    }
    const auto truth = eval::HighScoreSet(row, 0.04, u);
    if (truth.size() < 2) continue;
    const QueryResult result = searcher.Query(u, workspace);
    recall_sum += eval::RecallOfSet(result.top, truth);
    ++queries;
  }
  ASSERT_GT(queries, 10);
  EXPECT_GT(recall_sum / queries, 0.85);
}

TEST_F(SearcherQualityTest, TopKMatchesOracleGroundTruth) {
  TopKSearcher searcher(*graph_, DefaultOptions());
  searcher.BuildIndex();
  QueryWorkspace workspace(searcher);
  double precision_sum = 0.0;
  int queries = 0;
  for (Vertex u = 0; u < graph_->NumVertices(); u += 7) {
    const auto truth = OracleTopK(*graph_, searcher, u, 10, 0.02);
    if (truth.size() < 3) continue;  // vertex with no similar peers
    const QueryResult result = searcher.Query(u, workspace);
    precision_sum += eval::PrecisionAtK(result.top, truth, truth.size());
    ++queries;
  }
  ASSERT_GT(queries, 10);
  EXPECT_GT(precision_sum / queries, 0.78);
}

TEST_F(SearcherQualityTest, UniformDiagonalOnlyRescalesScores) {
  // Figure 1's claim, as a test: for high-scoring pairs the approximated
  // scores are (nearly) proportional to the true ones — log-log
  // correlation close to 1 — so top-k rankings survive the approximation.
  SimRankParams params;
  params.decay = 0.6;
  params.num_steps = 11;
  const LinearSimRank oracle(
      *graph_, params, UniformDiagonal(graph_->NumVertices(), 0.6));
  std::vector<ScoredVertex> approx, truth;
  for (Vertex u = 0; u < graph_->NumVertices(); u += 11) {
    const std::vector<double> row = oracle.SingleSource(u);
    for (Vertex v = 0; v < graph_->NumVertices(); ++v) {
      if (v != u && exact_->At(u, v) >= 0.04) {
        // Key the pair by a synthetic id for the correlation metric.
        const uint32_t pair_id =
            u * graph_->NumVertices() + v;
        truth.push_back({pair_id, exact_->At(u, v)});
        approx.push_back({pair_id, row[v]});
      }
    }
  }
  ASSERT_GT(truth.size(), 50u);
  EXPECT_GT(eval::LogLogCorrelation(approx, truth), 0.8);
}

TEST_F(SearcherQualityTest, ReportedScoresAreAccurate) {
  TopKSearcher searcher(*graph_, DefaultOptions());
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(4);
  for (const ScoredVertex& entry : result.top) {
    // With D=(1-c)I, truth is the truncated linear score, whose dense
    // matrix counterpart differs only via D; compare against the exact
    // truncated score directly.
    SimRankParams params;
    params.decay = 0.6;
    params.num_steps = 11;
    const LinearSimRank linear(
        *graph_, params, UniformDiagonal(graph_->NumVertices(), 0.6));
    EXPECT_NEAR(entry.score, linear.SinglePair(4, entry.vertex), 0.08)
        << entry.vertex;
    break;  // one pair suffices for cost; the loop documents intent
  }
}

TEST_F(SearcherQualityTest, IndexFreeSearchIsComparablyAccurate) {
  SearchOptions options = DefaultOptions();
  options.use_index = false;  // ascending-distance enumeration
  TopKSearcher searcher(*graph_, options);
  searcher.BuildIndex();
  QueryWorkspace workspace(searcher);
  double precision_sum = 0.0;
  int queries = 0;
  for (Vertex u = 0; u < graph_->NumVertices(); u += 13) {
    const auto truth = OracleTopK(*graph_, searcher, u, 10, 0.02);
    if (truth.size() < 3) continue;
    const QueryResult result = searcher.Query(u, workspace);
    precision_sum += eval::PrecisionAtK(result.top, truth, truth.size());
    ++queries;
  }
  ASSERT_GT(queries, 5);
  EXPECT_GT(precision_sum / queries, 0.78);
}

TEST_F(SearcherQualityTest, PruningDisabledDoesNotChangeQualityMuch) {
  // Soundness of the bounds: switching all pruning off must not *improve*
  // precision by more than noise, since bounds only discard provably-small
  // candidates.
  SearchOptions pruned = DefaultOptions();
  SearchOptions unpruned = DefaultOptions();
  unpruned.use_distance_bound = false;
  unpruned.use_l1_bound = false;
  unpruned.use_l2_bound = false;
  unpruned.adaptive_sampling = false;
  TopKSearcher searcher_pruned(*graph_, pruned);
  TopKSearcher searcher_unpruned(*graph_, unpruned);
  searcher_pruned.BuildIndex();
  searcher_unpruned.BuildIndex();
  QueryWorkspace ws_a(searcher_pruned), ws_b(searcher_unpruned);
  double delta_sum = 0.0;
  int queries = 0;
  for (Vertex u = 0; u < graph_->NumVertices(); u += 17) {
    const auto truth = TopKFromMatrix(*exact_, u, 10, 0.02);
    if (truth.size() < 3) continue;
    const double p_pruned = eval::PrecisionAtK(
        searcher_pruned.Query(u, ws_a).top, truth, truth.size());
    const double p_unpruned = eval::PrecisionAtK(
        searcher_unpruned.Query(u, ws_b).top, truth, truth.size());
    delta_sum += p_unpruned - p_pruned;
    ++queries;
  }
  ASSERT_GT(queries, 5);
  EXPECT_LT(delta_sum / queries, 0.10);
}

TEST_F(SearcherQualityTest, PruningReducesRefinements) {
  SearchOptions pruned = DefaultOptions();
  SearchOptions unpruned = DefaultOptions();
  unpruned.use_distance_bound = false;
  unpruned.use_l1_bound = false;
  unpruned.use_l2_bound = false;
  unpruned.adaptive_sampling = false;
  TopKSearcher searcher_pruned(*graph_, pruned);
  TopKSearcher searcher_unpruned(*graph_, unpruned);
  searcher_pruned.BuildIndex();
  searcher_unpruned.BuildIndex();
  uint64_t refined_pruned = 0, refined_unpruned = 0;
  QueryWorkspace ws_a(searcher_pruned), ws_b(searcher_unpruned);
  for (Vertex u = 0; u < 100; u += 5) {
    refined_pruned += searcher_pruned.Query(u, ws_a).stats.refined;
    refined_unpruned += searcher_unpruned.Query(u, ws_b).stats.refined;
  }
  EXPECT_LT(refined_pruned, refined_unpruned);
}

TEST_F(SearcherQualityTest, StatsAccounting) {
  TopKSearcher searcher(*graph_, DefaultOptions());
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(10);
  const QueryStats& stats = result.stats;
  // Every enumerated candidate is pruned, skipped after estimate, or
  // refined.
  EXPECT_EQ(stats.candidates_enumerated,
            stats.pruned_by_distance + stats.pruned_by_l1 +
                stats.pruned_by_l2 + stats.skipped_after_estimate +
                stats.refined);
  EXPECT_EQ(stats.rough_estimates,
            stats.skipped_after_estimate + stats.refined);
  EXPECT_GE(stats.seconds, 0.0);
}

TEST_F(SearcherQualityTest, DeterministicAcrossRuns) {
  TopKSearcher searcher(*graph_, DefaultOptions());
  searcher.BuildIndex();
  const QueryResult a = searcher.Query(42);
  const QueryResult b = searcher.Query(42);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].vertex, b.top[i].vertex);
    EXPECT_DOUBLE_EQ(a.top[i].score, b.top[i].score);
  }
}

TEST_F(SearcherQualityTest, AllPairsMatchesIndividualQueries) {
  // The all-vertices runner is the plain query run for every vertex, on
  // one thread or four: each query's stream depends only on (seed, u).
  TopKSearcher searcher(*graph_, DefaultOptions());
  searcher.BuildIndex();
  const AllPairsShard serial = RunAllPairs(searcher);
  ThreadPool pool(4);
  AllPairsOptions options;
  options.pool = &pool;
  const AllPairsShard parallel = RunAllPairs(searcher, options);
  ASSERT_EQ(serial.rankings.size(), graph_->NumVertices());
  ASSERT_EQ(parallel.rankings.size(), graph_->NumVertices());
  for (size_t u = 0; u < serial.rankings.size(); ++u) {
    ASSERT_EQ(serial.rankings[u].size(), parallel.rankings[u].size()) << u;
    for (size_t i = 0; i < serial.rankings[u].size(); ++i) {
      EXPECT_EQ(serial.rankings[u][i].vertex, parallel.rankings[u][i].vertex);
      EXPECT_EQ(serial.rankings[u][i].score, parallel.rankings[u][i].score);
    }
  }
  QueryWorkspace workspace(searcher);
  for (Vertex u : {3u, 77u, 200u}) {
    const QueryResult single = searcher.Query(u, workspace);
    ASSERT_EQ(serial.rankings[u].size(), single.top.size()) << u;
    for (size_t i = 0; i < single.top.size(); ++i) {
      EXPECT_EQ(serial.rankings[u][i].vertex, single.top[i].vertex);
      EXPECT_EQ(serial.rankings[u][i].score, single.top[i].score);
    }
  }
}

// ---------- edge cases on tiny graphs ----------

TEST(SearcherEdgeCaseTest, ResultsRespectKAndThreshold) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 602, 50);
  SearchOptions options = DefaultOptions();
  options.k = 5;
  options.threshold = 0.05;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  for (Vertex u = 0; u < 100; u += 9) {
    const QueryResult result = searcher.Query(u);
    EXPECT_LE(result.top.size(), 5u);
    for (const ScoredVertex& entry : result.top) {
      EXPECT_GE(entry.score, 0.05);
      EXPECT_NE(entry.vertex, u);
    }
    // Best-first ordering.
    for (size_t i = 0; i + 1 < result.top.size(); ++i) {
      EXPECT_GE(result.top[i].score, result.top[i + 1].score);
    }
  }
}

TEST(SearcherEdgeCaseTest, KLargerThanGraph) {
  const DirectedGraph graph = testing::ExampleOneStar();
  SearchOptions options = DefaultOptions();
  options.k = 100;
  options.threshold = 0.0;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(1);
  EXPECT_LE(result.top.size(), 3u);  // at most n-1 others
}

TEST(SearcherEdgeCaseTest, IsolatedVertexReturnsEmpty) {
  GraphBuilder builder;
  builder.ReserveVertices(5);
  builder.AddUndirectedEdge(0, 1);
  builder.AddUndirectedEdge(1, 2);
  const DirectedGraph graph = builder.Build();
  TopKSearcher searcher(graph, DefaultOptions());
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(4);  // isolated
  EXPECT_TRUE(result.top.empty());
}

TEST(SearcherEdgeCaseTest, StarLeavesFindEachOther) {
  const DirectedGraph star = MakeStar(5);
  SearchOptions options = DefaultOptions();
  options.k = 10;
  options.threshold = 0.01;
  TopKSearcher searcher(star, options);
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(1);
  // Every other leaf is similar (shared unique in-neighbor), the center is
  // not.
  std::set<Vertex> found;
  for (const ScoredVertex& entry : result.top) found.insert(entry.vertex);
  for (Vertex leaf = 2; leaf <= 5; ++leaf) {
    EXPECT_TRUE(found.count(leaf)) << leaf;
  }
  EXPECT_FALSE(found.count(0));
}

TEST(SearcherEdgeCaseTest, ThresholdSuppressesWeakMatches) {
  const DirectedGraph star = MakeStar(5);
  SearchOptions options = DefaultOptions();
  options.threshold = 0.99;  // nothing reaches this
  TopKSearcher searcher(star, options);
  searcher.BuildIndex();
  EXPECT_TRUE(searcher.Query(1).top.empty());
}

TEST(SearcherEdgeCaseTest, DifferentSeedsGiveConsistentTopVertex) {
  // MC noise may reorder the tail but the clear winner must be stable.
  const DirectedGraph graph = testing::SmallRandomGraph(80, 603, 40);
  SimRankParams params;
  params.decay = 0.6;
  params.num_steps = 11;
  const DenseMatrix exact = ComputeSimRankPartialSums(graph, params);
  int agreements = 0, trials = 0;
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    SearchOptions options = DefaultOptions();
    options.seed = seed;
    TopKSearcher searcher(graph, options);
    searcher.BuildIndex();
    for (Vertex u : {0u, 10u, 20u}) {
      const auto truth = TopKFromMatrix(exact, u, 1, 0.05);
      if (truth.empty() || truth[0].score < 0.15) continue;
      const QueryResult result = searcher.Query(u);
      ++trials;
      if (!result.top.empty() && result.top[0].vertex == truth[0].vertex) {
        ++agreements;
      }
    }
  }
  if (trials > 0) {
    EXPECT_GE(static_cast<double>(agreements) / trials, 0.7);
  }
}

TEST(SearcherEdgeCaseTest, BudgetBoundQueriesKeepTheirInvariants) {
  // With few L1 walks the BFS edge budget (l1_walks * T edges) binds, so
  // candidates past the BFS frontier are bounded at the frontier distance
  // and can still be answers. The stats identity, the threshold and
  // thread-count determinism hold.
  Rng rng(606);
  const DirectedGraph graph = MakeRmat(10, 8000, rng);
  SearchOptions options = DefaultOptions();
  options.l1_walks = 40;  // a 440-edge BFS on 16,000 undirected arcs
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter& truncated = registry.GetCounter("query.bfs_truncated");
  obs::Histogram& bfs_edges = registry.GetHistogram("query.bfs_edges");
  const uint64_t truncated_before = truncated.Value();
  const uint64_t recorded_before = bfs_edges.Count();
  QueryWorkspace workspace(searcher);
  BfsWorkspace bfs(graph);
  uint64_t queries = 0, answers = 0, answers_past_frontier = 0;
  for (Vertex u = 0; u < graph.NumVertices(); u += 7) {
    const QueryResult result = searcher.Query(u, workspace);
    bfs.Run(u, EdgeDirection::kUndirected, options.max_distance,
            uint64_t{options.l1_walks} * options.simrank.num_steps);
    ++queries;
    const QueryStats& stats = result.stats;
    EXPECT_EQ(stats.candidates_enumerated,
              stats.pruned_by_distance + stats.pruned_by_l1 +
                  stats.pruned_by_l2 + stats.skipped_after_estimate +
                  stats.refined)
        << u;
    EXPECT_EQ(stats.rough_estimates,
              stats.skipped_after_estimate + stats.refined)
        << u;
    for (const ScoredVertex& entry : result.top) {
      EXPECT_GE(entry.score, options.threshold) << u;
      ++answers;
      if (bfs.Distance(entry.vertex) == kInfiniteDistance) {
        ++answers_past_frontier;
      }
    }
  }
  EXPECT_GT(answers_past_frontier, 0u);
  EXPECT_GT(answers, answers_past_frontier);
  EXPECT_EQ(bfs_edges.Count() - recorded_before, queries);
  EXPECT_GT(truncated.Value() - truncated_before, queries / 2);

  const AllPairsShard serial = RunAllPairs(searcher);
  ThreadPool pool(4);
  AllPairsOptions parallel_options;
  parallel_options.pool = &pool;
  const AllPairsShard parallel = RunAllPairs(searcher, parallel_options);
  ASSERT_EQ(serial.rankings.size(), parallel.rankings.size());
  for (size_t u = 0; u < serial.rankings.size(); ++u) {
    ASSERT_EQ(serial.rankings[u].size(), parallel.rankings[u].size()) << u;
    for (size_t i = 0; i < serial.rankings[u].size(); ++i) {
      EXPECT_EQ(serial.rankings[u][i].vertex, parallel.rankings[u][i].vertex);
      EXPECT_EQ(serial.rankings[u][i].score, parallel.rankings[u][i].score);
    }
  }
}

TEST(SearcherEdgeCaseTest, BuildIndexIsIdempotent) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 604, 25);
  TopKSearcher searcher(graph, DefaultOptions());
  searcher.BuildIndex();
  const uint64_t bytes = searcher.PreprocessBytes();
  searcher.BuildIndex();
  EXPECT_EQ(searcher.PreprocessBytes(), bytes);
  EXPECT_TRUE(searcher.index_built());
}

TEST(SearcherEdgeCaseTest, PreprocessBytesCoversGammaAndIndex) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 605, 100);
  TopKSearcher searcher(graph, DefaultOptions());
  searcher.BuildIndex();
  ASSERT_NE(searcher.gamma_table(), nullptr);
  ASSERT_NE(searcher.candidate_index(), nullptr);
  EXPECT_EQ(searcher.PreprocessBytes(),
            searcher.gamma_table()->MemoryBytes() +
                searcher.candidate_index()->MemoryBytes());
}

TEST(SearcherEdgeCaseTest, CustomDiagonalIsHonored) {
  // With a doubled diagonal every reported score doubles (Remark 1), so
  // rankings agree while scores scale.
  const DirectedGraph graph = MakeStar(6);
  SearchOptions options = DefaultOptions();
  options.threshold = 0.0;
  options.adaptive_sampling = false;
  TopKSearcher base(graph, options);
  std::vector<double> doubled = UniformDiagonal(graph.NumVertices(), 0.6);
  for (double& d : doubled) d *= 2.0;
  TopKSearcher scaled(graph, options, doubled);
  base.BuildIndex();
  scaled.BuildIndex();
  const auto a = base.Query(1).top;
  const auto b = scaled.Query(1).top;
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].vertex, b[i].vertex);
    EXPECT_NEAR(b[i].score, 2.0 * a[i].score, 1e-9);
  }
}

}  // namespace
}  // namespace simrank
