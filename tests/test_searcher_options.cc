// Option-matrix coverage for TopKSearcher: every pruning/sampling switch,
// horizon control, and instrumentation semantics.

#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/traversal.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"

namespace simrank {
namespace {

SearchOptions Base() {
  SearchOptions options;
  options.k = 8;
  options.threshold = 0.02;
  options.seed = 31337;
  return options;
}

class SearcherOptionsTest : public ::testing::Test {
 protected:
  SearcherOptionsTest() : graph_(testing::SmallRandomGraph(150, 701, 80)) {}
  DirectedGraph graph_;
};

TEST_F(SearcherOptionsTest, DisabledBoundsNeverReportPrunes) {
  SearchOptions options = Base();
  options.use_distance_bound = false;
  options.use_l1_bound = false;
  options.use_l2_bound = false;
  options.adaptive_sampling = false;
  TopKSearcher searcher(graph_, options);
  searcher.BuildIndex();
  QueryWorkspace workspace(searcher);
  for (Vertex u = 0; u < 60; u += 7) {
    const QueryStats stats = searcher.Query(u, workspace).stats;
    // Only the hard horizon may prune; L1/L2 counters must stay zero.
    EXPECT_EQ(stats.pruned_by_l1, 0u);
    EXPECT_EQ(stats.pruned_by_l2, 0u);
    EXPECT_EQ(stats.rough_estimates, 0u);
    EXPECT_EQ(stats.skipped_after_estimate, 0u);
  }
}

TEST_F(SearcherOptionsTest, L2OnlyConfigurationWorks) {
  SearchOptions options = Base();
  options.use_l1_bound = false;
  options.use_distance_bound = false;
  TopKSearcher searcher(graph_, options);
  searcher.BuildIndex();
  EXPECT_NE(searcher.gamma_table(), nullptr);
  const QueryResult result = searcher.Query(3);
  EXPECT_EQ(result.stats.pruned_by_l1, 0u);
  for (const ScoredVertex& entry : result.top) {
    EXPECT_GE(entry.score, options.threshold);
  }
}

TEST_F(SearcherOptionsTest, L1OnlyConfigurationSkipsGammaTable) {
  SearchOptions options = Base();
  options.use_l2_bound = false;
  TopKSearcher searcher(graph_, options);
  searcher.BuildIndex();
  EXPECT_EQ(searcher.gamma_table(), nullptr);
  const QueryResult result = searcher.Query(3);
  EXPECT_EQ(result.stats.pruned_by_l2, 0u);
  EXPECT_FALSE(result.top.empty());
}

TEST_F(SearcherOptionsTest, MaxDistanceLimitsResults) {
  SearchOptions options = Base();
  options.max_distance = 1;
  options.threshold = 0.0;
  TopKSearcher searcher(graph_, options);
  searcher.BuildIndex();
  BfsWorkspace bfs(graph_);
  for (Vertex u = 0; u < 40; u += 11) {
    const QueryResult result = searcher.Query(u);
    bfs.Run(u, EdgeDirection::kUndirected);
    for (const ScoredVertex& entry : result.top) {
      EXPECT_LE(bfs.Distance(entry.vertex), 1u) << u;
    }
  }
}

TEST_F(SearcherOptionsTest, WiderHorizonFindsSupersetOfCloserHorizon) {
  SearchOptions narrow = Base();
  narrow.max_distance = 2;
  SearchOptions wide = Base();
  wide.max_distance = 8;
  TopKSearcher narrow_searcher(graph_, narrow);
  TopKSearcher wide_searcher(graph_, wide);
  narrow_searcher.BuildIndex();
  wide_searcher.BuildIndex();
  uint64_t narrow_total = 0, wide_total = 0;
  for (Vertex u = 0; u < 60; u += 7) {
    narrow_total += narrow_searcher.Query(u).top.size();
    wide_total += wide_searcher.Query(u).top.size();
  }
  // Not exactly monotone: the horizon also perturbs the Monte-Carlo
  // streams, so individual borderline candidates can flip. Allow that
  // noise while catching any systematic loss.
  EXPECT_GE(wide_total + 3, narrow_total);
}

TEST_F(SearcherOptionsTest, HigherThresholdNeverReturnsMore) {
  SearchOptions low = Base();
  low.threshold = 0.01;
  SearchOptions high = Base();
  high.threshold = 0.1;
  TopKSearcher low_searcher(graph_, low);
  TopKSearcher high_searcher(graph_, high);
  low_searcher.BuildIndex();
  high_searcher.BuildIndex();
  for (Vertex u = 0; u < 60; u += 13) {
    EXPECT_LE(high_searcher.Query(u).top.size(),
              low_searcher.Query(u).top.size())
        << u;
  }
}

TEST_F(SearcherOptionsTest, SeedChangesWalksButIndexStructureIsStable) {
  SearchOptions a = Base();
  SearchOptions b = Base();
  b.seed = a.seed + 1;
  TopKSearcher searcher_a(graph_, a);
  TopKSearcher searcher_b(graph_, b);
  searcher_a.BuildIndex();
  searcher_b.BuildIndex();
  // Different seeds -> different candidate index contents (almost surely).
  EXPECT_NE(searcher_a.candidate_index()->NumEntries(), 0u);
  // Both must produce valid rankings for at least some vertices.
  int nonempty_a = 0, nonempty_b = 0;
  for (Vertex u = 0; u < 60; u += 3) {
    if (!searcher_a.Query(u).top.empty()) ++nonempty_a;
    if (!searcher_b.Query(u).top.empty()) ++nonempty_b;
  }
  EXPECT_GT(nonempty_a, 5);
  EXPECT_GT(nonempty_b, 5);
}

TEST_F(SearcherOptionsTest, SmallerEstimateWalksStillSound) {
  SearchOptions options = Base();
  options.estimate_walks = 1;  // extreme rough pass
  options.adaptive_margin = 0.01;
  TopKSearcher searcher(graph_, options);
  searcher.BuildIndex();
  const QueryResult result = searcher.Query(2);
  for (const ScoredVertex& entry : result.top) {
    EXPECT_GE(entry.score, options.threshold);
  }
}

TEST_F(SearcherOptionsTest, QueryBeforeBuildIndexDiesWhenIndexRequired) {
  TopKSearcher searcher(graph_, Base());
  EXPECT_DEATH(searcher.Query(0), "CHECK failed");
}

TEST_F(SearcherOptionsTest, EstimateDiagonalRequiresBuildIndex) {
  SearchOptions options = Base();
  options.estimate_diagonal = true;
  options.use_index = false;
  options.use_l2_bound = false;
  TopKSearcher searcher(graph_, options);
  EXPECT_DEATH(searcher.Query(0), "CHECK failed");
  searcher.BuildIndex();
  EXPECT_GT(searcher.diagonal_seconds(), 0.0);
  // After the estimate, diagonal entries respect Proposition 2's range
  // (clamped to [0, 1] with MC noise).
  for (double d : searcher.diagonal()) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST_F(SearcherOptionsTest, ExplicitDiagonalDisablesEstimation) {
  SearchOptions options = Base();
  options.estimate_diagonal = true;  // must be ignored
  std::vector<double> diagonal(graph_.NumVertices(), 0.5);
  TopKSearcher searcher(graph_, options, diagonal);
  searcher.BuildIndex();
  EXPECT_EQ(searcher.diagonal_seconds(), 0.0);
  EXPECT_EQ(searcher.diagonal(), diagonal);
}

TEST(SearchOptionsValidateTest, DefaultsAreValid) {
  EXPECT_TRUE(SearchOptions{}.Validate().ok());
}

TEST(SearchOptionsValidateTest, NamesEveryOffendingField) {
  // Each mutation must be rejected with InvalidArgument (never an abort),
  // and the message must mention the field so the serving layer's error is
  // actionable.
  const std::vector<std::pair<std::string,
                              std::function<void(SearchOptions&)>>> cases = {
      {"decay", [](SearchOptions& o) { o.simrank.decay = 0.0; }},
      {"decay", [](SearchOptions& o) { o.simrank.decay = 1.0; }},
      {"num_steps", [](SearchOptions& o) { o.simrank.num_steps = 0; }},
      {"k", [](SearchOptions& o) { o.k = 0; }},
      {"threshold",
       [](SearchOptions& o) {
         o.threshold = std::numeric_limits<double>::quiet_NaN();
       }},
      {"threshold", [](SearchOptions& o) { o.threshold = -0.5; }},
      {"estimate_walks", [](SearchOptions& o) { o.estimate_walks = 0; }},
      {"refine_walks", [](SearchOptions& o) { o.refine_walks = 0; }},
      {"profile_walks", [](SearchOptions& o) { o.profile_walks = 0; }},
      {"l1_walks", [](SearchOptions& o) { o.l1_walks = 0; }},
      {"gamma_walks", [](SearchOptions& o) { o.gamma_walks = 0; }},
      {"adaptive_margin", [](SearchOptions& o) { o.adaptive_margin = 0.0; }},
      {"adaptive_margin", [](SearchOptions& o) { o.adaptive_margin = 1.5; }},
  };
  for (const auto& [field, mutate] : cases) {
    SearchOptions options;
    mutate(options);
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << field;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(status.message().find(field), std::string::npos)
        << "message '" << status.message() << "' does not name " << field;
  }
}

TEST(SearchOptionsValidateTest, DisabledIngredientsSkipTheirChecks) {
  SearchOptions options;
  options.use_l1_bound = false;
  options.l1_walks = 0;  // irrelevant when the bound is off
  options.use_l2_bound = false;
  options.gamma_walks = 0;
  options.adaptive_sampling = false;
  options.adaptive_margin = 7.0;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace simrank
