// Tests for BFS distances (all three edge directions), the reusable
// workspace with its edge budget and distance lower bounds, connected
// components, and average-distance estimation.

#include "graph/traversal.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace simrank {

// Test-only access to the workspace's epoch counter, to reach its wrap.
class BfsWorkspaceTestPeer {
 public:
  static void SetEpoch(BfsWorkspace& workspace, uint32_t epoch) {
    workspace.epoch_ = epoch;
  }
};

namespace {

using ::simrank::testing::GraphFromEdges;

// Brute-force reference BFS over an explicit adjacency function.
std::vector<uint32_t> ReferenceBfs(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction) {
  std::vector<uint32_t> dist(graph.NumVertices(), kInfiniteDistance);
  dist[source] = 0;
  std::queue<Vertex> queue;
  queue.push(source);
  auto neighbors = [&](Vertex v) {
    std::vector<Vertex> out;
    if (direction != EdgeDirection::kIn) {
      for (Vertex w : graph.OutNeighbors(v)) out.push_back(w);
    }
    if (direction != EdgeDirection::kOut) {
      for (Vertex w : graph.InNeighbors(v)) out.push_back(w);
    }
    return out;
  };
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop();
    for (Vertex w : neighbors(v)) {
      if (dist[w] == kInfiniteDistance) {
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
  }
  return dist;
}

TEST(BfsTest, DirectedChainDistances) {
  const DirectedGraph graph = GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto out = BfsDistances(graph, 0, EdgeDirection::kOut);
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3}));
  const auto in = BfsDistances(graph, 0, EdgeDirection::kIn);
  EXPECT_EQ(in[0], 0u);
  EXPECT_EQ(in[1], kInfiniteDistance);
  const auto in_from_3 = BfsDistances(graph, 3, EdgeDirection::kIn);
  EXPECT_EQ(in_from_3, (std::vector<uint32_t>{3, 2, 1, 0}));
}

TEST(BfsTest, UndirectedIgnoresOrientation) {
  const DirectedGraph graph = GraphFromEdges(4, {{0, 1}, {2, 1}, {2, 3}});
  const auto dist = BfsDistances(graph, 0, EdgeDirection::kUndirected);
  EXPECT_EQ(dist, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(BfsTest, MaxDistanceTruncates) {
  const DirectedGraph graph = MakePath(10);
  const auto dist = BfsDistances(graph, 0, EdgeDirection::kUndirected, 3);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], kInfiniteDistance);
}

TEST(BfsTest, MatchesReferenceOnRandomGraphs) {
  for (uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(120, seed, 80);
    for (EdgeDirection direction :
         {EdgeDirection::kOut, EdgeDirection::kIn,
          EdgeDirection::kUndirected}) {
      const auto expected = ReferenceBfs(graph, 5, direction);
      const auto actual = BfsDistances(graph, 5, direction);
      EXPECT_EQ(actual, expected) << "seed=" << seed;
    }
  }
}

TEST(BfsWorkspaceTest, ReachedIsSortedByDistance) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 40, 100);
  BfsWorkspace workspace(graph);
  workspace.Run(0, EdgeDirection::kUndirected);
  uint32_t last = 0;
  for (Vertex v : workspace.Reached()) {
    const uint32_t d = workspace.Distance(v);
    EXPECT_GE(d, last);
    last = d;
  }
  EXPECT_EQ(workspace.Reached().front(), 0u);
}

TEST(BfsWorkspaceTest, ReuseAcrossSourcesIsClean) {
  const DirectedGraph graph = MakePath(6);
  BfsWorkspace workspace(graph);
  workspace.Run(0, EdgeDirection::kUndirected);
  EXPECT_EQ(workspace.Distance(5), 5u);
  workspace.Run(5, EdgeDirection::kUndirected, 2);
  EXPECT_EQ(workspace.Distance(5), 0u);
  EXPECT_EQ(workspace.Distance(3), 2u);
  // Vertices beyond the cutoff must not leak distances from the prior run.
  EXPECT_EQ(workspace.Distance(0), kInfiniteDistance);
}

TEST(BfsWorkspaceTest, ManyEpochsStayConsistent) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 41);
  BfsWorkspace workspace(graph);
  for (int round = 0; round < 300; ++round) {
    const Vertex source = static_cast<Vertex>(round % 50);
    workspace.Run(source, EdgeDirection::kUndirected);
    EXPECT_EQ(workspace.Distance(source), 0u);
  }
}

TEST(BfsWorkspaceTest, EpochWrapClearsStaleMarks) {
  // On its 2^32-th run the epoch wraps to 0, which every never-stamped
  // vertex matches: without the clear, the BFS treats those vertices as
  // already visited, at distance 0, and stops at the source's ball.
  const DirectedGraph graph = testing::SmallRandomGraph(60, 42, 30);
  const auto expected = ReferenceBfs(graph, 7, EdgeDirection::kUndirected);
  BfsWorkspace workspace(graph);
  BfsWorkspaceTestPeer::SetEpoch(workspace, UINT32_MAX - 1);
  // The last run before the wrap stamps only the radius-1 ball.
  workspace.Run(7, EdgeDirection::kUndirected, 1);
  for (Vertex v = 0; v < graph.NumVertices(); ++v) {
    EXPECT_EQ(workspace.Distance(v),
              expected[v] <= 1 ? expected[v] : kInfiniteDistance);
  }
  for (int run = 0; run < 3; ++run) {  // the first one wraps
    workspace.Run(7, EdgeDirection::kUndirected);
    std::vector<uint32_t> actual(graph.NumVertices());
    for (Vertex v = 0; v < graph.NumVertices(); ++v) {
      actual[v] = workspace.Distance(v);
    }
    EXPECT_EQ(actual, expected) << "run " << run;
  }
}

TEST(BfsWorkspaceTest, HorizonAndExhaustionSetTheFrontier) {
  // Path 0-1-2-3 plus the isolated vertex 4.
  const DirectedGraph graph = GraphFromEdges(5, {{0, 1}, {1, 2}, {2, 3}});
  BfsWorkspace workspace(graph);
  workspace.Run(0, EdgeDirection::kUndirected, 2);
  EXPECT_EQ(workspace.frontier_distance(), 3u);
  EXPECT_EQ(workspace.DistanceLowerBound(2), 2u);
  EXPECT_EQ(workspace.DistanceLowerBound(3), 3u);
  EXPECT_EQ(workspace.Distance(3), kInfiniteDistance);
  EXPECT_EQ(workspace.edges_visited(), 3u);  // degrees of 0 and 1
  workspace.Run(0, EdgeDirection::kUndirected);
  EXPECT_EQ(workspace.frontier_distance(), kInfiniteDistance);
  EXPECT_EQ(workspace.DistanceLowerBound(4), kInfiniteDistance);
  EXPECT_EQ(workspace.edges_visited(), 6u);
  // Budget 2 admits vertex 0's one edge but not level 1's two.
  workspace.Run(0, EdgeDirection::kUndirected, kInfiniteDistance, 2);
  EXPECT_EQ(workspace.frontier_distance(), 2u);
  EXPECT_EQ(workspace.Reached().size(), 2u);
  EXPECT_EQ(workspace.DistanceLowerBound(3), 2u);
  EXPECT_EQ(workspace.DistanceLowerBound(4), 2u);
  EXPECT_EQ(workspace.edges_visited(), 1u);
}

TEST(BfsWorkspaceTest, BudgetedRunIsAPrefixOfTheFullBfsAtEveryBudget) {
  // At every budget from 0 to the full ball's edge count: reached
  // distances are exact, Reached() stays sorted, the scan stays within the
  // budget, and every unreached vertex is at least frontier_distance()
  // away, so DistanceLowerBound(v) = min(d(v), frontier_distance()).
  for (uint64_t seed : {34ULL, 35ULL, 36ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(120, seed, 80);
    for (uint32_t horizon : {3u, kInfiniteDistance}) {
      for (Vertex source : {0u, 17u, 119u}) {
        BfsWorkspace workspace(graph);
        workspace.Run(source, EdgeDirection::kUndirected, horizon);
        const uint64_t full_ball = workspace.edges_visited();
        const uint32_t full_frontier = workspace.frontier_distance();
        const size_t full_reached = workspace.Reached().size();
        std::vector<uint32_t> full(graph.NumVertices());
        for (Vertex v = 0; v < graph.NumVertices(); ++v) {
          full[v] = workspace.Distance(v);
        }
        for (uint64_t budget = 0; budget <= full_ball; ++budget) {
          workspace.Run(source, EdgeDirection::kUndirected, horizon, budget);
          const uint32_t frontier = workspace.frontier_distance();
          EXPECT_LE(workspace.edges_visited(), budget);
          EXPECT_LE(frontier, full_frontier);
          ASSERT_EQ(workspace.Reached().front(), source);
          uint32_t last = 0;
          for (Vertex v : workspace.Reached()) {
            EXPECT_EQ(workspace.Distance(v), full[v]);
            EXPECT_LT(workspace.Distance(v), frontier);
            EXPECT_GE(workspace.Distance(v), last);
            last = workspace.Distance(v);
          }
          for (Vertex v = 0; v < graph.NumVertices(); ++v) {
            const bool reached = workspace.Distance(v) != kInfiniteDistance;
            EXPECT_EQ(reached, full[v] < frontier)
                << "seed=" << seed << " budget=" << budget << " v=" << v;
            // Full-BFS "unreached" is past the horizon: at least
            // full_frontier away.
            const uint32_t distance =
                full[v] == kInfiniteDistance ? full_frontier : full[v];
            EXPECT_EQ(workspace.DistanceLowerBound(v),
                      std::min(distance, frontier));
          }
          if (budget == full_ball) {
            EXPECT_EQ(frontier, full_frontier);
            EXPECT_EQ(workspace.Reached().size(), full_reached);
          }
        }
      }
    }
  }
}

TEST(ComponentsTest, CountsComponents) {
  // Two components: {0,1,2} chain and {3,4} pair, vertex 5 isolated.
  const DirectedGraph graph = GraphFromEdges(6, {{0, 1}, {1, 2}, {3, 4}});
  const ComponentStats stats = WeaklyConnectedComponents(graph);
  EXPECT_EQ(stats.num_components, 3u);
  EXPECT_EQ(stats.largest_size, 3u);
}

TEST(ComponentsTest, ConnectedGraphIsOneComponent) {
  Rng rng(42);
  const DirectedGraph graph = MakeBarabasiAlbert(300, 2, rng);
  const ComponentStats stats = WeaklyConnectedComponents(graph);
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest_size, 300u);
}

TEST(ComponentsTest, EmptyGraph) {
  const ComponentStats stats = WeaklyConnectedComponents(DirectedGraph());
  EXPECT_EQ(stats.num_components, 0u);
}

TEST(AverageDistanceTest, PathGraphMatchesClosedForm) {
  // Full sources on a path: mean distance of an n-path is (n+1)/3.
  const Vertex n = 30;
  const DirectedGraph graph = MakePath(n);
  Rng rng(43);
  const double estimate = EstimateAverageDistance(graph, 200, rng);
  EXPECT_NEAR(estimate, (n + 1.0) / 3.0, 1.0);
}

TEST(AverageDistanceTest, CompleteGraphIsOne) {
  const DirectedGraph graph = MakeComplete(20);
  Rng rng(44);
  EXPECT_NEAR(EstimateAverageDistance(graph, 10, rng), 1.0, 1e-9);
}

TEST(AverageDistanceTest, TrivialGraphsReturnZero) {
  Rng rng(45);
  EXPECT_EQ(EstimateAverageDistance(DirectedGraph(1, {}), 5, rng), 0.0);
}

}  // namespace
}  // namespace simrank
