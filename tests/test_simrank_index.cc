// Tests for the bipartite candidate index H (Algorithm 4, §7.1).

#include "simrank/index.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "simrank/partial_sums.h"
#include "simrank/yu_all_pairs.h"
#include "test_helpers.h"

namespace simrank {
namespace {

SimRankParams Params(double decay, uint32_t steps) {
  SimRankParams params;
  params.decay = decay;
  params.num_steps = steps;
  return params;
}

TEST(CandidateIndexTest, HubListsAreSortedAndUnique) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 401, 60);
  const CandidateIndex index(graph, Params(0.6, 11), IndexParams{}, 5);
  for (Vertex u = 0; u < graph.NumVertices(); ++u) {
    const auto hubs = index.HubsOf(u);
    EXPECT_TRUE(std::is_sorted(hubs.begin(), hubs.end()));
    EXPECT_TRUE(std::adjacent_find(hubs.begin(), hubs.end()) == hubs.end());
  }
}

TEST(CandidateIndexTest, InvertedAdjacencyIsConsistent) {
  const DirectedGraph graph = testing::SmallRandomGraph(80, 402, 40);
  const CandidateIndex index(graph, Params(0.6, 11), IndexParams{}, 6);
  uint64_t forward_entries = 0;
  for (Vertex u = 0; u < graph.NumVertices(); ++u) {
    for (Vertex hub : index.HubsOf(u)) {
      const auto members = index.VerticesWithHub(hub);
      EXPECT_TRUE(std::find(members.begin(), members.end(), u) !=
                  members.end())
          << "u=" << u << " hub=" << hub;
      ++forward_entries;
    }
  }
  uint64_t inverted_entries = 0;
  for (Vertex h = 0; h < graph.NumVertices(); ++h) {
    inverted_entries += index.VerticesWithHub(h).size();
  }
  EXPECT_EQ(forward_entries, inverted_entries);
  EXPECT_EQ(forward_entries, index.NumEntries());
}

TEST(CandidateIndexTest, DeterministicAcrossThreadCounts) {
  const DirectedGraph graph = testing::SmallRandomGraph(60, 403, 30);
  const CandidateIndex serial(graph, Params(0.6, 11), IndexParams{}, 7,
                              nullptr);
  ThreadPool pool(4);
  const CandidateIndex parallel(graph, Params(0.6, 11), IndexParams{}, 7,
                                &pool);
  ASSERT_EQ(serial.NumEntries(), parallel.NumEntries());
  for (Vertex u = 0; u < graph.NumVertices(); ++u) {
    const auto a = serial.HubsOf(u);
    const auto b = parallel.HubsOf(u);
    ASSERT_EQ(a.size(), b.size()) << u;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

TEST(CandidateIndexTest, ForEachCandidateDeduplicates) {
  const DirectedGraph graph = testing::SmallRandomGraph(80, 404, 40);
  const CandidateIndex index(graph, Params(0.6, 11), IndexParams{}, 8);
  std::vector<uint32_t> marks(graph.NumVertices(), 0);
  uint32_t epoch = 0;
  for (Vertex u = 0; u < graph.NumVertices(); u += 11) {
    std::set<Vertex> seen;
    index.ForEachCandidate(u, marks, epoch, [&](Vertex v) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate candidate " << v;
    });
  }
}

TEST(CandidateIndexTest, ForEachCandidateSurvivesEpochWrap) {
  // At scratch_epoch = UINT32_MAX the next epoch wraps to 0, which every
  // zero-filled mark matches: without the clear the scan yields nothing.
  const DirectedGraph graph = testing::SmallRandomGraph(80, 404, 40);
  const CandidateIndex index(graph, Params(0.6, 11), IndexParams{}, 8);
  int checked = 0;
  for (Vertex u = 0; u < graph.NumVertices(); u += 11) {
    std::vector<uint32_t> marks(graph.NumVertices(), 0);
    uint32_t epoch = 0;
    std::set<Vertex> expected;
    index.ForEachCandidate(u, marks, epoch,
                           [&](Vertex v) { expected.insert(v); });
    if (expected.empty()) continue;
    ++checked;
    std::fill(marks.begin(), marks.end(), 0);
    epoch = UINT32_MAX;
    std::set<Vertex> wrapped;
    index.ForEachCandidate(u, marks, epoch,
                           [&](Vertex v) { wrapped.insert(v); });
    EXPECT_EQ(wrapped, expected) << u;
    EXPECT_EQ(epoch, 1u);
  }
  EXPECT_GT(checked, 3);
}

TEST(CandidateIndexTest, WalkCollisionsYieldEntriesOnDensePocket) {
  // In a tight 2-cycle community every witness walk stays inside it, so
  // collisions are guaranteed and the index must be populated.
  const DirectedGraph graph =
      testing::GraphFromEdges(2, {{0, 1}, {1, 0}});
  const CandidateIndex index(graph, Params(0.6, 5), IndexParams{}, 9);
  EXPECT_GT(index.NumEntries(), 0u);
}

TEST(CandidateIndexTest, SparseChainYieldsNoCollisions) {
  // On a directed cycle every vertex has exactly one in-neighbor; all Q
  // witness walks move in lock-step and always collide, so the pivot path
  // gets indexed fully — whereas on a DAG chain from the source, walks die.
  const DirectedGraph chain = testing::GraphFromEdges(3, {{0, 1}, {1, 2}});
  const CandidateIndex index(chain, Params(0.6, 5), IndexParams{}, 10);
  // Vertex 0 is dangling (no in-links): its walks die instantly, no hubs.
  EXPECT_TRUE(index.HubsOf(0).empty());
}

TEST(CandidateIndexTest, CandidatesCoverTrueTopKOnCommunityGraphs) {
  // End-to-end quality property driving Table 3: on a graph with strong
  // local structure, the index's candidate set must contain nearly all of
  // the exact top-10 (averaged over queries).
  const DirectedGraph graph = testing::SmallRandomGraph(150, 405, 60);
  const SimRankParams params = Params(0.6, 11);
  const DenseMatrix exact = ComputeSimRankPartialSums(graph, params);
  const CandidateIndex index(graph, params, IndexParams{}, 11);
  std::vector<uint32_t> marks(graph.NumVertices(), 0);
  uint32_t epoch = 0;
  double covered = 0.0, total = 0.0;
  for (Vertex u = 0; u < graph.NumVertices(); u += 3) {
    std::set<Vertex> candidates;
    index.ForEachCandidate(u, marks, epoch,
                           [&](Vertex v) { candidates.insert(v); });
    const auto top = TopKFromMatrix(exact, u, 10, 0.05);
    for (const ScoredVertex& entry : top) {
      total += 1.0;
      if (candidates.count(entry.vertex) != 0) covered += 1.0;
    }
  }
  ASSERT_GT(total, 20.0);  // the graph has meaningful similar pairs
  EXPECT_GT(covered / total, 0.9);
}

TEST(CandidateIndexTest, MoreRepetitionsGiveMoreCoverage) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 406, 50);
  const SimRankParams params = Params(0.6, 11);
  IndexParams small_params;
  small_params.repetitions = 1;
  IndexParams big_params;
  big_params.repetitions = 20;
  const CandidateIndex small(graph, params, small_params, 12);
  const CandidateIndex big(graph, params, big_params, 12);
  EXPECT_GT(big.NumEntries(), small.NumEntries());
}

TEST(CandidateIndexTest, MemoryBytesTracksEntries) {
  const DirectedGraph graph = testing::SmallRandomGraph(100, 407, 50);
  const CandidateIndex index(graph, Params(0.6, 11), IndexParams{}, 13);
  EXPECT_GE(index.MemoryBytes(),
            index.NumEntries() * 2 * sizeof(Vertex));  // fwd + inverted
}

}  // namespace
}  // namespace simrank
