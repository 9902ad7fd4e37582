// Cross-family property sweeps (TEST_P): the core invariants must hold on
// every dataset family and decay factor, not just the hand-picked graphs
// of the unit suites. Each sweep uses small instances so the exact oracles
// stay affordable.

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "eval/datasets.h"
#include "graph/traversal.h"
#include "simrank/bounds.h"
#include "simrank/linear.h"
#include "simrank/monte_carlo.h"
#include "simrank/naive.h"
#include "simrank/partial_sums.h"
#include "test_helpers.h"

namespace simrank {
namespace {

using eval::DatasetFamily;

struct SweepCase {
  DatasetFamily family;
  double decay;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name;
  switch (info.param.family) {
    case DatasetFamily::kCollaboration:
      name = "Collab";
      break;
    case DatasetFamily::kSocial:
      name = "Social";
      break;
    case DatasetFamily::kWeb:
      name = "Web";
      break;
    case DatasetFamily::kCitation:
      name = "Citation";
      break;
    case DatasetFamily::kRoad:
      name = "Road";
      break;
  }
  name += "C" + std::to_string(static_cast<int>(info.param.decay * 10));
  return name;
}

class FamilySweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  FamilySweepTest() {
    eval::DatasetSpec spec;
    spec.name = "sweep";
    spec.family = GetParam().family;
    spec.target_vertices = 220;
    spec.target_edges = 1100;
    spec.seed = 99;
    graph_ = eval::Generate(spec);
    params_.decay = GetParam().decay;
    params_.num_steps = 9;
  }

  DirectedGraph graph_;
  SimRankParams params_;
};

TEST_P(FamilySweepTest, ExactBaselinesAgree) {
  const DenseMatrix naive = ComputeSimRankNaive(graph_, params_);
  const DenseMatrix fast = ComputeSimRankPartialSums(graph_, params_);
  EXPECT_LT(naive.MaxAbsDiff(fast), 1e-10);
}

TEST_P(FamilySweepTest, LinearWithExactDiagonalMatchesTrueSimRank) {
  SimRankParams converged = params_;
  converged.num_steps = 60;
  const DenseMatrix exact = ComputeSimRankNaive(graph_, converged);
  const std::vector<double> diagonal =
      ExactDiagonalCorrection(graph_, exact, converged);
  const LinearSimRank linear(graph_, converged, diagonal);
  const double tolerance =
      std::pow(params_.decay, 60) / (1 - params_.decay) + 1e-7;
  for (Vertex u = 0; u < graph_.NumVertices(); u += 31) {
    for (Vertex v = 0; v < graph_.NumVertices(); v += 17) {
      EXPECT_NEAR(linear.SinglePair(u, v), exact.At(u, v), tolerance)
          << u << "," << v;
    }
  }
}

TEST_P(FamilySweepTest, MonteCarloTracksDeterministicScores) {
  const std::vector<double> diagonal =
      UniformDiagonal(graph_.NumVertices(), params_.decay);
  const LinearSimRank linear(graph_, params_, diagonal);
  const MonteCarloSimRank mc(graph_, params_, diagonal);
  Rng rng(4242);
  double worst = 0.0;
  int compared = 0;
  for (Vertex u = 0; u < graph_.NumVertices(); u += 41) {
    for (Vertex v = 1; v < graph_.NumVertices(); v += 37) {
      if (u == v) continue;
      double mean = 0.0;
      constexpr int kTrials = 12;
      for (int t = 0; t < kTrials; ++t) {
        mean += mc.SinglePair(u, v, 200, rng);
      }
      mean /= kTrials;
      worst = std::max(worst, std::abs(mean - linear.SinglePair(u, v)));
      ++compared;
    }
  }
  ASSERT_GT(compared, 10);
  EXPECT_LT(worst, 0.03);
}

TEST_P(FamilySweepTest, BoundsDominateScoresEverywhere) {
  const std::vector<double> diagonal =
      UniformDiagonal(graph_.NumVertices(), params_.decay);
  const LinearSimRank linear(graph_, params_, diagonal);
  const GammaTable gamma = GammaTable::BuildExact(graph_, params_, diagonal);
  BfsWorkspace bfs(graph_);
  const uint32_t dmax = 6;
  for (Vertex u = 0; u < graph_.NumVertices(); u += 23) {
    bfs.Run(u, EdgeDirection::kUndirected,
            std::max(dmax, params_.num_steps));
    const std::vector<double> beta =
        ComputeL1BetaExact(graph_, params_, diagonal, u, bfs, dmax);
    const std::vector<double> row = linear.SingleSource(u);
    for (Vertex v = 0; v < graph_.NumVertices(); ++v) {
      const uint32_t d = bfs.Distance(v);
      if (v == u || d == kInfiniteDistance || d > dmax) continue;
      EXPECT_LE(row[v], beta[d] + 1e-9) << u << "," << v;
      EXPECT_LE(row[v], gamma.BoundAtDistance(u, v, d) + 1e-5)
          << u << "," << v;
    }
  }
}

TEST_P(FamilySweepTest, TrueSimRankRespectsHalfDistanceBound) {
  SimRankParams converged = params_;
  converged.num_steps = 40;
  const DenseMatrix exact = ComputeSimRankNaive(graph_, converged);
  BfsWorkspace bfs(graph_);
  for (Vertex u = 0; u < graph_.NumVertices(); u += 29) {
    bfs.Run(u, EdgeDirection::kUndirected);
    for (Vertex v = 0; v < graph_.NumVertices(); ++v) {
      if (v == u) continue;
      EXPECT_LE(exact.At(u, v),
                DistanceBound(params_.decay, bfs.Distance(v)) + 1e-9)
          << u << "," << v;
    }
  }
}

TEST(PermutationTest, SimRankIsLabelInvariant) {
  // Exact SimRank commutes with relabeling.
  for (uint64_t seed : {1007ULL, 1008ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(60, seed, 40);
    Rng rng(seed + 1);
    const std::vector<Vertex> permutation =
        testing::RandomPermutation(graph.NumVertices(), rng);
    const DirectedGraph relabeled =
        testing::PermuteVertices(graph, permutation);
    SimRankParams params;
    params.decay = 0.6;
    params.num_steps = 12;
    const DenseMatrix original = ComputeSimRankPartialSums(graph, params);
    const DenseMatrix mapped = ComputeSimRankPartialSums(relabeled, params);
    for (Vertex u = 0; u < graph.NumVertices(); ++u) {
      for (Vertex v = 0; v < graph.NumVertices(); ++v) {
        ASSERT_NEAR(original.At(u, v),
                    mapped.At(permutation[u], permutation[v]), 1e-12)
            << u << "," << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilySweepTest,
    ::testing::Values(
        SweepCase{DatasetFamily::kCollaboration, 0.6},
        SweepCase{DatasetFamily::kCollaboration, 0.8},
        SweepCase{DatasetFamily::kSocial, 0.6},
        SweepCase{DatasetFamily::kWeb, 0.6},
        SweepCase{DatasetFamily::kWeb, 0.4},
        SweepCase{DatasetFamily::kCitation, 0.6},
        SweepCase{DatasetFamily::kCitation, 0.8},
        SweepCase{DatasetFamily::kRoad, 0.6}),
    CaseName);

}  // namespace
}  // namespace simrank
