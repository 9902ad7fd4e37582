// Tests for the pruning bounds of §6: the distance bound, the L1 bound
// (alpha/beta, Algorithm 2) and the L2 bound (gamma, Algorithm 3). The
// exact variants are checked as rigorous upper bounds on s^(T) (Props. 4
// and 6); the Monte-Carlo variants are checked for concentration around the
// exact ones.

#include "simrank/bounds.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "simrank/linear.h"
#include "simrank/naive.h"
#include "simrank/partial_sums.h"
#include "test_helpers.h"

namespace simrank {
namespace {

SimRankParams Params(double decay, uint32_t steps) {
  SimRankParams params;
  params.decay = decay;
  params.num_steps = steps;
  return params;
}

// ---------- distance bound ----------

TEST(DistanceBoundTest, ClosedFormValues) {
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, 0), 1.0);
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, 1), 0.6);
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, 2), 0.6);       // ceil(2/2) = 1
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, 3), 0.36);      // ceil(3/2) = 2
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, 4), 0.36);
  EXPECT_DOUBLE_EQ(DistanceBound(0.6, kInfiniteDistance), 0.0);
}

TEST(DistanceBoundTest, DominatesTrueSimRankOnRandomGraphs) {
  // s(u,v) <= c^(ceil(d/2)) must hold for the *true* SimRank (here: the
  // converged naive matrix). The paper's unadjusted c^d bound fails on
  // e.g. the 3-path; the half-distance form must not.
  for (uint64_t seed : {301ULL, 302ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(60, seed, 40);
    const SimRankParams params = Params(0.6, 30);
    const DenseMatrix scores = ComputeSimRankNaive(graph, params);
    BfsWorkspace bfs(graph);
    for (Vertex u = 0; u < graph.NumVertices(); u += 6) {
      bfs.Run(u, EdgeDirection::kUndirected);
      for (Vertex v = 0; v < graph.NumVertices(); ++v) {
        if (u == v) continue;
        EXPECT_LE(scores.At(u, v),
                  DistanceBound(params.decay, bfs.Distance(v)) + 1e-9)
            << u << "," << v;
      }
    }
  }
}

TEST(DistanceBoundTest, PathThreeShowsWhyHalfDistanceIsNeeded) {
  // s(0,2) = c on the 3-path: c^d would be c^2 < c (invalid), c^(d/2) = c.
  const DirectedGraph path = MakePath(3);
  const DenseMatrix scores = ComputeSimRankNaive(path, Params(0.6, 40));
  EXPECT_GT(scores.At(0, 2), std::pow(0.6, 2) + 0.1);  // c^d is violated
  EXPECT_LE(scores.At(0, 2), DistanceBound(0.6, 2) + 1e-12);
}

// ---------- L2 bound (gamma) ----------

TEST(GammaTableTest, ExactGammaOnStar) {
  // From the center, P e_0 is uniform over 3 leaves: gamma(0,1) =
  // sqrt(3 (1-c) / 9) with D = (1-c)I. Stored codes round up by less than
  // one step; step 0 is the scale sqrt(max D), exact under uniform D.
  const DirectedGraph star = testing::ExampleOneStar();
  const SimRankParams params = Params(0.6, 3);
  const GammaTable table =
      GammaTable::BuildExact(star, params, UniformDiagonal(4, 0.6));
  const double step = table.step();
  EXPECT_EQ(table.scale(), std::sqrt(0.4));
  EXPECT_EQ(table.Gamma(0, 0), std::sqrt(0.4));
  const double center = std::sqrt(0.4 / 3.0);
  EXPECT_LE(center, table.Gamma(0, 1));
  EXPECT_LE(table.Gamma(0, 1), center + step);
  // Leaves walk deterministically to the center: gamma(1,1) = sqrt(1-c).
  EXPECT_LE(std::sqrt(0.4), table.Gamma(1, 1));
  EXPECT_LE(table.Gamma(1, 1), std::sqrt(0.4) + step);
}

TEST(GammaTableTest, EncodeRoundsUpByLessThanOneStep) {
  // decode(encode(x)) = Encode(x, step) * step is >= x and less than one
  // step above it (one code lower would not cover x) for every x in
  // [0, scale], and Encode is monotone.
  Rng rng(316);
  for (double scale : {std::sqrt(0.4), 1.0, std::sqrt(0.123), 3e-150}) {
    const GammaTable table = GammaTable::BuildExact(
        MakePath(2), Params(0.6, 2), std::vector<double>{scale * scale, 0.0});
    const double step = table.step();
    ASSERT_GE(GammaTable::kMaxCode * step, table.scale());
    std::vector<double> xs = {0.0, table.scale(), step, 0.5 * step};
    for (int i = 0; i < 20000; ++i) {
      xs.push_back(rng.UniformDouble() * table.scale());
      const double on_grid = (1 + rng.UniformIndex(65534)) * step;
      xs.push_back(on_grid);
      xs.push_back(std::nextafter(on_grid, 0.0));
      xs.push_back(std::nextafter(on_grid, HUGE_VAL));
    }
    std::sort(xs.begin(), xs.end());
    uint16_t previous = 0;
    for (double x : xs) {
      if (x > table.scale()) continue;
      const uint16_t code = GammaTable::Encode(x, step);
      const double decoded = code * step;
      ASSERT_GE(decoded, x) << "scale=" << scale << " x=" << x;
      if (code > 0) {
        ASSERT_LT((code - 1) * step, x) << "scale=" << scale << " x=" << x;
      }
      ASSERT_GE(code, previous) << "scale=" << scale << " x=" << x;
      previous = code;
    }
  }
  EXPECT_EQ(GammaTable::Encode(-1.0, 0.1), 0);
  EXPECT_EQ(GammaTable::Encode(std::nan(""), 0.1), 0);
}

TEST(GammaTableTest, StoredCodesRoundUpTheGammaTheBuildComputes) {
  // Every stored gamma(u,t), t >= 1, is within one step above
  // ||sqrt(D) P^t e_u||, propagated here densely and independently of the
  // build, for a non-uniform diagonal.
  const DirectedGraph graph = testing::SmallRandomGraph(40, 317, 25);
  const Vertex n = graph.NumVertices();
  const SimRankParams params = Params(0.6, 6);
  std::vector<double> diag(n);
  Rng rng(318);
  for (double& d : diag) d = 0.3 + 0.2 * rng.UniformDouble();
  const GammaTable table = GammaTable::BuildExact(graph, params, diag);
  EXPECT_EQ(table.scale(),
            std::sqrt(*std::max_element(diag.begin(), diag.end())));
  ASSERT_EQ(table.codes().size(), size_t{n} * (params.num_steps - 1));
  for (Vertex u = 0; u < n; ++u) {
    EXPECT_GE(table.Gamma(u, 0), std::sqrt(diag[u]));
    std::vector<double> p(n, 0.0);
    p[u] = 1.0;
    for (uint32_t t = 1; t < params.num_steps; ++t) {
      std::vector<double> next(n, 0.0);
      for (Vertex v = 0; v < n; ++v) {
        const auto in_v = graph.InNeighbors(v);
        for (Vertex w : in_v) next[w] += p[v] / in_v.size();
      }
      p.swap(next);
      double mu = 0.0;
      for (Vertex w = 0; w < n; ++w) mu += diag[w] * p[w] * p[w];
      const double gamma = std::sqrt(mu);
      // Summation order differs from the build's; allow roundoff.
      EXPECT_GE(table.Gamma(u, t), gamma - 1e-12) << u << "," << t;
      EXPECT_LT(table.Gamma(u, t), gamma + table.step() + 1e-12)
          << u << "," << t;
    }
  }
}

TEST(GammaTableTest, ExactBoundDominatesTruncatedScore) {
  // Proposition 6: s^(T)(u,v) <= sum_t c^t gamma(u,t) gamma(v,t), checked
  // for every pair on random graphs with the exact gamma, under the
  // uniform diagonal and a non-uniform one (where step 0's scale stands in
  // for sqrt(D_uu)).
  for (uint64_t seed : {303ULL, 304ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(50, seed, 30);
    const SimRankParams params = Params(0.6, 11);
    std::vector<double> skewed(graph.NumVertices());
    Rng rng(seed);
    for (double& d : skewed) d = 0.2 + 0.4 * rng.UniformDouble();
    for (const std::vector<double>& diag :
         {UniformDiagonal(graph.NumVertices(), params.decay), skewed}) {
      const GammaTable table = GammaTable::BuildExact(graph, params, diag);
      const LinearSimRank linear(graph, params, diag);
      BfsWorkspace bfs(graph);
      for (Vertex u = 0; u < graph.NumVertices(); u += 5) {
        const std::vector<double> row = linear.SingleSource(u);
        bfs.Run(u, EdgeDirection::kUndirected);
        for (Vertex v = 0; v < graph.NumVertices(); ++v) {
          // Codes round up, so only double roundoff needs slack.
          EXPECT_LE(row[v], table.Bound(u, v) + 1e-12) << u << "," << v;
          // The distance-sharpened variant must also dominate.
          const uint32_t d = bfs.Distance(v);
          if (d != kInfiniteDistance) {
            EXPECT_LE(row[v], table.BoundAtDistance(u, v, d) + 1e-12)
                << u << "," << v;
          }
        }
      }
    }
  }
}

TEST(GammaTableTest, DistanceSharpeningOnlyDropsZeroTerms) {
  // BoundAtDistance <= Bound always, with equality at d = 0 (nothing can
  // be dropped), strict improvement at d >= 1 (the t = 0 term
  // sqrt(D_uu D_vv) goes away), and 0 beyond the walk horizon and for a
  // pair with no path.
  const DirectedGraph graph = testing::SmallRandomGraph(60, 399, 40);
  const SimRankParams params = Params(0.6, 11);
  const GammaTable table = GammaTable::BuildExact(
      graph, params, UniformDiagonal(graph.NumVertices(), 0.6));
  for (Vertex u = 0; u < 20; ++u) {
    for (Vertex v = 0; v < 20; ++v) {
      EXPECT_DOUBLE_EQ(table.BoundAtDistance(u, v, 0), table.Bound(u, v));
      EXPECT_LE(table.BoundAtDistance(u, v, 1),
                table.Bound(u, v) - 0.9 * (1.0 - params.decay));
      EXPECT_LE(table.BoundAtDistance(u, v, 4), table.Bound(u, v));
      EXPECT_DOUBLE_EQ(table.BoundAtDistance(u, v, 2 * 11), 0.0);
      EXPECT_EQ(table.BoundAtDistance(u, v, kInfiniteDistance), 0.0);
    }
  }
}

TEST(GammaTableTest, MonteCarloConcentratesAroundExact) {
  const DirectedGraph graph = testing::SmallRandomGraph(60, 305, 40);
  const SimRankParams params = Params(0.6, 11);
  const std::vector<double> diag =
      UniformDiagonal(graph.NumVertices(), params.decay);
  const GammaTable exact = GammaTable::BuildExact(graph, params, diag);
  const GammaTable sampled =
      GammaTable::BuildMonteCarlo(graph, params, diag, 4000, 99);
  for (Vertex u = 0; u < graph.NumVertices(); u += 7) {
    for (uint32_t t = 0; t < params.num_steps; ++t) {
      // The squared empirical measure has positive bias p(1-p)/R per
      // entry; at R=4000 the effect on gamma is ~0.01.
      EXPECT_NEAR(sampled.Gamma(u, t), exact.Gamma(u, t), 0.05)
          << u << "," << t;
    }
  }
}

TEST(GammaTableTest, MonteCarloIsDeterministicInSeedAndThreads) {
  const DirectedGraph graph = testing::SmallRandomGraph(40, 306, 20);
  const SimRankParams params = Params(0.6, 7);
  const std::vector<double> diag = UniformDiagonal(40, 0.6);
  const GammaTable serial =
      GammaTable::BuildMonteCarlo(graph, params, diag, 50, 7, nullptr);
  ThreadPool pool(3);
  const GammaTable parallel =
      GammaTable::BuildMonteCarlo(graph, params, diag, 50, 7, &pool);
  for (Vertex u = 0; u < 40; ++u) {
    for (uint32_t t = 0; t < 7; ++t) {
      EXPECT_EQ(serial.Gamma(u, t), parallel.Gamma(u, t));
    }
  }
}

TEST(GammaTableTest, MemoryIsLinearInVerticesTimesSteps) {
  // One 16-bit code per vertex and step 1..T-1.
  const DirectedGraph graph = testing::SmallRandomGraph(100, 307);
  const GammaTable table = GammaTable::BuildExact(
      graph, Params(0.6, 11), UniformDiagonal(100, 0.6));
  EXPECT_EQ(table.MemoryBytes(), 100u * (11 - 1) * 2);
}

// ---------- L1 bound (alpha/beta) ----------

TEST(L1BoundTest, ExactBetaDominatesTruncatedScore) {
  // Proposition 4: s^(T)(u,v) <= beta(u, d(u,v)) for every v within the
  // horizon, with beta from the exact alpha table.
  for (uint64_t seed : {308ULL, 309ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(60, seed, 40);
    const SimRankParams params = Params(0.6, 11);
    const std::vector<double> diag =
        UniformDiagonal(graph.NumVertices(), params.decay);
    const LinearSimRank linear(graph, params, diag);
    const uint32_t dmax = 8;
    BfsWorkspace bfs(graph);
    for (Vertex u = 0; u < graph.NumVertices(); u += 9) {
      bfs.Run(u, EdgeDirection::kUndirected,
              std::max(dmax, params.num_steps));
      const std::vector<double> beta =
          ComputeL1BetaExact(graph, params, diag, u, bfs, dmax);
      ASSERT_EQ(beta.size(), dmax + 1);
      const std::vector<double> row = linear.SingleSource(u);
      for (Vertex v = 0; v < graph.NumVertices(); ++v) {
        const uint32_t d = bfs.Distance(v);
        if (d == kInfiniteDistance || d > dmax) continue;
        EXPECT_LE(row[v], beta[d] + 1e-9)
            << "seed=" << seed << " u=" << u << " v=" << v << " d=" << d;
      }
    }
  }
}

TEST(L1BoundTest, DistanceLowerBoundsKeepBothBoundsValidAtEveryBudget) {
  // With the BFS cut by an edge budget, the bounds take DistanceLowerBound
  // = min(d, frontier). At every budget from 0 to the full ball: the L1
  // and L2 bounds at the lower bound still dominate s^(T), and beta (exact
  // and sampled alike) equals the full-BFS beta below the frontier.
  for (uint64_t seed : {314ULL, 315ULL}) {
    const DirectedGraph graph = testing::SmallRandomGraph(60, seed, 40);
    const SimRankParams params = Params(0.6, 11);
    const std::vector<double> diag =
        UniformDiagonal(graph.NumVertices(), params.decay);
    const GammaTable gamma = GammaTable::BuildExact(graph, params, diag);
    const LinearSimRank linear(graph, params, diag);
    const uint32_t dmax = 11;
    const uint32_t horizon = std::max(dmax, params.num_steps - 1);
    BfsWorkspace bfs(graph);
    for (Vertex u = 0; u < graph.NumVertices(); u += 9) {
      const std::vector<double> row = linear.SingleSource(u);
      bfs.Run(u, EdgeDirection::kUndirected, horizon);
      const uint64_t full_ball = bfs.edges_visited();
      const std::vector<double> full_exact =
          ComputeL1BetaExact(graph, params, diag, u, bfs, dmax);
      Rng full_rng(seed + u);
      const std::vector<double> full_sampled =
          ComputeL1Beta(graph, params, diag, u, 500, bfs, dmax, full_rng);
      for (uint64_t budget = 0; budget <= full_ball; ++budget) {
        bfs.Run(u, EdgeDirection::kUndirected, horizon, budget);
        const uint32_t frontier = bfs.frontier_distance();
        const std::vector<double> beta =
            ComputeL1BetaExact(graph, params, diag, u, bfs, dmax);
        Rng rng(seed + u);
        const std::vector<double> sampled =
            ComputeL1Beta(graph, params, diag, u, 500, bfs, dmax, rng);
        for (uint32_t d = 0; d <= dmax && d < frontier; ++d) {
          EXPECT_EQ(beta[d], full_exact[d]) << "budget=" << budget;
          EXPECT_EQ(sampled[d], full_sampled[d]) << "budget=" << budget;
        }
        for (Vertex v = 0; v < graph.NumVertices(); ++v) {
          const uint32_t d = bfs.DistanceLowerBound(v);
          if (v == u || d == kInfiniteDistance || d > dmax) continue;
          EXPECT_LE(row[v], beta[d] + 1e-9)
              << "seed=" << seed << " u=" << u << " v=" << v
              << " budget=" << budget;
          EXPECT_LE(row[v], gamma.BoundAtDistance(u, v, d) + 1e-5)
              << "seed=" << seed << " u=" << u << " v=" << v
              << " budget=" << budget;
        }
      }
    }
  }
}

TEST(L1BoundTest, BetaIsTighterThanTrivialSeriesBound) {
  // beta(u,d) can never exceed the all-ones bound sum_t c^t max_w D_ww.
  const DirectedGraph graph = testing::SmallRandomGraph(50, 310, 30);
  const SimRankParams params = Params(0.6, 11);
  const std::vector<double> diag = UniformDiagonal(50, 0.6);
  BfsWorkspace bfs(graph);
  bfs.Run(0, EdgeDirection::kUndirected, params.num_steps);
  const std::vector<double> beta =
      ComputeL1BetaExact(graph, params, diag, 0, bfs, 6);
  const double trivial = 0.4 / (1.0 - 0.6);
  for (double b : beta) EXPECT_LE(b, trivial + 1e-12);
}

TEST(L1BoundTest, BetaDecreasesForFarDistancesOnPath) {
  // On a long path, mass at distance d needs t >= d steps, so beta decays
  // with distance (the core of the distance-screening idea).
  const DirectedGraph path = MakePath(30);
  const SimRankParams params = Params(0.6, 11);
  const std::vector<double> diag = UniformDiagonal(30, 0.6);
  BfsWorkspace bfs(path);
  bfs.Run(0, EdgeDirection::kUndirected, params.num_steps + 10);
  const std::vector<double> beta =
      ComputeL1BetaExact(path, params, diag, 0, bfs, 10);
  EXPECT_LT(beta[8], beta[2]);
  EXPECT_LT(beta[10], beta[4]);
}

TEST(L1BoundTest, MonteCarloApproximatesExactBeta) {
  const DirectedGraph graph = testing::SmallRandomGraph(60, 311, 40);
  const SimRankParams params = Params(0.6, 11);
  const std::vector<double> diag = UniformDiagonal(60, 0.6);
  BfsWorkspace bfs(graph);
  bfs.Run(3, EdgeDirection::kUndirected, params.num_steps + 6);
  const std::vector<double> exact =
      ComputeL1BetaExact(graph, params, diag, 3, bfs, 6);
  Rng rng(312);
  const std::vector<double> sampled =
      ComputeL1Beta(graph, params, diag, 3, 20000, bfs, 6, rng);
  ASSERT_EQ(sampled.size(), exact.size());
  for (size_t d = 0; d < exact.size(); ++d) {
    EXPECT_NEAR(sampled[d], exact[d], 0.05) << d;
  }
}

TEST(L1BoundTest, L1AndL2AreComplementary) {
  // §6.3 motivates keeping *both* bounds: neither dominates the other.
  // On a skewed graph there must exist pairs where L1 (beta) is strictly
  // tighter and pairs where L2 (gamma) is strictly tighter.
  Rng rng(313);
  const DirectedGraph graph = MakeRmat(9, 3000, rng);
  const SimRankParams params = Params(0.6, 11);
  const std::vector<double> diag =
      UniformDiagonal(graph.NumVertices(), params.decay);
  const GammaTable gamma = GammaTable::BuildExact(graph, params, diag);
  BfsWorkspace bfs(graph);
  int l1_wins = 0, l2_wins = 0;
  for (Vertex u = 0; u < graph.NumVertices(); u += 17) {
    bfs.Run(u, EdgeDirection::kUndirected, params.num_steps + 6);
    const std::vector<double> beta =
        ComputeL1BetaExact(graph, params, diag, u, bfs, 6);
    for (Vertex v = 0; v < graph.NumVertices(); v += 13) {
      const uint32_t d = bfs.Distance(v);
      if (v == u || d == kInfiniteDistance || d > 6) continue;
      const double l1 = beta[d];
      const double l2 = gamma.BoundAtDistance(u, v, d);
      if (l1 < l2 * 0.99) ++l1_wins;
      if (l2 < l1 * 0.99) ++l2_wins;
    }
  }
  EXPECT_GT(l1_wins, 0);
  EXPECT_GT(l2_wins, 0);
}

}  // namespace
}  // namespace simrank
