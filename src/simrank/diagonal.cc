#include "simrank/diagonal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simrank/linear.h"
#include "simrank/monte_carlo.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {

namespace {

// Exact r_k = sum_t c^t sum_w D_ww (P^t e_k)_w^2 by sparse propagation.
double DiagonalScoreExact(const DirectedGraph& graph,
                          const SimRankParams& params,
                          const std::vector<double>& diagonal, Vertex k) {
  const size_t n = graph.NumVertices();
  SparseDistribution current(n), next(n);
  current.SetPoint(k);
  double score = 0.0;
  double decay_pow = 1.0;
  for (uint32_t t = 0; t < params.num_steps; ++t) {
    double term = 0.0;
    for (Vertex w : current.support) {
      term += diagonal[w] * current.value[w] * current.value[w];
    }
    score += decay_pow * term;
    decay_pow *= params.decay;
    if (t + 1 == params.num_steps) break;
    PropagateStep(graph, current, next);
    std::swap(current, next);
    if (current.support.empty()) break;
  }
  return score;
}

// Monte-Carlo r_k with R walks. Like Algorithm 3, the empirical squared
// measure carries an O(1/R) positive bias; acceptable for the estimator's
// purpose (the fixed point is insensitive to a uniform small inflation).
double DiagonalScoreMonteCarlo(const DirectedGraph& graph,
                               const SimRankParams& params,
                               const std::vector<double>& diagonal, Vertex k,
                               uint32_t num_walks, Rng& rng) {
  WalkSet walks(graph, k, num_walks);
  WalkCounter counter(num_walks);
  const double inv_sq = 1.0 / (static_cast<double>(num_walks) * num_walks);
  double score = 0.0;
  double decay_pow = 1.0;
  for (uint32_t t = 0; t < params.num_steps; ++t) {
    counter.Clear();
    counter.AddAll(walks.live());
    double term = 0.0;
    counter.ForEach([&](Vertex w, uint32_t count) {
      term += diagonal[w] * static_cast<double>(count) * count;
    });
    score += decay_pow * term * inv_sq;
    decay_pow *= params.decay;
    if (t + 1 < params.num_steps) {
      if (walks.AllDead()) break;
      walks.Advance(rng);
    }
  }
  return score;
}

}  // namespace

std::vector<double> EstimateDiagonalFixedPoint(
    const DirectedGraph& graph, const SimRankParams& params,
    const DiagonalEstimateOptions& options, ThreadPool* pool,
    double* final_residual) {
  params.Validate();
  const Vertex n = graph.NumVertices();
  const double damping =
      options.damping > 0.0 ? options.damping : 1.0 - params.decay;
  std::vector<double> diagonal(n, 1.0 - params.decay);
  std::vector<double> residuals(n, 0.0);
  double residual = 0.0;
  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    ParallelFor(pool, 0, n, [&](size_t k) {
      double score;
      if (options.monte_carlo_walks > 0) {
        Rng rng(MixSeeds(MixSeeds(options.seed, iter), k));
        score = DiagonalScoreMonteCarlo(graph, params, diagonal,
                                        static_cast<Vertex>(k),
                                        options.monte_carlo_walks, rng);
      } else {
        score = DiagonalScoreExact(graph, params, diagonal,
                                   static_cast<Vertex>(k));
      }
      residuals[k] = 1.0 - score;
    });
    residual = 0.0;
    for (Vertex k = 0; k < n; ++k) {
      diagonal[k] =
          std::clamp(diagonal[k] + damping * residuals[k], 0.0, 1.0);
      residual = std::max(residual, std::abs(residuals[k]));
    }
    if (residual < options.tolerance) break;
  }
  if (final_residual != nullptr) *final_residual = residual;
  return diagonal;
}

}  // namespace simrank
