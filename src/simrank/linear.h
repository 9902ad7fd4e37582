#ifndef SIMRANK_SIMRANK_LINEAR_H_
#define SIMRANK_SIMRANK_LINEAR_H_

#include <vector>

#include "graph/graph.h"
#include "obs/phase.h"
#include "simrank/params.h"
#include "util/top_k.h"

namespace simrank {

/// A distribution over the vertices: values in a dense array, with the
/// nonzero positions listed separately so clearing is O(support).
struct SparseDistribution {
  std::vector<double> value;    // dense, size n
  std::vector<Vertex> support;  // positions with value != 0

  explicit SparseDistribution(size_t n) : value(n, 0.0) {}

  /// The point mass e_v (the distribution must be clear).
  void SetPoint(Vertex v) {
    value[v] = 1.0;
    support.push_back(v);
  }

  void Clear() {
    for (Vertex v : support) value[v] = 0.0;
    support.clear();
  }
};

/// next = P * current: one walk step backward along in-links, by sparse
/// push over current's support (walks die at dangling vertices). The
/// support of `next` lists vertices in first-reached order, and each value
/// sums its shares in that visiting order, so every caller (the exact
/// oracle, the exact gamma table and L1 bound, the exact diagonal) gets
/// the same floating-point result for the same P^t e_u.
void PropagateStep(const DirectedGraph& graph,
                   const SparseDistribution& current,
                   SparseDistribution& next);

/// Deterministic evaluation of the paper's linear recursive formulation
/// (§3): SimRank satisfies S = c P^T S P + D with a diagonal correction
/// matrix D, hence the converging series (7)
///
///   S = D + c P^T D P + c^2 (P^2)^T D P^2 + ...
///
/// and the truncated score (9)
///
///   s^(T)(u,v) = sum_{t=0}^{T-1} c^t (P^t e_u)^T D (P^t e_v),
///
/// which this class evaluates exactly by sparse propagation of the walk
/// distributions P^t e_u. Single-pair costs O(T m) time and O(n) space —
/// the first linear-time/linear-space single-pair algorithm (§4, first
/// paragraph). Single-source costs O(T^2 m) and is the exact oracle used by
/// the accuracy experiments.
///
/// The diagonal vector is the paper's D; pass UniformDiagonal() for the
/// D ~ (1-c)I approximation of §3.3, or ExactDiagonalCorrection() to
/// reproduce true SimRank on small graphs.
class LinearSimRank {
 public:
  /// `diagonal` must have one entry per vertex.
  LinearSimRank(const DirectedGraph& graph, const SimRankParams& params,
                std::vector<double> diagonal);

  const SimRankParams& params() const { return params_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// s^(T)(u, v) via Eq. (9). Exact (no sampling).
  double SinglePair(Vertex u, Vertex v) const;

  /// s^(T)(u, v) for every v, via the pulled-back series
  /// sum_t c^t (P^T)^t (D P^t e_u). Exact. When `phases` is given, the
  /// forward and backward passes add their time to its exact_forward and
  /// exact_backward entries.
  std::vector<double> SingleSource(Vertex u,
                                   obs::PhaseTimes* phases = nullptr) const;

  /// Exact top-k ranking of `u` (u excluded, scores below `threshold`
  /// dropped): the deterministic ground-truth oracle the randomized
  /// engine is validated against in tests and benches. `phases` as in
  /// SingleSource.
  std::vector<ScoredVertex> TopK(Vertex u, uint32_t k, double threshold = 0.0,
                                 obs::PhaseTimes* phases = nullptr) const;

 private:
  const DirectedGraph& graph_;
  SimRankParams params_;
  std::vector<double> diagonal_;
};

/// The D ~ (1-c)I approximation of §3.3 (also the — incorrect as a SimRank
/// definition, but ranking-preserving — recursion (11) used by the spectral
/// papers): a constant vector of 1 - decay.
std::vector<double> UniformDiagonal(Vertex num_vertices, double decay);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_LINEAR_H_
