#include "simrank/linear.h"

#include <utility>

namespace simrank {

void PropagateStep(const DirectedGraph& graph,
                   const SparseDistribution& current,
                   SparseDistribution& next) {
  next.Clear();
  for (Vertex v : current.support) {
    const auto in_v = graph.InNeighbors(v);
    if (in_v.empty()) continue;  // the walk dies at dangling vertices
    const double share =
        current.value[v] / static_cast<double>(in_v.size());
    for (Vertex w : in_v) {
      if (next.value[w] == 0.0) next.support.push_back(w);
      next.value[w] += share;
    }
  }
}

LinearSimRank::LinearSimRank(const DirectedGraph& graph,
                             const SimRankParams& params,
                             std::vector<double> diagonal)
    : graph_(graph), params_(params), diagonal_(std::move(diagonal)) {
  params_.Validate();
  SIMRANK_CHECK_EQ(diagonal_.size(), graph.NumVertices());
}

double LinearSimRank::SinglePair(Vertex u, Vertex v) const {
  const size_t n = graph_.NumVertices();
  SIMRANK_CHECK_LT(u, n);
  SIMRANK_CHECK_LT(v, n);
  SparseDistribution x(n), y(n), x_next(n), y_next(n);
  x.SetPoint(u);
  y.SetPoint(v);
  double score = 0.0;
  double decay_pow = 1.0;
  for (uint32_t t = 0; t < params_.num_steps; ++t) {
    // term = c^t * x^T D y, iterating the smaller support.
    const SparseDistribution& small =
        x.support.size() <= y.support.size() ? x : y;
    const SparseDistribution& large =
        x.support.size() <= y.support.size() ? y : x;
    double term = 0.0;
    for (Vertex w : small.support) {
      term += small.value[w] * diagonal_[w] * large.value[w];
    }
    score += decay_pow * term;
    decay_pow *= params_.decay;
    if (t + 1 < params_.num_steps) {
      PropagateStep(graph_, x, x_next);
      std::swap(x, x_next);
      PropagateStep(graph_, y, y_next);
      std::swap(y, y_next);
      if (x.support.empty() || y.support.empty()) break;
    }
  }
  return score;
}

std::vector<double> LinearSimRank::SingleSource(
    Vertex u, obs::PhaseTimes* phases) const {
  const size_t n = graph_.NumVertices();
  SIMRANK_CHECK_LT(u, n);
  const uint32_t steps = params_.num_steps;
  obs::PhaseTimes unreported;
  obs::PhaseClock clock(phases != nullptr ? *phases : unreported,
                        obs::QueryPhase::kExactForward);
  // Forward pass: record z_t = D .* (P^t e_u) for every t.
  std::vector<std::vector<std::pair<Vertex, double>>> weighted(steps);
  {
    SparseDistribution x(n), x_next(n);
    x.SetPoint(u);
    for (uint32_t t = 0; t < steps; ++t) {
      auto& z = weighted[t];
      z.reserve(x.support.size());
      for (Vertex w : x.support) {
        z.emplace_back(w, diagonal_[w] * x.value[w]);
      }
      if (t + 1 < steps) {
        PropagateStep(graph_, x, x_next);
        std::swap(x, x_next);
        if (x.support.empty()) break;
      }
    }
  }
  clock.Enter(obs::QueryPhase::kExactBackward);
  // Backward Horner pass: w <- z_t + c P^T w, so that after t = 0 the
  // accumulator equals sum_t c^t (P^T)^t z_t, whose v-entry is s^(T)(u,v).
  std::vector<double> acc(n, 0.0);
  std::vector<double> pulled(n, 0.0);
  for (uint32_t t = steps; t-- > 0;) {
    if (t + 1 < steps) {
      // pulled = P^T acc: pulled(j) = mean of acc over I(j).
      for (Vertex j = 0; j < n; ++j) {
        const auto in_j = graph_.InNeighbors(j);
        if (in_j.empty()) {
          pulled[j] = 0.0;
          continue;
        }
        double sum = 0.0;
        for (Vertex i : in_j) sum += acc[i];
        pulled[j] = sum / static_cast<double>(in_j.size());
      }
      for (Vertex j = 0; j < n; ++j) acc[j] = params_.decay * pulled[j];
    }
    for (const auto& [w, weight] : weighted[t]) acc[w] += weight;
  }
  clock.Stop();
  return acc;
}

std::vector<ScoredVertex> LinearSimRank::TopK(Vertex u, uint32_t k,
                                               double threshold,
                                               obs::PhaseTimes* phases) const {
  const std::vector<double> row = SingleSource(u, phases);
  TopKCollector collector(k);
  for (size_t v = 0; v < row.size(); ++v) {
    if (v != u && row[v] >= threshold && row[v] > 0.0) {
      collector.Push(static_cast<Vertex>(v), row[v]);
    }
  }
  return collector.TakeSorted();
}

std::vector<double> UniformDiagonal(Vertex num_vertices, double decay) {
  return std::vector<double>(num_vertices, 1.0 - decay);
}

}  // namespace simrank
