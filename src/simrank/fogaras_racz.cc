#include "simrank/fogaras_racz.h"

#include <cmath>

#include "simrank/walk_kernel.h"
#include "util/rng.h"
#include "util/timer.h"

namespace simrank {

FogarasRaczIndex::FogarasRaczIndex(const DirectedGraph& graph,
                                   const SimRankParams& params,
                                   uint32_t num_fingerprints, uint64_t seed,
                                   ThreadPool* pool)
    : graph_(graph),
      params_(params),
      num_fingerprints_(num_fingerprints),
      num_steps_(params.num_steps),
      n_(graph.NumVertices()) {
  params_.Validate();
  SIMRANK_CHECK_GE(num_fingerprints, 1u);
  WallTimer timer;
  next_.resize(static_cast<size_t>(num_fingerprints_) * num_steps_ * n_);
  // One deterministic stream per (sample, step) slice so builds are
  // reproducible under any thread count. Each slice is one
  // SampleInNeighbors pass over the identity row (one draw per vertex with
  // in-links, in vertex order — the same stream the scalar loop consumed).
  std::vector<Vertex> identity(n_);
  for (size_t v = 0; v < n_; ++v) identity[v] = static_cast<Vertex>(v);
  ParallelFor(pool, 0, static_cast<size_t>(num_fingerprints_) * num_steps_,
              [&](size_t slice) {
                Rng rng(MixSeeds(seed, slice));
                SampleInNeighbors(graph_, identity, rng,
                                  next_.data() + slice * n_);
              });
  preprocess_seconds_ = timer.ElapsedSeconds();
}

double FogarasRaczIndex::SinglePair(Vertex u, Vertex v) const {
  SIMRANK_CHECK_LT(u, n_);
  SIMRANK_CHECK_LT(v, n_);
  if (u == v) return 1.0;
  double total = 0.0;
  for (uint32_t r = 0; r < num_fingerprints_; ++r) {
    Vertex a = u, b = v;
    double decay_pow = 1.0;
    for (uint32_t t = 1; t <= num_steps_; ++t) {
      a = a == kNoVertex ? kNoVertex : Next(r, t, a);
      b = b == kNoVertex ? kNoVertex : Next(r, t, b);
      if (a == kNoVertex || b == kNoVertex) break;
      decay_pow *= params_.decay;
      if (a == b) {
        total += decay_pow;
        break;
      }
    }
  }
  return total / static_cast<double>(num_fingerprints_);
}

std::vector<double> FogarasRaczIndex::SingleSource(Vertex u) const {
  SIMRANK_CHECK_LT(u, n_);
  std::vector<double> scores(n_, 0.0);
  std::vector<Vertex> position(n_);
  for (uint32_t r = 0; r < num_fingerprints_; ++r) {
    // Advance the whole vertex population in lock-step with u's walk; the
    // first time position[v] coincides with u's position, v's first-meeting
    // time with u in sample r is t.
    for (size_t v = 0; v < n_; ++v) position[v] = static_cast<Vertex>(v);
    std::vector<bool> met(n_, false);
    Vertex u_position = u;
    double decay_pow = 1.0;
    for (uint32_t t = 1; t <= num_steps_; ++t) {
      if (u_position == kNoVertex) break;
      u_position = Next(r, t, u_position);
      if (u_position == kNoVertex) break;
      decay_pow *= params_.decay;
      for (size_t v = 0; v < n_; ++v) {
        if (met[v] || v == u) continue;
        Vertex& p = position[v];
        if (p == kNoVertex) continue;
        p = Next(r, t, p);
        if (p == u_position) {
          met[v] = true;
          scores[v] += decay_pow;
        }
      }
    }
  }
  const double scale = 1.0 / static_cast<double>(num_fingerprints_);
  for (double& s : scores) s *= scale;
  scores[u] = 1.0;
  return scores;
}

std::vector<ScoredVertex> FogarasRaczIndex::TopK(Vertex u, uint32_t k,
                                                 double threshold) const {
  const std::vector<double> scores = SingleSource(u);
  TopKCollector collector(k);
  for (size_t v = 0; v < scores.size(); ++v) {
    if (v == u) continue;
    if (scores[v] >= threshold && scores[v] > 0.0) {
      collector.Push(static_cast<Vertex>(v), scores[v]);
    }
  }
  return collector.TakeSorted();
}

}  // namespace simrank
