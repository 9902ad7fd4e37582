#include "simrank/surfer_pair.h"

#include <cmath>
#include <vector>

#include "simrank/walk_kernel.h"

namespace simrank {

double SurferPairSimRank(const DirectedGraph& graph, Vertex u, Vertex v,
                         const SimRankParams& params, uint32_t num_trials,
                         Rng& rng) {
  params.Validate();
  SIMRANK_CHECK_GE(num_trials, 1u);
  SIMRANK_CHECK_LT(u, graph.NumVertices());
  SIMRANK_CHECK_LT(v, graph.NumVertices());
  if (u == v) return 1.0;
  // All trials' coupled pairs advance in lock-step through the walk
  // kernel: step every a-walk, step every b-walk, then resolve trials whose
  // pair met (contributes c^t) or died (contributes 0), compacting the
  // unresolved pairs to the front so later steps only touch them.
  std::vector<Vertex> a(num_trials, u);
  std::vector<Vertex> b(num_trials, v);
  double total = 0.0;
  double decay_pow = 1.0;
  uint32_t live = num_trials;
  for (uint32_t t = 1; t <= params.num_steps && live > 0; ++t) {
    StepWalksInPlace(graph, {a.data(), live}, rng);
    StepWalksInPlace(graph, {b.data(), live}, rng);
    decay_pow *= params.decay;
    uint32_t unresolved = 0;
    for (uint32_t i = 0; i < live; ++i) {
      if (a[i] == kNoVertex || b[i] == kNoVertex) continue;  // died: no meeting
      if (a[i] == b[i]) {
        total += decay_pow;  // first meeting at time t contributes c^t
        continue;
      }
      a[unresolved] = a[i];
      b[unresolved] = b[i];
      ++unresolved;
    }
    live = unresolved;
  }
  return total / static_cast<double>(num_trials);
}

}  // namespace simrank
