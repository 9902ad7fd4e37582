#include "simrank/index.h"

#include <algorithm>

#include "obs/metrics.h"
#include "simrank/walk_kernel.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {

namespace {

// Runs Algorithm 4 for one vertex: appends the pivot positions selected by
// witness-walk collisions to `out` (unsorted, may contain duplicates).
//
// All P repetitions advance together through the walk kernel: one pivot
// walk per repetition plus a Q-wide witness block per repetition, slots
// preserved (StepWalksInPlace) so each witness stays keyed to its
// repetition. A collision at step t — two of a repetition's witnesses on
// the same vertex — selects that repetition's pivot position at t.
void IndexOneVertex(const DirectedGraph& graph, const SimRankParams& params,
                    const IndexParams& index_params, Vertex u, Rng& rng,
                    std::vector<Vertex>& out) {
  const uint32_t steps = params.num_steps;
  const uint32_t q = index_params.witness_walks;
  const uint32_t reps = index_params.repetitions;
  std::vector<Vertex> pivots(reps, u);
  std::vector<Vertex> witnesses(static_cast<size_t>(reps) * q, u);
  WalkCounter collisions(q);
  // The algorithm inspects t = 1..T-1, matching "for t = 1,...,T".
  for (uint32_t t = 1; t < steps; ++t) {
    StepWalksInPlace(graph, pivots, rng);
    const uint32_t witnesses_alive = StepWalksInPlace(graph, witnesses, rng);
    for (uint32_t rep = 0; rep < reps; ++rep) {
      const Vertex pivot = pivots[rep];
      if (pivot == kNoVertex) continue;  // dead pivot selects nothing
      const Vertex* block = witnesses.data() + static_cast<size_t>(rep) * q;
      collisions.Clear();
      bool collided = false;
      for (uint32_t j = 0; j < q && !collided; ++j) {
        if (block[j] == kNoVertex) continue;
        collisions.Add(block[j]);
        if (collisions.Count(block[j]) >= 2) collided = true;
      }
      if (collided) out.push_back(pivot);
    }
    if (witnesses_alive == 0) break;
  }
}

}  // namespace

CandidateIndex::CandidateIndex(const DirectedGraph& graph,
                               const SimRankParams& params,
                               const IndexParams& index_params, uint64_t seed,
                               ThreadPool* pool)
    : num_vertices_(graph.NumVertices()) {
  params.Validate();
  SIMRANK_CHECK_GE(index_params.repetitions, 1u);
  SIMRANK_CHECK_GE(index_params.witness_walks, 2u);
  const Vertex n = num_vertices_;
  // Per-vertex hub lists (sorted + deduplicated), built in parallel with a
  // deterministic per-vertex RNG stream.
  std::vector<std::vector<Vertex>> per_vertex(n);
  ParallelFor(pool, 0, n, [&](size_t u) {
    Rng rng(MixSeeds(seed, u));
    auto& hubs = per_vertex[u];
    IndexOneVertex(graph, params, index_params, static_cast<Vertex>(u), rng,
                   hubs);
    std::sort(hubs.begin(), hubs.end());
    hubs.erase(std::unique(hubs.begin(), hubs.end()), hubs.end());
  });
  // Every vertex starts P * (1 + Q) walks (pivot + witnesses), whether or
  // not they survive to full length.
  obs::MetricsRegistry::Default()
      .GetCounter("index.walks_started")
      .Add(static_cast<uint64_t>(n) * index_params.repetitions *
           (1 + index_params.witness_walks));
  // Flatten into the forward CSR.
  hub_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (Vertex u = 0; u < n; ++u) {
    hub_offsets_[u + 1] = hub_offsets_[u] + per_vertex[u].size();
  }
  hubs_.resize(hub_offsets_[n]);
  for (Vertex u = 0; u < n; ++u) {
    std::copy(per_vertex[u].begin(), per_vertex[u].end(),
              hubs_.begin() + static_cast<ptrdiff_t>(hub_offsets_[u]));
    per_vertex[u].clear();
    per_vertex[u].shrink_to_fit();
  }
  BuildInvertedCsr();
}

CandidateIndex CandidateIndex::FromCsr(Vertex num_vertices,
                                       std::vector<uint64_t> hub_offsets,
                                       std::vector<Vertex> hubs) {
  SIMRANK_CHECK_EQ(hub_offsets.size(), static_cast<size_t>(num_vertices) + 1);
  SIMRANK_CHECK_EQ(hub_offsets.front(), 0u);
  SIMRANK_CHECK_EQ(hub_offsets.back(), hubs.size());
  for (Vertex hub : hubs) SIMRANK_CHECK_LT(hub, num_vertices);
  CandidateIndex index;
  index.num_vertices_ = num_vertices;
  index.hub_offsets_ = std::move(hub_offsets);
  index.hubs_ = std::move(hubs);
  index.BuildInvertedCsr();
  return index;
}

void CandidateIndex::BuildInvertedCsr() {
  const Vertex n = num_vertices_;
  member_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (Vertex hub : hubs_) ++member_offsets_[hub + 1];
  for (Vertex h = 0; h < n; ++h) member_offsets_[h + 1] += member_offsets_[h];
  members_.resize(hubs_.size());
  std::vector<uint64_t> cursor(member_offsets_.begin(),
                               member_offsets_.end() - 1);
  for (Vertex u = 0; u < n; ++u) {
    for (uint64_t i = hub_offsets_[u]; i < hub_offsets_[u + 1]; ++i) {
      members_[cursor[hubs_[i]]++] = u;
    }
  }
}

}  // namespace simrank
