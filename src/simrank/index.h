#ifndef SIMRANK_SIMRANK_INDEX_H_
#define SIMRANK_SIMRANK_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "simrank/params.h"
#include "util/thread_pool.h"

namespace simrank {

/// Parameters of the preprocess candidate index (§7.1). Defaults follow the
/// paper: P = 10 repetitions, Q = 5 witness walks, walk length T.
struct IndexParams {
  uint32_t repetitions = 10;    ///< P
  uint32_t witness_walks = 5;   ///< Q
};

/// The auxiliary bipartite graph H of §7.1 (Algorithm 4), stored as a
/// forward CSR (vertex -> its index/hub vertices) plus the inverted CSR
/// (hub -> vertices whose index contains it).
///
/// Construction, per vertex u, repeated P times: run one "pivot" walk W0 of
/// length T and Q witness walks W1..WQ from u; whenever two witness walks
/// collide at step t (evidence that P^t e_u carries a heavy vertex), the
/// pivot's position W0[t] is added to u's index. Two vertices u, v are
/// *candidates* of each other when their index sets intersect — they are
/// likely to have a large SimRank score because their walk distributions
/// share heavy vertices.
///
/// Space O(n P); preprocess time O(n P Q T) — the paper's O(n) claim.
class CandidateIndex {
 public:
  /// Builds the index deterministically from `seed`. `pool` may be null.
  CandidateIndex(const DirectedGraph& graph, const SimRankParams& params,
                 const IndexParams& index_params, uint64_t seed,
                 ThreadPool* pool = nullptr);

  /// Reassembles an index from a stored forward CSR (serialization path);
  /// the inverted CSR is rebuilt. Hub lists must be sorted and in range.
  static CandidateIndex FromCsr(Vertex num_vertices,
                                std::vector<uint64_t> hub_offsets,
                                std::vector<Vertex> hubs);

  Vertex num_vertices() const { return num_vertices_; }
  /// Raw forward CSR (for serialization).
  const std::vector<uint64_t>& hub_offsets() const { return hub_offsets_; }
  const std::vector<Vertex>& hubs() const { return hubs_; }

  /// Sorted, deduplicated hub list of u (its neighbourhood in H).
  std::span<const Vertex> HubsOf(Vertex u) const {
    return {hubs_.data() + hub_offsets_[u],
            hubs_.data() + hub_offsets_[u + 1]};
  }

  /// Vertices whose index contains hub h.
  std::span<const Vertex> VerticesWithHub(Vertex h) const {
    return {members_.data() + member_offsets_[h],
            members_.data() + member_offsets_[h + 1]};
  }

  /// Total number of (vertex, hub) index entries.
  uint64_t NumEntries() const { return hubs_.size(); }

  /// Invokes fn(v) once for every candidate v of u: every vertex sharing at
  /// least one hub with u (including u itself if indexed). `scratch` must
  /// have at least num_vertices() entries and is used for deduplication;
  /// `scratch_epoch` is incremented by the call (and restarts at 1, with
  /// `scratch` cleared, when it wraps).
  template <typename Fn>
  void ForEachCandidate(Vertex u, std::vector<uint32_t>& scratch,
                        uint32_t& scratch_epoch, Fn&& fn) const {
    if (++scratch_epoch == 0) {
      // Wrapped: zero-filled and stale marks would read as already seen.
      std::fill(scratch.begin(), scratch.end(), 0);
      scratch_epoch = 1;
    }
    const uint32_t epoch = scratch_epoch;
    for (Vertex hub : HubsOf(u)) {
      for (Vertex v : VerticesWithHub(hub)) {
        if (scratch[v] == epoch) continue;
        scratch[v] = epoch;
        fn(v);
      }
    }
  }

  uint64_t MemoryBytes() const {
    return (hub_offsets_.capacity() + member_offsets_.capacity()) *
               sizeof(uint64_t) +
           (hubs_.capacity() + members_.capacity()) * sizeof(Vertex);
  }

 private:
  CandidateIndex() : num_vertices_(0) {}

  // Rebuilds member_offsets_/members_ from the forward CSR.
  void BuildInvertedCsr();

  Vertex num_vertices_;
  std::vector<uint64_t> hub_offsets_;     // size n+1
  std::vector<Vertex> hubs_;              // forward adjacency of H
  std::vector<uint64_t> member_offsets_;  // size n+1
  std::vector<Vertex> members_;           // inverted adjacency of H
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_INDEX_H_
