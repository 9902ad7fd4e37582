#ifndef SIMRANK_GRAPH_GRAPH_H_
#define SIMRANK_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace simrank {

/// Vertex identifier. The library targets graphs with up to ~4 billion
/// vertices; edge counts use 64 bits.
using Vertex = uint32_t;

/// Sentinel for "no vertex" (dead random walk, unreachable BFS target).
inline constexpr Vertex kNoVertex = static_cast<Vertex>(-1);

/// A directed edge (from -> to).
struct Edge {
  Vertex from = 0;
  Vertex to = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable directed graph in compressed-sparse-row form, stored in both
/// directions: out-adjacency for forward traversal and in-adjacency for the
/// in-link random walks that SimRank is defined over (the paper's δ(u)).
///
/// Total footprint is O(n + m) words — the paper's optimal graph-storage
/// bound. Neighbor lists are sorted, enabling binary-search edge lookups.
class DirectedGraph {
 public:
  /// Builds the CSR representation from an edge list. Duplicate edges are
  /// kept unless the caller deduplicated them (see GraphBuilder).
  DirectedGraph(Vertex num_vertices, std::span<const Edge> edges);

  /// Empty graph.
  DirectedGraph() : DirectedGraph(0, {}) {}

  Vertex NumVertices() const { return num_vertices_; }
  uint64_t NumEdges() const { return out_targets_.size(); }

  std::span<const Vertex> OutNeighbors(Vertex v) const {
    SIMRANK_CHECK_LT(v, num_vertices_);
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  /// In-neighbors of v: the vertices u with an edge u -> v. SimRank random
  /// walks step from v to a uniform element of this list.
  std::span<const Vertex> InNeighbors(Vertex v) const {
    SIMRANK_CHECK_LT(v, num_vertices_);
    return {in_targets_.data() + in_offsets_[v],
            in_targets_.data() + in_offsets_[v + 1]};
  }

  uint32_t OutDegree(Vertex v) const {
    SIMRANK_CHECK_LT(v, num_vertices_);
    return static_cast<uint32_t>(out_offsets_[v + 1] - out_offsets_[v]);
  }

  uint32_t InDegree(Vertex v) const {
    SIMRANK_CHECK_LT(v, num_vertices_);
    return static_cast<uint32_t>(in_offsets_[v + 1] - in_offsets_[v]);
  }

  /// True if the edge u -> v exists (binary search, O(log deg)).
  bool HasEdge(Vertex u, Vertex v) const;

  /// One step of the in-link random walk: a uniformly random in-neighbor of
  /// v, or kNoVertex if v has no in-links (the walk dies; v's column of the
  /// transition matrix P is zero).
  Vertex RandomInNeighbor(Vertex v, Rng& rng) const {
    const auto nbrs = InNeighbors(v);
    if (nbrs.empty()) return kNoVertex;
    return nbrs[rng.UniformIndex(static_cast<uint32_t>(nbrs.size()))];
  }

  /// Raw in-CSR arrays for the walk kernel (simrank/walk_kernel.h):
  /// offsets has n+1 entries, targets has m. The kernel's fused loop reads
  /// them directly instead of building a span per step.
  const uint64_t* InOffsetsData() const { return in_offsets_.data(); }
  const Vertex* InTargetsData() const { return in_targets_.data(); }

  /// Materializes the edge list (ordered by source, then target).
  std::vector<Edge> Edges() const;

  /// Heap bytes used by the CSR arrays; reported as "graph memory" by the
  /// benchmark harness.
  uint64_t MemoryBytes() const;

 private:
  Vertex num_vertices_;
  std::vector<uint64_t> out_offsets_;  // size n+1
  std::vector<Vertex> out_targets_;    // size m, sorted per vertex
  std::vector<uint64_t> in_offsets_;   // size n+1
  std::vector<Vertex> in_targets_;     // size m, sorted per vertex
};

}  // namespace simrank

#endif  // SIMRANK_GRAPH_GRAPH_H_
