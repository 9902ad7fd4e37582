#ifndef SIMRANK_GRAPH_TRAVERSAL_H_
#define SIMRANK_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace simrank {

/// Distance value for unreachable vertices.
inline constexpr uint32_t kInfiniteDistance = static_cast<uint32_t>(-1);

/// Which adjacency a traversal follows.
enum class EdgeDirection {
  kOut,        ///< follow u -> v edges forward
  kIn,         ///< follow edges backward (the SimRank walk direction)
  kUndirected  ///< treat every edge as bidirectional (the distance metric
               ///< used by the L1 bound and Figure 2)
};

/// Single-source BFS distances from `source`, truncated at `max_distance`
/// (vertices farther away report kInfiniteDistance). O(n + m).
std::vector<uint32_t> BfsDistances(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction,
                                   uint32_t max_distance = kInfiniteDistance);

/// Edge budget of BfsWorkspace::Run that never binds.
inline constexpr uint64_t kNoEdgeBudget = static_cast<uint64_t>(-1);

/// Reusable BFS workspace for query loops: avoids the O(n) clear between
/// BFS runs by epoch-stamping visited marks. Not thread-safe; use one per
/// thread.
class BfsWorkspace {
 public:
  explicit BfsWorkspace(const DirectedGraph& graph);

  /// Runs BFS from `source` along `direction`, level by level, up to
  /// `max_distance`. Before expanding a level it sums the level's degrees
  /// along `direction` and stops if the edges visited so far plus that sum
  /// would pass `edge_budget`, so a run scans at most `edge_budget` edges.
  /// The result stays valid until the next Run on this workspace.
  void Run(Vertex source, EdgeDirection direction,
           uint32_t max_distance = kInfiniteDistance,
           uint64_t edge_budget = kNoEdgeBudget);

  /// Distance of v from the last Run's source (kInfiniteDistance if not
  /// reached within the cutoff).
  uint32_t Distance(Vertex v) const {
    return epoch_of_[v] == epoch_ ? distance_[v] : kInfiniteDistance;
  }

  /// Every vertex the last Run did not reach is at least this far from the
  /// source: max_distance + 1 after a horizon cut, the cut level + 1 after
  /// a budget cut, and kInfiniteDistance once the component is exhausted.
  /// Reached vertices are exactly the ones closer than this.
  uint32_t frontier_distance() const { return frontier_distance_; }

  /// Lower bound on the distance of v from the last Run's source: the
  /// exact distance where the BFS reached v, frontier_distance() elsewhere.
  /// Equals min(d(v), frontier_distance()).
  uint32_t DistanceLowerBound(Vertex v) const {
    return epoch_of_[v] == epoch_ ? distance_[v] : frontier_distance_;
  }

  /// Vertices reached by the last Run, in nondecreasing distance order
  /// (BFS discovery order); the source itself is first.
  const std::vector<Vertex>& Reached() const { return reached_; }

  /// Edges the last Run scanned: the degree sum of the levels it expanded.
  uint64_t edges_visited() const { return edges_visited_; }

 private:
  friend class BfsWorkspaceTestPeer;  // starts the epoch near its wrap

  const DirectedGraph& graph_;
  std::vector<uint32_t> distance_;
  std::vector<uint32_t> epoch_of_;
  std::vector<Vertex> reached_;
  uint32_t epoch_ = 0;
  uint32_t frontier_distance_ = kInfiniteDistance;
  uint64_t edges_visited_ = 0;
};

/// Number of weakly connected components and the size of the largest one.
struct ComponentStats {
  uint64_t num_components = 0;
  uint64_t largest_size = 0;
};
ComponentStats WeaklyConnectedComponents(const DirectedGraph& graph);

/// Unbiased estimate of the mean undirected distance between reachable
/// vertex pairs, from `num_sources` sampled BFS runs (the blue baseline of
/// Figure 2).
double EstimateAverageDistance(const DirectedGraph& graph, uint32_t num_sources,
                               Rng& rng);

}  // namespace simrank

#endif  // SIMRANK_GRAPH_TRAVERSAL_H_
