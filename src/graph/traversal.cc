#include "graph/traversal.h"

#include <algorithm>

namespace simrank {

namespace {

template <typename Visit>
void ForEachNeighbor(const DirectedGraph& graph, Vertex v,
                     EdgeDirection direction, Visit&& visit) {
  switch (direction) {
    case EdgeDirection::kOut:
      for (Vertex w : graph.OutNeighbors(v)) visit(w);
      break;
    case EdgeDirection::kIn:
      for (Vertex w : graph.InNeighbors(v)) visit(w);
      break;
    case EdgeDirection::kUndirected:
      for (Vertex w : graph.OutNeighbors(v)) visit(w);
      for (Vertex w : graph.InNeighbors(v)) visit(w);
      break;
  }
}

uint64_t Degree(const DirectedGraph& graph, Vertex v,
                EdgeDirection direction) {
  const uint64_t out =
      direction == EdgeDirection::kIn ? 0 : graph.OutDegree(v);
  const uint64_t in = direction == EdgeDirection::kOut ? 0 : graph.InDegree(v);
  return out + in;
}

}  // namespace

std::vector<uint32_t> BfsDistances(const DirectedGraph& graph, Vertex source,
                                   EdgeDirection direction,
                                   uint32_t max_distance) {
  BfsWorkspace workspace(graph);
  workspace.Run(source, direction, max_distance);
  std::vector<uint32_t> distances(graph.NumVertices(), kInfiniteDistance);
  for (Vertex v : workspace.Reached()) distances[v] = workspace.Distance(v);
  return distances;
}

BfsWorkspace::BfsWorkspace(const DirectedGraph& graph)
    : graph_(graph),
      distance_(graph.NumVertices(), 0),
      epoch_of_(graph.NumVertices(), 0) {}

void BfsWorkspace::Run(Vertex source, EdgeDirection direction,
                       uint32_t max_distance, uint64_t edge_budget) {
  SIMRANK_CHECK_LT(source, graph_.NumVertices());
  if (++epoch_ == 0) {
    // Wrapped: zero-filled and stale stamps would read as visited.
    std::fill(epoch_of_.begin(), epoch_of_.end(), 0);
    epoch_ = 1;
  }
  reached_.clear();
  reached_.push_back(source);
  epoch_of_[source] = epoch_;
  distance_[source] = 0;
  edges_visited_ = 0;
  frontier_distance_ = kInfiniteDistance;
  // `reached_` doubles as the BFS queue: vertices are appended in discovery
  // order, and [begin, end) holds the level at distance `level`.
  size_t begin = 0;
  for (uint32_t level = 0; begin < reached_.size(); ++level) {
    // A horizon or budget cut leaves everything unreached beyond `level`.
    if (level >= max_distance) {
      frontier_distance_ = level + 1;
      return;
    }
    const size_t end = reached_.size();
    uint64_t level_edges = 0;
    for (size_t i = begin; i < end; ++i) {
      level_edges += Degree(graph_, reached_[i], direction);
    }
    if (level_edges > edge_budget - edges_visited_) {
      frontier_distance_ = level + 1;
      return;
    }
    edges_visited_ += level_edges;
    for (size_t i = begin; i < end; ++i) {
      ForEachNeighbor(graph_, reached_[i], direction, [&](Vertex w) {
        if (epoch_of_[w] != epoch_) {
          epoch_of_[w] = epoch_;
          distance_[w] = level + 1;
          reached_.push_back(w);
        }
      });
    }
    begin = end;
  }
}

ComponentStats WeaklyConnectedComponents(const DirectedGraph& graph) {
  ComponentStats stats;
  const Vertex n = graph.NumVertices();
  if (n == 0) return stats;
  BfsWorkspace workspace(graph);
  std::vector<bool> assigned(n, false);
  for (Vertex v = 0; v < n; ++v) {
    if (assigned[v]) continue;
    workspace.Run(v, EdgeDirection::kUndirected);
    uint64_t size = 0;
    for (Vertex w : workspace.Reached()) {
      if (!assigned[w]) {
        assigned[w] = true;
        ++size;
      }
    }
    ++stats.num_components;
    stats.largest_size = std::max(stats.largest_size, size);
  }
  return stats;
}

double EstimateAverageDistance(const DirectedGraph& graph,
                               uint32_t num_sources, Rng& rng) {
  const Vertex n = graph.NumVertices();
  if (n < 2) return 0.0;
  BfsWorkspace workspace(graph);
  double sum = 0.0;
  uint64_t count = 0;
  for (uint32_t i = 0; i < num_sources; ++i) {
    const Vertex source = rng.UniformIndex(n);
    workspace.Run(source, EdgeDirection::kUndirected);
    for (Vertex v : workspace.Reached()) {
      if (v == source) continue;
      sum += workspace.Distance(v);
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

}  // namespace simrank
