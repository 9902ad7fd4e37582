#include "graph/graph.h"

#include <algorithm>

namespace simrank {

namespace {

// Counting-sort style CSR construction for one direction.
void BuildCsr(Vertex num_vertices, std::span<const Edge> edges, bool reverse,
              std::vector<uint64_t>& offsets, std::vector<Vertex>& targets) {
  offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    const Vertex key = reverse ? e.to : e.from;
    SIMRANK_CHECK_LT(key, num_vertices);
    SIMRANK_CHECK_LT(reverse ? e.from : e.to, num_vertices);
    ++offsets[key + 1];
  }
  for (size_t v = 0; v < num_vertices; ++v) offsets[v + 1] += offsets[v];
  targets.resize(edges.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    const Vertex key = reverse ? e.to : e.from;
    const Vertex val = reverse ? e.from : e.to;
    targets[cursor[key]++] = val;
  }
  for (Vertex v = 0; v < num_vertices; ++v) {
    std::sort(targets.begin() + static_cast<ptrdiff_t>(offsets[v]),
              targets.begin() + static_cast<ptrdiff_t>(offsets[v + 1]));
  }
}

}  // namespace

DirectedGraph::DirectedGraph(Vertex num_vertices, std::span<const Edge> edges)
    : num_vertices_(num_vertices) {
  BuildCsr(num_vertices, edges, /*reverse=*/false, out_offsets_, out_targets_);
  BuildCsr(num_vertices, edges, /*reverse=*/true, in_offsets_, in_targets_);
}

bool DirectedGraph::HasEdge(Vertex u, Vertex v) const {
  const auto nbrs = OutNeighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> DirectedGraph::Edges() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (Vertex u = 0; u < num_vertices_; ++u) {
    for (Vertex v : OutNeighbors(u)) edges.push_back({u, v});
  }
  return edges;
}

uint64_t DirectedGraph::MemoryBytes() const {
  return (out_offsets_.capacity() + in_offsets_.capacity()) *
             sizeof(uint64_t) +
         (out_targets_.capacity() + in_targets_.capacity()) * sizeof(Vertex);
}

}  // namespace simrank
