#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/builder.h"

namespace simrank {

DirectedGraph MakeStar(Vertex num_leaves) {
  GraphBuilder builder;
  builder.ReserveVertices(num_leaves + 1);
  for (Vertex leaf = 1; leaf <= num_leaves; ++leaf) {
    builder.AddUndirectedEdge(0, leaf);
  }
  return builder.Build();
}

DirectedGraph MakePath(Vertex n) {
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (Vertex v = 0; v + 1 < n; ++v) builder.AddUndirectedEdge(v, v + 1);
  return builder.Build();
}

DirectedGraph MakeCycle(Vertex n, bool undirected) {
  GraphBuilder builder;
  builder.ReserveVertices(n);
  if (n >= 2) {
    for (Vertex v = 0; v < n; ++v) {
      const Vertex next = (v + 1) % n;
      if (undirected) {
        builder.AddUndirectedEdge(v, next);
      } else {
        builder.AddEdge(v, next);
      }
    }
  }
  builder.Deduplicate();
  return builder.Build();
}

DirectedGraph MakeComplete(Vertex n) {
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = 0; v < n; ++v) {
      if (u != v) builder.AddEdge(u, v);
    }
  }
  return builder.Build();
}

DirectedGraph MakeGrid(Vertex rows, Vertex cols) {
  GraphBuilder builder;
  builder.ReserveVertices(rows * cols);
  auto id = [cols](Vertex r, Vertex c) { return r * cols + c; };
  for (Vertex r = 0; r < rows; ++r) {
    for (Vertex c = 0; c < cols; ++c) {
      if (c + 1 < cols) builder.AddUndirectedEdge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) builder.AddUndirectedEdge(id(r, c), id(r + 1, c));
    }
  }
  return builder.Build();
}

DirectedGraph MakeErdosRenyi(Vertex n, uint64_t m, Rng& rng, bool undirected) {
  SIMRANK_CHECK_GE(n, 2u);
  GraphBuilder builder;
  builder.ReserveVertices(n);
  builder.ReserveEdges(undirected ? 2 * m : m);
  // m uniform non-loop arcs; duplicates are removed afterwards, so the
  // final count lands slightly below m (negligibly, at sparse densities).
  for (uint64_t i = 0; i < m; ++i) {
    const Vertex u = rng.UniformIndex(n);
    Vertex v = rng.UniformIndex(n - 1);
    if (v >= u) ++v;  // avoid self loop without rejection
    if (undirected) {
      builder.AddUndirectedEdge(u, v);
    } else {
      builder.AddEdge(u, v);
    }
  }
  builder.Deduplicate();
  return builder.Build();
}

DirectedGraph MakeBarabasiAlbert(Vertex n, uint32_t edges_per_vertex,
                                 Rng& rng) {
  SIMRANK_CHECK_GE(edges_per_vertex, 1u);
  SIMRANK_CHECK_GT(n, edges_per_vertex);
  GraphBuilder builder;
  builder.ReserveVertices(n);
  // `endpoints` lists every edge endpoint so far; sampling a uniform element
  // is sampling proportionally to degree.
  std::vector<Vertex> endpoints;
  endpoints.reserve(2ull * n * edges_per_vertex);
  // Seed clique over the first edges_per_vertex + 1 vertices.
  const Vertex seed = edges_per_vertex + 1;
  for (Vertex u = 0; u < seed; ++u) {
    for (Vertex v = u + 1; v < seed; ++v) {
      builder.AddUndirectedEdge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  std::vector<Vertex> chosen;
  for (Vertex v = seed; v < n; ++v) {
    chosen.clear();
    while (chosen.size() < edges_per_vertex) {
      const Vertex target =
          endpoints[rng.UniformInt(endpoints.size())];
      if (std::find(chosen.begin(), chosen.end(), target) == chosen.end()) {
        chosen.push_back(target);
      }
    }
    for (Vertex target : chosen) {
      builder.AddUndirectedEdge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  builder.Deduplicate();
  return builder.Build();
}

DirectedGraph MakeRmat(uint32_t scale, uint64_t m, Rng& rng,
                       const RmatParams& params) {
  SIMRANK_CHECK_LE(scale, 31u);
  const Vertex n = static_cast<Vertex>(1u) << scale;
  GraphBuilder builder;
  builder.ReserveVertices(n);
  builder.ReserveEdges(params.undirected ? 2 * m : m);
  const double d = 1.0 - params.a - params.b - params.c;
  SIMRANK_CHECK_GT(d, 0.0);
  for (uint64_t i = 0; i < m; ++i) {
    Vertex row = 0, col = 0;
    double a = params.a, b = params.b, c = params.c;
    for (uint32_t level = 0; level < scale; ++level) {
      // Per-level multiplicative noise, renormalized.
      const double na = a * (1.0 + params.noise * (rng.UniformDouble() - 0.5));
      const double nb = b * (1.0 + params.noise * (rng.UniformDouble() - 0.5));
      const double nc = c * (1.0 + params.noise * (rng.UniformDouble() - 0.5));
      const double nd = (1.0 - a - b - c) *
                        (1.0 + params.noise * (rng.UniformDouble() - 0.5));
      const double total = na + nb + nc + nd;
      const double r = rng.UniformDouble() * total;
      row <<= 1;
      col <<= 1;
      if (r < na) {
        // top-left quadrant
      } else if (r < na + nb) {
        col |= 1;
      } else if (r < na + nb + nc) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    if (row == col) continue;
    if (params.undirected) {
      builder.AddUndirectedEdge(row, col);
    } else {
      builder.AddEdge(row, col);
    }
  }
  builder.Deduplicate();
  return builder.Build();
}

DirectedGraph MakeWattsStrogatz(Vertex n, uint32_t k, double beta, Rng& rng) {
  SIMRANK_CHECK_GE(n, 2u * k + 1);
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (Vertex v = 0; v < n; ++v) {
    for (uint32_t j = 1; j <= k; ++j) {
      Vertex target = (v + j) % n;
      if (rng.Bernoulli(beta)) {
        // Rewire to a uniform non-self target.
        target = rng.UniformIndex(n - 1);
        if (target >= v) ++target;
      }
      builder.AddUndirectedEdge(v, target);
    }
  }
  builder.Deduplicate();
  return builder.Build();
}

DirectedGraph MakeCopyingModel(Vertex n, uint32_t out_degree, double copy_prob,
                               Rng& rng) {
  SIMRANK_CHECK_GE(n, 2u);
  GraphBuilder builder;
  builder.ReserveVertices(n);
  builder.ReserveEdges(static_cast<size_t>(n) * out_degree);
  // Flat out-adjacency of the growing graph, for prototype copying.
  std::vector<std::vector<Vertex>> citations(n);
  for (Vertex v = 1; v < n; ++v) {
    const Vertex prototype = rng.UniformIndex(v);
    const uint32_t degree = std::min<uint32_t>(out_degree, v);
    auto& mine = citations[v];
    while (mine.size() < degree) {
      Vertex target;
      const auto& proto_cites = citations[prototype];
      if (!proto_cites.empty() && rng.Bernoulli(copy_prob)) {
        target = proto_cites[rng.UniformInt(proto_cites.size())];
      } else {
        target = rng.UniformIndex(v);
      }
      if (std::find(mine.begin(), mine.end(), target) == mine.end()) {
        mine.push_back(target);
      }
    }
    for (Vertex target : mine) builder.AddEdge(v, target);
  }
  builder.Deduplicate();
  return builder.Build();
}

}  // namespace simrank
