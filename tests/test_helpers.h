#ifndef SIMRANK_TESTS_TEST_HELPERS_H_
#define SIMRANK_TESTS_TEST_HELPERS_H_

#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "util/check.h"
#include "util/rng.h"

namespace simrank::testing {

/// Builds a directed graph from an explicit edge list.
inline DirectedGraph GraphFromEdges(Vertex n,
                                    const std::vector<Edge>& edges) {
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (const Edge& e : edges) builder.AddEdge(e.from, e.to);
  return builder.Build();
}

/// A small, connected, skewed random graph for property tests: BA backbone
/// plus extra random directed edges (so in-degrees differ from
/// out-degrees and some vertices may be reciprocal hubs).
inline DirectedGraph SmallRandomGraph(Vertex n, uint64_t seed,
                                      uint32_t extra_edges = 0) {
  Rng rng(seed);
  DirectedGraph base = MakeBarabasiAlbert(n, 2, rng);
  if (extra_edges == 0) return base;
  GraphBuilder builder;
  builder.ReserveVertices(n);
  for (const Edge& e : base.Edges()) builder.AddEdge(e.from, e.to);
  for (uint32_t i = 0; i < extra_edges; ++i) {
    const Vertex u = rng.UniformIndex(n);
    Vertex v = rng.UniformIndex(n - 1);
    if (v >= u) ++v;
    builder.AddEdge(u, v);
  }
  builder.Deduplicate();
  return builder.Build();
}

/// Relabels vertices by `permutation` (new id of v = permutation[v], a
/// bijection on [0, n)). SimRank is label-invariant, so scores must
/// commute with this map.
inline DirectedGraph PermuteVertices(const DirectedGraph& graph,
                                     std::span<const Vertex> permutation) {
  SIMRANK_CHECK_EQ(permutation.size(), graph.NumVertices());
  std::vector<bool> seen(graph.NumVertices(), false);
  for (Vertex target : permutation) {
    SIMRANK_CHECK_LT(target, graph.NumVertices());
    SIMRANK_CHECK(!seen[target]);
    seen[target] = true;
  }
  GraphBuilder builder;
  builder.ReserveVertices(graph.NumVertices());
  builder.ReserveEdges(graph.NumEdges());
  for (Vertex u = 0; u < graph.NumVertices(); ++u) {
    for (Vertex v : graph.OutNeighbors(u)) {
      builder.AddEdge(permutation[u], permutation[v]);
    }
  }
  return builder.Build();
}

/// Uniformly random permutation of [0, n) (Fisher-Yates).
inline std::vector<Vertex> RandomPermutation(Vertex n, Rng& rng) {
  std::vector<Vertex> permutation(n);
  for (Vertex v = 0; v < n; ++v) permutation[v] = v;
  for (Vertex i = n; i > 1; --i) {
    std::swap(permutation[i - 1], permutation[rng.UniformIndex(i)]);
  }
  return permutation;
}

/// `name` inside this test process's own scratch directory: a mkdtemp
/// directory under ::testing::TempDir(), created on first use and removed
/// at exit, so the same test binary run concurrently from several build
/// trees (or a stale file from an earlier run) never collides. A
/// threadsafe death test re-executes the binary; the child inherits the
/// directory through the environment so both processes agree on paths.
inline std::string ScratchPath(const std::string& name) {
  struct ScratchDir {
    std::string path;
    pid_t owner = 0;
    ScratchDir() {
      constexpr const char* kEnv = "SIMRANK_TEST_SCRATCH_DIR";
      if (const char* inherited = std::getenv(kEnv); inherited != nullptr) {
        path = inherited;
        return;
      }
      std::string pattern = ::testing::TempDir();
      if (pattern.empty() || pattern.back() != '/') pattern += '/';
      pattern += "simrank_test_XXXXXX";
      SIMRANK_CHECK(::mkdtemp(pattern.data()) != nullptr);
      path = pattern;
      owner = ::getpid();
      ::setenv(kEnv, path.c_str(), 1);
    }
    ~ScratchDir() {
      if (owner != ::getpid()) return;  // forked children leave it alone
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static ScratchDir dir;
  return dir.path + "/" + name;
}

/// The paper's Example 1 graph: undirected star with 3 leaves ("claw"),
/// center = vertex 0.
inline DirectedGraph ExampleOneStar() { return MakeStar(3); }

}  // namespace simrank::testing

#endif  // SIMRANK_TESTS_TEST_HELPERS_H_
