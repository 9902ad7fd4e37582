// Collaborator recommendation on a synthetic co-authorship network (the
// ca-GrQc / dblp scenario from the paper's motivation): given an author,
// find the authors most structurally similar to them — people embedded in
// the same collaboration neighbourhoods, natural candidates for
// recommendation or reviewer assignment.
//
// Served through the query engine, which also demonstrates the result
// cache: a recommendation page is typically reloaded many times, and the
// repeat request comes back from the cache in microseconds.
//
//   $ ./examples/coauthor_recommendation [num_authors]

#include <cstdio>
#include <optional>
#include <string>

#include "eval/datasets.h"
#include "graph/stats.h"
#include "graph/traversal.h"
#include "simrank/simrank.h"
#include "util/parse.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace simrank;
  const std::optional<Vertex> num_authors =
      argc > 1 ? ParseNumber<Vertex>(argv[1]) : Vertex{20000};
  if (!num_authors.has_value()) {
    std::fprintf(stderr, "usage: %s [num_authors]\n", argv[0]);
    return 2;
  }

  // Synthesize a collaboration network: preferential attachment with
  // mutual edges, the same family the benchmark registry uses for ca-*.
  eval::DatasetSpec spec;
  spec.name = "coauthors";
  spec.family = eval::DatasetFamily::kCollaboration;
  spec.target_vertices = *num_authors;
  spec.target_edges = static_cast<uint64_t>(*num_authors) * 6;
  spec.seed = 7;
  const DirectedGraph graph = eval::Generate(spec);
  std::printf("co-authorship network: %s\n",
              ToString(ComputeGraphStats(graph)).c_str());

  service::EngineOptions options;
  options.search.k = 10;
  options.search.threshold = 0.01;
  WallTimer preprocess;
  auto engine = service::QueryEngine::Create(graph, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("engine up in %.2f s (index %s)\n", preprocess.ElapsedSeconds(),
              FormatBytes((*engine)->searcher().PreprocessBytes()).c_str());

  // Recommend for a mid-degree author (hubs are trivially popular; the
  // interesting recommendations are for ordinary researchers).
  Vertex author = 0;
  for (Vertex v = 0; v < graph.NumVertices(); ++v) {
    const uint32_t degree = graph.InDegree(v);
    if (degree >= 4 && degree <= 8) {
      author = v;
      break;
    }
  }
  std::printf("\nrecommendations for author %u (degree %u):\n", author,
              graph.InDegree(author));

  auto response = (*engine)->Query(service::QueryRequest::ForVertex(author));
  BfsWorkspace bfs(graph);
  bfs.Run(author, EdgeDirection::kUndirected, 6);
  TablePrinter table(
      {"rank", "author", "simrank", "distance", "already co-authors?"});
  int rank = 1;
  for (const ScoredVertex& entry : response->top) {
    table.AddRow({std::to_string(rank++), std::to_string(entry.vertex),
                  FormatDouble(entry.score),
                  std::to_string(bfs.Distance(entry.vertex)),
                  graph.HasEdge(author, entry.vertex) ? "yes" : "no"});
  }
  table.Print();
  std::printf(
      "\nnote: 'no' rows at distance 2 are the interesting ones — similar "
      "researchers\nwho never collaborated (link-prediction candidates).\n");
  std::printf("cold query took %.2f ms over %llu candidates\n",
              response->engine_seconds * 1e3,
              static_cast<unsigned long long>(
                  response->stats.candidates_enumerated));

  // The same request again: served from the engine's result cache.
  auto repeat = (*engine)->Query(service::QueryRequest::ForVertex(author));
  std::printf("repeat query took %.3f ms (from_cache=%s)\n",
              repeat->engine_seconds * 1e3,
              repeat->from_cache ? "true" : "false");
  return 0;
}
