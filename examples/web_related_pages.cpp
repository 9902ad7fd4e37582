// "Related pages" on a synthetic web graph (the web-Stanford / web-Google
// scenario): SimRank over hyperlinks finds pages linked from similar pages.
// This example also demonstrates the paper's locality claim (§5, §8.1):
// web-graph queries only touch a small neighbourhood of the query vertex,
// which is why the method scales to billion-edge crawls.
//
// The batch of related-page queries is served through the engine's
// SubmitBatch, which fans the requests out over the worker pool with
// reused workspaces — the serving-side counterpart of the paper's
// "embarrassingly parallel over queries" remark.
//
//   $ ./examples/web_related_pages [log2_num_pages]

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/stats.h"
#include "simrank/simrank.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace simrank;
  const std::optional<uint32_t> scale =
      argc > 1 ? ParseNumber<uint32_t>(argv[1]) : uint32_t{16};
  if (!scale.has_value()) {
    std::fprintf(stderr, "usage: %s [log2_num_pages]\n", argv[0]);
    return 2;
  }

  Rng gen_rng(2026);
  RmatParams rmat;  // Graph500 web-like skew, directed
  const DirectedGraph graph =
      MakeRmat(*scale, (1ull << *scale) * 10, gen_rng, rmat);
  std::printf("web graph: %s\n", ToString(ComputeGraphStats(graph)).c_str());

  service::EngineOptions options;  // paper defaults: c=0.6, T=11, k=20
  auto engine = service::QueryEngine::Create(graph, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("engine up: %.2f s preprocess, index %s, %zu worker threads\n",
              (*engine)->searcher().preprocess_seconds(),
              FormatBytes((*engine)->searcher().PreprocessBytes()).c_str(),
              (*engine)->num_threads());

  // Related-page requests for a handful of random pages, submitted as one
  // batch; results come back in request order.
  Rng pick(99);
  constexpr int kQueries = 20;
  std::vector<service::QueryRequest> requests;
  requests.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    requests.push_back(service::QueryRequest::ForVertex(
        pick.UniformIndex(graph.NumVertices())));
  }
  WallTimer batch_timer;
  const auto responses = (*engine)->SubmitBatch(requests);
  const double batch_seconds = batch_timer.ElapsedSeconds();

  QueryStats totals;
  for (const auto& response : responses) totals += response->stats;
  const uint64_t pruned = totals.pruned_by_distance + totals.pruned_by_l1 +
                          totals.pruned_by_l2;
  std::printf("\nbatch of %d queries served in %.2f ms wall:\n", kQueries,
              batch_seconds * 1e3);
  std::printf("  avg query time      : %.2f ms\n",
              totals.seconds * 1e3 / kQueries);
  std::printf("  avg candidates      : %.0f  (%.2f%% of all pages)\n",
              static_cast<double>(totals.candidates_enumerated) / kQueries,
              100.0 * totals.candidates_enumerated / kQueries /
                  graph.NumVertices());
  std::printf("  avg pruned by bounds: %.0f\n",
              static_cast<double>(pruned) / kQueries);
  std::printf("  avg scored by MC    : %.0f\n",
              static_cast<double>(totals.refined) / kQueries);

  std::printf("\nsample result — pages related to page %u:\n",
              requests.back().vertices.front());
  TablePrinter table({"rank", "page", "simrank"});
  int rank = 1;
  for (const ScoredVertex& entry : responses.back()->top) {
    table.AddRow({std::to_string(rank++), std::to_string(entry.vertex),
                  FormatDouble(entry.score)});
    if (rank > 10) break;
  }
  table.Print();
  return 0;
}
