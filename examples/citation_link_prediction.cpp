// Link prediction on a synthetic citation network (the Cora / cit-HepTh
// scenario): hide a random existing citation, then check whether SimRank
// similarity search ranks the hidden target among the top suggestions for
// the citing paper. Reproduces the classic use of vertex similarity for
// link prediction (Liben-Nowell & Kleinberg) on top of this library.
//
// Candidate citations are ranked with the engine's group request: papers
// similar to the set of papers the query paper already cites, with the
// group members excluded from the ranking.
//
//   $ ./examples/citation_link_prediction [num_papers]

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "graph/builder.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "simrank/simrank.h"
#include "util/parse.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace simrank;
  const std::optional<Vertex> num_papers =
      argc > 1 ? ParseNumber<Vertex>(argv[1]) : Vertex{8000};
  if (!num_papers.has_value()) {
    std::fprintf(stderr, "usage: %s [num_papers]\n", argv[0]);
    return 2;
  }

  Rng rng(555);
  const DirectedGraph full = MakeCopyingModel(*num_papers, 5, 0.75, rng);
  std::printf("citation network: %s\n",
              ToString(ComputeGraphStats(full)).c_str());

  // Hold out one random out-citation of `trials` random papers each, and
  // see where similarity search ranks the hidden paper.
  constexpr int kTrials = 25;
  int hits_at_10 = 0, attempted = 0;
  double reciprocal_rank_sum = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    // Pick a paper with at least 3 citations so the graph stays informative
    // after removal.
    Vertex paper = rng.UniformIndex(full.NumVertices());
    for (int guard = 0; guard < 1000 && full.OutDegree(paper) < 3; ++guard) {
      paper = rng.UniformIndex(full.NumVertices());
    }
    if (full.OutDegree(paper) < 3) continue;
    const auto cites = full.OutNeighbors(paper);
    const Vertex hidden = cites[rng.UniformInt(cites.size())];

    // Rebuild the graph without the held-out edge.
    GraphBuilder builder;
    builder.ReserveVertices(full.NumVertices());
    for (const Edge& e : full.Edges()) {
      if (!(e.from == paper && e.to == hidden)) builder.AddEdge(e.from, e.to);
    }
    const DirectedGraph graph = builder.Build();

    service::EngineOptions options;
    options.search.k = 100;  // group ranking needs a wide per-member pool
    options.search.threshold = 0.005;
    options.search.seed = 1000 + trial;
    options.cache_capacity = 0;  // every trial's graph is different
    auto engine = service::QueryEngine::Create(graph, options);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    const auto cited_now = graph.OutNeighbors(paper);
    auto response = (*engine)->Query(service::QueryRequest::ForGroup(
        {cited_now.begin(), cited_now.end()}));
    std::vector<ScoredVertex> ranking = std::move(response->top);
    // The queried paper itself is not a group member; drop it manually.
    std::erase_if(ranking,
                  [&](const ScoredVertex& e) { return e.vertex == paper; });
    ++attempted;
    for (size_t i = 0; i < ranking.size(); ++i) {
      if (ranking[i].vertex == hidden) {
        if (i < 10) ++hits_at_10;
        reciprocal_rank_sum += 1.0 / static_cast<double>(i + 1);
        break;
      }
    }
  }

  std::printf("\nheld-out citation recovery over %d trials:\n", attempted);
  std::printf("  hits@10 : %.1f%%\n", 100.0 * hits_at_10 / attempted);
  std::printf("  MRR     : %.3f\n", reciprocal_rank_sum / attempted);
  std::printf(
      "\n(a random guesser over %u papers would score hits@10 ~ %.3f%%)\n",
      full.NumVertices(), 1000.0 / full.NumVertices());
  return 0;
}
