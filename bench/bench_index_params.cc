// Ablation of Algorithm 4's parameters: P repetitions and Q witness walks
// (§7.1 sets P = 10, Q = 5), on a collaboration graph and a web R-MAT.
// Measures the preprocess size (gamma table + candidate index, what
// perfbench reports as index_mb), build time, candidate-set size, and
// coverage: the share of the exact top-20 at theta = 0.01 that the index
// enumerates. The oracle is per-query LinearSimRank::TopK, the one
// perfbench's recall_at_20 scores against. The engine never returns a
// vertex its index misses, so coverage caps recall.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/datasets.h"
#include "simrank/linear.h"
#include "simrank/top_k_searcher.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace simrank;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Ablation: candidate index parameters P, Q (Alg. 4)",
                     args);
  const int num_queries = args.queries > 0 ? args.queries : 200;
  ThreadPool pool(4);

  for (const char* name : {"syn-ca-grqc", "syn-web-stanford"}) {
    const auto spec = eval::FindDataset(name, args.scale);
    const DirectedGraph graph = eval::Generate(*spec);
    const SearchOptions defaults;
    const LinearSimRank oracle(
        graph, defaults.simrank,
        UniformDiagonal(graph.NumVertices(), defaults.simrank.decay));
    const std::vector<Vertex> queries =
        bench::SampleQueryVertices(graph, num_queries, 0x1D3);
    std::vector<std::vector<ScoredVertex>> truth;
    for (Vertex u : queries) {
      truth.push_back(oracle.TopK(u, defaults.k, defaults.threshold));
    }
    std::printf("dataset %s: n=%s m=%s, %zu queries, top-%u at theta=%g\n",
                name, FormatCount(graph.NumVertices()).c_str(),
                FormatCount(graph.NumEdges()).c_str(), queries.size(),
                defaults.k, defaults.threshold);

    TablePrinter table({"P", "Q", "preproc", "gamma MB", "index MB",
                        "avg candidates", "top-20 coverage"});
    for (uint32_t p : {3u, 10u, 20u, 30u}) {
      for (uint32_t q : {2u, 5u, 10u}) {
        SearchOptions options = defaults;
        options.index_params.repetitions = p;
        options.index_params.witness_walks = q;
        TopKSearcher searcher(graph, options);
        WallTimer timer;
        searcher.BuildIndex(&pool);
        const double preprocess = timer.ElapsedSeconds();
        const CandidateIndex& index = *searcher.candidate_index();
        std::vector<uint32_t> marks(graph.NumVertices(), 0);
        uint32_t epoch = 0;
        std::vector<uint8_t> enumerated(graph.NumVertices(), 0);
        std::vector<Vertex> listed;
        double candidates = 0.0, covered = 0.0, total = 0.0;
        for (size_t i = 0; i < queries.size(); ++i) {
          listed.clear();
          index.ForEachCandidate(queries[i], marks, epoch, [&](Vertex v) {
            listed.push_back(v);
            enumerated[v] = 1;
          });
          candidates += static_cast<double>(listed.size());
          for (const ScoredVertex& entry : truth[i]) {
            total += 1.0;
            covered += enumerated[entry.vertex];
          }
          for (Vertex v : listed) enumerated[v] = 0;
        }
        const double mb = 1024.0 * 1024.0;
        table.AddRow(
            {std::to_string(p), std::to_string(q), FormatDuration(preprocess),
             FormatDouble(searcher.gamma_table()->MemoryBytes() / mb, 3),
             FormatDouble(searcher.PreprocessBytes() / mb, 4),
             FormatDouble(candidates / queries.size(), 4),
             total == 0.0 ? "-" : FormatDouble(covered / total, 3)});
      }
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "reading: on the collaboration graph coverage saturates around the "
      "paper's\nP=10, Q=5. On web R-MAT it keeps rising with P, at index "
      "size linear in P.\n");
  return 0;
}
