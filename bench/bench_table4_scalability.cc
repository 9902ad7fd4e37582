// Table 4 reproduction: preprocess time, query time, all-pairs time and
// index memory for the proposed method vs Fogaras-Racz [9] vs
// Yu et al. [37].
//
// Baselines "fail" ("-") exactly as in the paper when their projected
// memory footprint exceeds the budget (kBaselineMemoryBudget): Yu's dense
// matrices are quadratic in n, Fogaras-Racz's fingerprint storage is
// Theta(R' T n). The proposed method's preprocess stays O(n) words.
//
// Column semantics match the paper: "Query" for the proposed method is a
// full top-20 single-source search; F-R's query is a single-pair estimate
// (the workload [9] reports); Yu's all-pairs column is its full dense
// iteration; "AllPairs" for the proposed method (RunAllPairs) is reported
// for the small corpus.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/datasets.h"
#include "simrank/all_pairs.h"
#include "simrank/fogaras_racz.h"
#include "simrank/top_k_searcher.h"
#include "simrank/yu_all_pairs.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace simrank;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Table 4: preprocess / query / memory comparison",
                     args);
  bench::BenchJsonReporter json("bench_table4_scalability", args);
  const int num_queries = args.queries > 0 ? args.queries : 10;

  SimRankParams params;  // c = 0.6, T = 11
  std::vector<std::string> names = {
      "syn-ca-grqc",  "syn-as",           "syn-wiki-vote", "syn-ca-hepth",
      "syn-cit-hepth", "syn-cora",        "syn-epinions",  "syn-slashdot",
      "syn-web-stanford", "syn-web-google", "syn-dblp"};
  if (args.full) {
    names.insert(names.end(), {"syn-flickr", "syn-soc-livejournal",
                               "syn-indochina", "syn-it"});
  }

  TablePrinter table({"dataset", "n", "m", "prop preproc", "prop query",
                      "prop all-pairs", "prop index", "FR preproc",
                      "FR query", "FR index", "Yu all-pairs", "Yu memory"});
  for (const std::string& name : names) {
    const auto spec = eval::FindDataset(name, args.scale);
    const DirectedGraph graph = eval::Generate(*spec);
    const uint64_t n = graph.NumVertices();
    std::vector<std::string> row = {name, FormatCount(n),
                                    FormatCount(graph.NumEdges())};
    WallTimer case_timer;

    // --- proposed ---
    SearchOptions options;
    options.simrank = params;
    options.k = 20;
    TopKSearcher searcher(graph, options);
    searcher.BuildIndex();
    row.push_back(FormatDuration(searcher.preprocess_seconds()));
    const std::vector<Vertex> queries =
        bench::SampleQueryVertices(graph, num_queries, 0x7AB4);
    QueryWorkspace workspace(searcher);
    double query_seconds = 0.0;
    for (Vertex u : queries) {
      query_seconds += searcher.Query(u, workspace).stats.seconds;
    }
    row.push_back(FormatDuration(query_seconds / queries.size()));
    // All-pairs only where it finishes promptly: estimate from the
    // measured per-query cost.
    const double projected_all_pairs =
        query_seconds / queries.size() * static_cast<double>(n);
    if (projected_all_pairs < 60.0) {
      row.push_back(FormatDuration(RunAllPairs(searcher).seconds));
    } else {
      row.push_back("~" + FormatDuration(projected_all_pairs));
    }
    row.push_back(FormatBytes(searcher.PreprocessBytes()));

    // --- Fogaras-Racz, R' = 100 ---
    const uint32_t fingerprints = 100;
    const uint64_t fr_projected_bytes =
        static_cast<uint64_t>(fingerprints) * params.num_steps * n *
        sizeof(Vertex);
    if (fr_projected_bytes <= bench::kBaselineMemoryBudget) {
      const FogarasRaczIndex fr(graph, params, fingerprints, 99);
      row.push_back(FormatDuration(fr.preprocess_seconds()));
      WallTimer fr_query_timer;
      Rng pair_rng(0xF0);
      for (int i = 0; i < 100; ++i) {
        fr.SinglePair(pair_rng.UniformIndex(graph.NumVertices()),
                      pair_rng.UniformIndex(graph.NumVertices()));
      }
      row.push_back(FormatDuration(fr_query_timer.ElapsedSeconds() / 100));
      row.push_back(FormatBytes(fr.MemoryBytes()));
    } else {
      row.insert(row.end(), {"-", "-", "- (mem)"});
    }

    // --- Yu et al. all-pairs ---
    const uint64_t yu_projected_bytes = 2 * n * n * sizeof(double);
    if (yu_projected_bytes <= bench::kBaselineMemoryBudget) {
      const YuAllPairsResult yu = RunYuAllPairs(graph, params);
      row.push_back(FormatDuration(yu.seconds));
      row.push_back(FormatBytes(yu.memory_bytes));
    } else {
      row.insert(row.end(), {"-", "- (mem)"});
    }
    // The JSON case wall time covers the full row (all three methods);
    // the values break out the proposed method's key numbers.
    json.AddCase(name, case_timer.ElapsedSeconds(),
                 {{"preprocess_seconds", searcher.preprocess_seconds()},
                  {"query_seconds_avg", query_seconds / queries.size()},
                  {"index_bytes",
                   static_cast<double>(searcher.PreprocessBytes())}});
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\nreading: the proposed index stays linear in n while Fogaras-Racz "
      "exhausts the\nmemory budget at mid sizes and Yu et al. already at "
      "small sizes — the paper's\nscalability result. Absolute times are "
      "not comparable to the paper's testbed\n(single-core container vs "
      "dual-socket Xeon); shapes are.\n");
  return json.Finish() ? 0 : 1;
}
