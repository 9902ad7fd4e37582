// Backend-vs-backend comparison over the SearcherBackend registry: for a
// small, a mid-size and a large web R-MAT dataset, measure every
// backend's preprocess time, index footprint, mean and median query
// latency and accuracy against the exact linear-formulation oracle, then
// run SelectBackend's size rule end to end through a kAuto
// service::QueryEngine (the service.backend.* counters land in the JSON
// metrics snapshot). "large" never drops below 16,384 vertices, so at
// every --scale the matrix has rows on both sides of the exact/mc
// crossover. Case names are stable — CI asserts them in
// BENCH_backends.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "eval/datasets.h"
#include "graph/stats.h"
#include "service/query_engine.h"
#include "simrank/diagonal.h"
#include "simrank/linear.h"
#include "simrank/searcher_backend.h"
#include "util/table.h"
#include "util/timer.h"

namespace simrank {
namespace {

struct BenchDataset {
  std::string label;  // the case-name suffix: "small" | "mid" | "large"
  DirectedGraph graph;
};

BenchDataset MakeDataset(const char* label, Vertex min_vertices,
                         double target_vertices, uint64_t seed,
                         double scale) {
  eval::DatasetSpec spec;
  spec.name = label;
  spec.family = eval::DatasetFamily::kWeb;
  spec.target_vertices = std::max<Vertex>(
      min_vertices, static_cast<Vertex>(std::llround(target_vertices * scale)));
  spec.target_edges = spec.target_vertices * 8ull;
  spec.seed = seed;
  return {label, eval::Generate(spec)};
}

SearchOptions BenchSearchOptions() {
  SearchOptions options;
  options.k = 20;
  options.threshold = 0.01;
  options.seed = 4242;
  return options;
}

struct Accuracy {
  double mean_abs_err = 0.0;
  double recall_at_k = 0.0;
};

Accuracy MeasureAccuracy(const SearcherBackend& backend,
                         const LinearSimRank& oracle,
                         const std::vector<Vertex>& queries, uint32_t k) {
  Accuracy accuracy;
  uint64_t scored = 0, hits = 0, wanted = 0;
  for (Vertex u : queries) {
    const std::vector<double> row = oracle.SingleSource(u);
    const std::vector<ScoredVertex> top = backend.Query(u).top;
    for (const ScoredVertex& entry : top) {
      accuracy.mean_abs_err += std::abs(entry.score - row[entry.vertex]);
      ++scored;
    }
    std::unordered_set<Vertex> got;
    for (const ScoredVertex& entry : top) got.insert(entry.vertex);
    const std::vector<ScoredVertex> exact_top =
        oracle.TopK(u, k, BenchSearchOptions().threshold);
    wanted += exact_top.size();
    for (const ScoredVertex& entry : exact_top) {
      hits += got.count(entry.vertex);
    }
  }
  if (scored > 0) accuracy.mean_abs_err /= static_cast<double>(scored);
  accuracy.recall_at_k =
      wanted > 0 ? static_cast<double>(hits) / static_cast<double>(wanted)
                 : 1.0;
  return accuracy;
}

}  // namespace
}  // namespace simrank

int main(int argc, char** argv) {
  using namespace simrank;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bench::PrintHeader("Backend comparison: mc vs exact", args);
  bench::BenchJsonReporter reporter("bench_backends", args);
  const int num_queries = args.queries > 0 ? args.queries : 20;
  const SearchOptions options = BenchSearchOptions();

  // "small" stays on the exact side of SelectBackend's crossover at every
  // scale up to 8 and "large" on the mc side at every scale; "mid" crosses
  // between scale 1 and 2.
  std::vector<BenchDataset> datasets;
  datasets.push_back(MakeDataset("small", 48, 160.0, 11, args.scale));
  datasets.push_back(MakeDataset("mid", 400, 4000.0, 12, args.scale));
  datasets.push_back(MakeDataset("large", 16384, 16384.0, 13, args.scale));

  for (const BenchDataset& dataset : datasets) {
    const DirectedGraph& graph = dataset.graph;
    const GraphStats stats = ComputeGraphStats(graph);
    std::printf("dataset %s: n=%s m=%s -> auto picks '%s'\n",
                dataset.label.c_str(), FormatCount(stats.num_vertices).c_str(),
                FormatCount(stats.num_edges).c_str(),
                std::string(BackendKindName(SelectBackend(stats))).c_str());
    const std::vector<Vertex> queries =
        bench::SampleQueryVertices(graph, num_queries, 7);
    const LinearSimRank oracle(
        graph, options.simrank,
        UniformDiagonal(graph.NumVertices(), options.simrank.decay));

    TablePrinter table({"backend", "build", "index", "mean query",
                        "p50 query", "mean |err|", "recall@k"});
    for (BackendKind kind : RegisteredBackends()) {
      std::unique_ptr<SearcherBackend> backend =
          MakeBackend(kind, graph, options);
      WallTimer build_timer;
      backend->Build();
      const double build_seconds = build_timer.ElapsedSeconds();
      std::vector<double> latencies;
      for (Vertex u : queries) {
        WallTimer query_timer;
        backend->Query(u);
        latencies.push_back(query_timer.ElapsedSeconds());
      }
      double query_seconds = 0.0;
      for (double seconds : latencies) query_seconds += seconds;
      const double mean_latency_us =
          queries.empty() ? 0.0 : query_seconds * 1e6 / queries.size();
      std::sort(latencies.begin(), latencies.end());
      const double p50_latency_us =
          latencies.empty() ? 0.0 : latencies[latencies.size() / 2] * 1e6;
      const Accuracy accuracy =
          MeasureAccuracy(*backend, oracle, queries, options.k);
      table.AddRow({std::string(backend->name()),
                    FormatDuration(build_seconds),
                    FormatBytes(backend->MemoryBytes()),
                    FormatDuration(query_seconds / queries.size()),
                    FormatDuration(p50_latency_us * 1e-6),
                    FormatDouble(accuracy.mean_abs_err, 4),
                    FormatDouble(accuracy.recall_at_k, 3)});
      reporter.AddCase(
          "backend_" + std::string(backend->name()) + "_" + dataset.label,
          query_seconds,
          {{"build_seconds", build_seconds},
           {"index_bytes", static_cast<double>(backend->MemoryBytes())},
           {"mean_latency_us", mean_latency_us},
           {"p50_latency_us", p50_latency_us},
           {"mean_abs_err", accuracy.mean_abs_err},
           {"recall_at_k", accuracy.recall_at_k}});
    }
    table.Print();
    std::printf("\n");

    // The size rule end to end: a kAuto engine must serve with the backend
    // SelectBackend picks (response.backend + the per-backend request
    // counters) and honor a per-request override to the other backend —
    // all visible in the exported metrics snapshot.
    service::EngineOptions engine_options;
    engine_options.search = options;
    engine_options.backend = BackendChoice::kAuto;
    engine_options.num_threads = 2;
    auto engine = service::QueryEngine::Create(graph, engine_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    const BackendKind selected = (*engine)->primary_backend();
    WallTimer engine_timer;
    for (Vertex u : queries) {
      auto response = (*engine)->Query(
          service::QueryRequest::ForVertex(u).WithBypassCache());
      if (!response.ok() || response->backend != selected) {
        std::fprintf(stderr, "error: auto engine served the wrong backend\n");
        return 1;
      }
    }
    const double engine_seconds = engine_timer.ElapsedSeconds();
    const BackendKind other = selected == BackendKind::kExact
                                  ? BackendKind::kMonteCarlo
                                  : BackendKind::kExact;
    auto overridden =
        (*engine)->Query(service::QueryRequest::ForVertex(queries.front())
                             .WithBackend(other)
                             .WithBypassCache());
    if (!overridden.ok() || overridden->backend != other) {
      std::fprintf(stderr, "error: per-request override did not apply\n");
      return 1;
    }
    std::printf("auto engine picked '%s', %s mean over %zu queries\n\n",
                std::string(BackendKindName(selected)).c_str(),
                FormatDuration(engine_seconds / queries.size()).c_str(),
                queries.size());
    reporter.AddCase(
        "auto_pick_" + dataset.label, engine_seconds,
        {{"selected", static_cast<double>(selected)},
         {"mean_latency_us", engine_seconds * 1e6 / queries.size()}});
  }

  return reporter.Finish() ? 0 : 1;
}
