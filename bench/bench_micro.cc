// Micro-benchmarks (google-benchmark) of the library's hot paths: walk
// advancement, the flat walk-position counter, single-pair Monte-Carlo
// estimation, profile-based candidate scoring, the pruning bounds,
// truncated BFS, and the full top-k query (instrumented and with the obs
// subsystem disabled, to measure instrumentation overhead — the pair is
// recorded in EXPERIMENTS.md). The serving-engine cases (BM_Engine*)
// measure the request/response layer: per-query overhead over the bare
// kernel, result-cache hits, and batched submission vs the hand-rolled
// serial loop.
//
// Beyond the google-benchmark flags, this binary accepts the common bench
// flags (see bench_common.h): --scale shrinks/grows the synthetic RMAT
// corpus and --json=<path> writes a "simrank-bench-v1" document with the
// per-case times and the full metrics snapshot (per-query latency
// percentiles, pruning counters, walk counts).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "simrank/bounds.h"
#include "simrank/linear.h"
#include "simrank/monte_carlo.h"
#include "simrank/searcher_backend.h"
#include "simrank/top_k_searcher.h"
#include "util/counter.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace simrank {
namespace {

// Set from --scale in main() before any benchmark runs.
double g_bench_scale = 1.0;

const DirectedGraph& BenchGraph() {
  static const DirectedGraph* graph = [] {
    // scale=1 reproduces the historical corpus (2^15 vertices, 300k
    // edges); other scales shrink/grow both proportionally.
    const double target_n = std::max(256.0, 32768.0 * g_bench_scale);
    const uint32_t bits = std::clamp<uint32_t>(
        static_cast<uint32_t>(std::lround(std::log2(target_n))), 8u, 22u);
    const uint64_t edges = std::max<uint64_t>(
        1024, static_cast<uint64_t>(std::llround(300000.0 * g_bench_scale)));
    Rng rng(42);
    auto* g = new DirectedGraph(MakeRmat(bits, edges, rng));
    // The CSR footprint lands in the bench JSON's metrics block, so
    // graph-size regressions show up next to the timing regressions.
    obs::MetricsRegistry::Default()
        .GetGauge("graph.bytes")
        .Set(static_cast<int64_t>(g->MemoryBytes()));
    return g;
  }();
  return *graph;
}

void BM_WalkAdvance(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  Rng rng(1);
  auto walks = std::make_unique<WalkSet>(
      graph, 1, static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    walks->Advance(rng);
    if (walks->AllDead()) {
      state.PauseTiming();
      walks = std::make_unique<WalkSet>(
          graph, 1, static_cast<uint32_t>(state.range(0)));
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WalkAdvance)->Arg(10)->Arg(100)->Arg(1000);

void BM_WalkCounter(benchmark::State& state) {
  Rng rng(2);
  std::vector<uint32_t> keys(state.range(0));
  for (auto& k : keys) k = rng.UniformIndex(1 << 12);
  WalkCounter counter(keys.size());
  for (auto _ : state) {
    counter.Clear();
    for (uint32_t k : keys) counter.Add(k);
    benchmark::DoNotOptimize(counter.DistinctKeys());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
}
BENCHMARK(BM_WalkCounter)->Arg(100)->Arg(10000);

void BM_MonteCarloSinglePair(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  SimRankParams params;
  MonteCarloSimRank mc(graph, params,
                       UniformDiagonal(graph.NumVertices(), params.decay));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mc.SinglePair(11, 22, static_cast<uint32_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_MonteCarloSinglePair)->Arg(10)->Arg(100)->Arg(1000);

// Profile construction is the per-query preprocessing step: num_walks
// walks advanced num_steps times through the walk kernel, with a counter
// snapshot per step. Tracks the fused stepping loop, the per-step
// AddAllPresized count and the dead-tail truncation (empty_from_).
void BM_ProfileBuild(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  SimRankParams params;
  MonteCarloSimRank mc(graph, params,
                       UniformDiagonal(graph.NumVertices(), params.decay));
  Rng rng(12);
  Vertex v = 0;
  for (auto _ : state) {
    v = (v + 37) % graph.NumVertices();
    benchmark::DoNotOptimize(
        mc.BuildProfile(v, static_cast<uint32_t>(state.range(0)), rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProfileBuild)->Arg(100)->Arg(1000);

void BM_ProfileEstimate(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  SimRankParams params;
  MonteCarloSimRank mc(graph, params,
                       UniformDiagonal(graph.NumVertices(), params.decay));
  Rng rng(4);
  const WalkProfile profile = mc.BuildProfile(11, 400, rng);
  Vertex v = 0;
  for (auto _ : state) {
    v = (v + 37) % graph.NumVertices();
    benchmark::DoNotOptimize(mc.EstimateAgainstProfile(
        profile, v, static_cast<uint32_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_ProfileEstimate)->Arg(10)->Arg(100);

void BM_DeterministicSinglePair(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  SimRankParams params;
  LinearSimRank linear(graph, params,
                       UniformDiagonal(graph.NumVertices(), params.decay));
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.SinglePair(11, 22));
  }
}
BENCHMARK(BM_DeterministicSinglePair);

void BM_TruncatedBfs(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  BfsWorkspace workspace(graph);
  Vertex source = 0;
  for (auto _ : state) {
    source = (source + 101) % graph.NumVertices();
    workspace.Run(source, EdgeDirection::kUndirected,
                  static_cast<uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(workspace.Reached().size());
  }
}
BENCHMARK(BM_TruncatedBfs)->Arg(2)->Arg(3)->Arg(11);

void BM_GammaBound(benchmark::State& state) {
  const DirectedGraph& graph = BenchGraph();
  SimRankParams params;
  static const GammaTable* table = [&] {
    return new GammaTable(GammaTable::BuildMonteCarlo(
        graph, params, UniformDiagonal(graph.NumVertices(), params.decay),
        100, 5));
  }();
  Vertex v = 0;
  for (auto _ : state) {
    v = (v + 37) % graph.NumVertices();
    benchmark::DoNotOptimize(table->BoundAtDistance(11, v, 3));
  }
}
BENCHMARK(BM_GammaBound);

void BM_TopKCollector(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> scores(10000);
  for (auto& s : scores) s = rng.UniformDouble();
  for (auto _ : state) {
    TopKCollector collector(20);
    for (uint32_t i = 0; i < scores.size(); ++i) {
      collector.Push(i, scores[i]);
    }
    benchmark::DoNotOptimize(collector.Threshold());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_TopKCollector);

// --- full query path (the overhead-measurement pair) -----------------------

const TopKSearcher& BenchSearcher() {
  static const TopKSearcher* searcher = [] {
    auto* s = new TopKSearcher(BenchGraph(), SearchOptions{});
    s->BuildIndex();
    return s;
  }();
  return *searcher;
}

const std::vector<Vertex>& BenchQueryVertices() {
  static const std::vector<Vertex>* vertices = [] {
    return new std::vector<Vertex>(
        bench::SampleQueryVertices(BenchGraph(), 64, 7));
  }();
  return *vertices;
}

void RunTopKQuery(benchmark::State& state) {
  const TopKSearcher& searcher = BenchSearcher();
  const std::vector<Vertex>& queries = BenchQueryVertices();
  QueryWorkspace workspace(searcher);
  size_t i = 0;
  for (auto _ : state) {
    const QueryResult result =
        searcher.Query(queries[i % queries.size()], workspace);
    benchmark::DoNotOptimize(result.top.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

// Instrumented: obs enabled (the default) — counters and the
// query.latency_ns histogram are live.
void BM_TopKQuery(benchmark::State& state) { RunTopKQuery(state); }
BENCHMARK(BM_TopKQuery);

// Baseline: obs disabled for the duration — measures the library without
// instrumentation. EXPERIMENTS.md tracks BM_TopKQuery vs this (must stay
// within 5%).
void BM_TopKQueryNoObs(benchmark::State& state) {
  obs::SetEnabled(false);
  RunTopKQuery(state);
  obs::SetEnabled(true);
}
BENCHMARK(BM_TopKQueryNoObs);

// --- exact backend (simrank/backend_exact.h) --------------------------------

// The exact backend gets its own smaller corpus: its per-query cost grows
// with T * (n + m), so querying the full micro corpus at --scale=1 would
// dominate the suite's runtime for one case.
const DirectedGraph& BenchBackendGraph() {
  static const DirectedGraph* graph = [] {
    const double target_n = std::max(256.0, 4096.0 * g_bench_scale);
    const uint32_t bits = std::clamp<uint32_t>(
        static_cast<uint32_t>(std::lround(std::log2(target_n))), 8u, 14u);
    const uint64_t edges = std::max<uint64_t>(
        1024, static_cast<uint64_t>(std::llround(40000.0 * g_bench_scale)));
    Rng rng(43);
    return new DirectedGraph(MakeRmat(bits, edges, rng));
  }();
  return *graph;
}

// The exact linear-formulation oracle as a serving backend (the side of
// SelectBackend's crossover with n + m <= 65,536).
void BM_ExactQuery(benchmark::State& state) {
  static const SearcherBackend* exact = [] {
    auto backend =
        MakeBackend(BackendKind::kExact, BenchBackendGraph(), SearchOptions{});
    backend->Build();
    return backend.release();
  }();
  const std::vector<Vertex> queries =
      bench::SampleQueryVertices(BenchBackendGraph(), 64, 7);
  size_t i = 0;
  for (auto _ : state) {
    const QueryResult result = exact->Query(queries[i % queries.size()]);
    benchmark::DoNotOptimize(result.top.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactQuery);

// --- serving engine (src/service/) -----------------------------------------

service::QueryEngine& BenchEngine() {
  static service::QueryEngine* engine = [] {
    service::EngineOptions options;  // cache on, hw-concurrency workers
    auto created = service::QueryEngine::Create(BenchGraph(), options);
    SIMRANK_CHECK(created.ok());
    return created.value().release();
  }();
  return *engine;
}

// Engine overhead over the bare kernel: same rotating queries as
// BM_TopKQuery, cache bypassed so every iteration runs the kernel; the
// event layer records every request, as it does whenever obs is on.
// EXPERIMENTS.md tracks this against BM_TopKQuery.
void BM_EngineQuery(benchmark::State& state) {
  service::QueryEngine& engine = BenchEngine();
  const std::vector<Vertex>& queries = BenchQueryVertices();
  size_t i = 0;
  for (auto _ : state) {
    auto response = engine.Query(service::QueryRequest::ForVertex(
                                     queries[i % queries.size()])
                                     .WithBypassCache());
    benchmark::DoNotOptimize(response->top.size());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineQuery);

// The same request over and over: after the first iteration everything is
// a result-cache hit. EXPERIMENTS.md tracks the hit/cold ratio (>= 10x).
void BM_EngineQueryCached(benchmark::State& state) {
  service::QueryEngine& engine = BenchEngine();
  const Vertex vertex = BenchQueryVertices().front();
  for (auto _ : state) {
    auto response = engine.Query(service::QueryRequest::ForVertex(vertex));
    benchmark::DoNotOptimize(response->from_cache);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineQueryCached);

// Batched submission over the engine pool vs the hand-rolled serial loop
// below: the acceptance bar is parity or better wall-clock per batch.
void BM_EngineBatchSubmit(benchmark::State& state) {
  service::QueryEngine& engine = BenchEngine();
  const std::vector<Vertex>& queries = BenchQueryVertices();
  std::vector<service::QueryRequest> requests;
  requests.reserve(queries.size());
  for (Vertex v : queries) {
    requests.push_back(
        service::QueryRequest::ForVertex(v).WithBypassCache());
  }
  for (auto _ : state) {
    const auto responses = engine.SubmitBatch(requests);
    benchmark::DoNotOptimize(responses.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_EngineBatchSubmit);

// The pre-engine idiom: one thread, one workspace, loop over the batch.
void BM_QueryAllLoop(benchmark::State& state) {
  const TopKSearcher& searcher = BenchSearcher();
  const std::vector<Vertex>& queries = BenchQueryVertices();
  QueryWorkspace workspace(searcher);
  for (auto _ : state) {
    size_t results = 0;
    for (Vertex v : queries) {
      results += searcher.Query(v, workspace).top.size();
    }
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_QueryAllLoop);

// --- main: google-benchmark + common bench flags + optional JSON -----------

/// ConsoleReporter that additionally captures per-case real time so main()
/// can emit the simrank-bench-v1 document.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Case {
    std::string name;
    double seconds_per_iteration = 0.0;
    double iterations = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      Case c;
      c.name = run.benchmark_name();
      c.iterations = static_cast<double>(run.iterations);
      if (run.iterations > 0) {
        c.seconds_per_iteration =
            run.real_accumulated_time / static_cast<double>(run.iterations);
      }
      cases_.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Case>& cases() const { return cases_; }

 private:
  std::vector<Case> cases_;
};

}  // namespace
}  // namespace simrank

int main(int argc, char** argv) {
  using namespace simrank;
  // google-benchmark consumes its own --benchmark_* flags first; whatever
  // remains must be one of ours (strict: unknown flags are an error).
  benchmark::Initialize(&argc, argv);
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  g_bench_scale = args.scale;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  bench::BenchJsonReporter json("bench_micro", args);
  for (const CaptureReporter::Case& c : reporter.cases()) {
    json.AddCase(c.name, c.seconds_per_iteration,
                 {{"iterations", c.iterations}});
  }
  return json.Finish() ? 0 : 1;
}
