#include "simrank/backend_exact.h"

#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "simrank/diagonal.h"
#include "util/check.h"
#include "util/timer.h"

namespace simrank {

namespace {

// Cached registry references (lookups take the registry mutex); shared
// query.count / query.latency_ns series with the other backends.
struct ExactMetrics {
  obs::Counter& queries;
  obs::Histogram& latency_ns;

  ExactMetrics()
      : queries(obs::MetricsRegistry::Default().GetCounter("query.count")),
        latency_ns(obs::MetricsRegistry::Default().GetHistogram(
            "query.latency_ns")) {}

  static ExactMetrics& Get() {
    static ExactMetrics metrics;
    return metrics;
  }
};

}  // namespace

ExactBackend::ExactBackend(const DirectedGraph& graph,
                           const SearchOptions& options)
    : graph_(graph), options_(options) {}

ExactBackend::~ExactBackend() = default;

void ExactBackend::Build(ThreadPool* pool) {
  if (linear_ != nullptr) return;
  WallTimer timer;
  std::vector<double> diagonal =
      options_.estimate_diagonal
          ? EstimateDiagonalFixedPoint(graph_, options_.simrank,
                                       options_.diagonal_options, pool)
          : UniformDiagonal(graph_.NumVertices(), options_.simrank.decay);
  linear_ = std::make_unique<LinearSimRank>(graph_, options_.simrank,
                                            std::move(diagonal));
  preprocess_seconds_ = timer.ElapsedSeconds();
}

QueryResult ExactBackend::Query(Vertex query,
                                const QueryOverrides& overrides) const {
  SIMRANK_CHECK(linear_ != nullptr);
  SIMRANK_CHECK_LT(query, graph_.NumVertices());
  WallTimer timer;
  QueryResult result;
  // The oracle times its forward and backward passes into the phases.
  result.top = linear_->TopK(query, overrides.k.value_or(options_.k),
                             overrides.threshold.value_or(options_.threshold),
                             &result.stats.phases);
  result.stats.candidates_enumerated = result.top.size();
  result.stats.seconds = timer.ElapsedSeconds();
  ExactMetrics& metrics = ExactMetrics::Get();
  metrics.queries.Add(1);
  metrics.latency_ns.Record(
      static_cast<uint64_t>(result.stats.seconds * 1e9));
  obs::RecordPhaseHistograms(result.stats.phases);
  return result;
}

}  // namespace simrank
