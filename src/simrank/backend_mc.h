#ifndef SIMRANK_SIMRANK_BACKEND_MC_H_
#define SIMRANK_SIMRANK_BACKEND_MC_H_

#include <utility>

#include "graph/graph.h"
#include "simrank/searcher_backend.h"
#include "simrank/top_k_searcher.h"

namespace simrank {

/// The paper's engine behind the backend contract: a thin adapter over
/// TopKSearcher (Algorithm 3 gamma table + Algorithm 4 candidate index +
/// Algorithm 5 adaptive Monte-Carlo scoring). Query delegates verbatim —
/// results are bit-identical to calling the searcher directly with the
/// same options and seed.
class MonteCarloBackend : public SearcherBackend {
 public:
  /// The graph must outlive the backend.
  MonteCarloBackend(const DirectedGraph& graph, const SearchOptions& options)
      : searcher_(graph, options) {}
  /// Adopts an already-prepared searcher (the deserialization path; see
  /// LoadSearcherIndex). The searcher's graph must outlive the backend.
  explicit MonteCarloBackend(TopKSearcher searcher)
      : searcher_(std::move(searcher)) {}

  BackendKind kind() const override { return BackendKind::kMonteCarlo; }
  void Build(ThreadPool* pool = nullptr) override {
    searcher_.BuildIndex(pool);
  }
  bool built() const override { return searcher_.index_built(); }
  double preprocess_seconds() const override {
    return searcher_.preprocess_seconds();
  }
  uint64_t MemoryBytes() const override { return searcher_.PreprocessBytes(); }

  QueryResult Query(Vertex query,
                    const QueryOverrides& overrides = {}) const override {
    return searcher_.Query(query, overrides);
  }

  const DirectedGraph& graph() const override { return searcher_.graph(); }
  const SearchOptions& options() const override { return searcher_.options(); }

  /// The wrapped kernel, for MC-only machinery (checkpointed all-pairs,
  /// index serialization, workspace-explicit call sites).
  const TopKSearcher& searcher() const { return searcher_; }
  TopKSearcher& searcher() { return searcher_; }

 private:
  TopKSearcher searcher_;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_BACKEND_MC_H_
