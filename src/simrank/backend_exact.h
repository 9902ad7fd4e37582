#ifndef SIMRANK_SIMRANK_BACKEND_EXACT_H_
#define SIMRANK_SIMRANK_BACKEND_EXACT_H_

#include <memory>

#include "graph/graph.h"
#include "simrank/linear.h"
#include "simrank/searcher_backend.h"

namespace simrank {

/// The exact linear-formulation oracle (simrank/linear.h) promoted to a
/// real serving backend: single-source costs O(T^2 m) sparse propagation,
/// so on small graphs it beats sampling outright — zero variance, zero
/// preprocess memory — and SelectBackend defaults graphs with n + m <=
/// 65,536 here. Build() only resolves the diagonal
/// correction (uniform, or the fixed-point estimate when
/// options.estimate_diagonal is set); there is no index to store or
/// serialize.
class ExactBackend : public SearcherBackend {
 public:
  /// The graph must outlive the backend.
  ExactBackend(const DirectedGraph& graph, const SearchOptions& options);
  ~ExactBackend() override;

  BackendKind kind() const override { return BackendKind::kExact; }
  void Build(ThreadPool* pool = nullptr) override;
  bool built() const override { return linear_ != nullptr; }
  double preprocess_seconds() const override { return preprocess_seconds_; }
  uint64_t MemoryBytes() const override { return 0; }

  QueryResult Query(Vertex query,
                    const QueryOverrides& overrides = {}) const override;

  const DirectedGraph& graph() const override { return graph_; }
  const SearchOptions& options() const override { return options_; }

 private:
  const DirectedGraph& graph_;
  SearchOptions options_;
  std::unique_ptr<LinearSimRank> linear_;
  double preprocess_seconds_ = 0.0;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_BACKEND_EXACT_H_
