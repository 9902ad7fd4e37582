#ifndef SIMRANK_SIMRANK_TOP_K_SEARCHER_H_
#define SIMRANK_SIMRANK_TOP_K_SEARCHER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/traversal.h"
#include "obs/phase.h"
#include "simrank/bounds.h"
#include "simrank/diagonal.h"
#include "simrank/index.h"
#include "simrank/monte_carlo.h"
#include "simrank/params.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/top_k.h"

namespace simrank {

/// Options of the similarity search engine. Defaults reproduce the
/// paper's experimental setting (§8): c = 0.6, T = 11, k = 20, theta =
/// 0.01, R = 100 for scoring and Algorithm 3, R = 10000 for Algorithm 2,
/// P = 10, Q = 5, adaptive sampling 10 -> 100. The exact backend reads
/// only k, threshold, simrank, estimate_diagonal and diagonal_options;
/// everything else tunes the Monte-Carlo search.
struct SearchOptions {
  /// Number of results per query.
  uint32_t k = 20;

  /// Score threshold theta: vertices whose (bounded or estimated) score
  /// falls below it are never reported; the search prunes against it.
  double threshold = 0.01;

  /// Search horizon d_max: vertices farther (undirected) than this from the
  /// query are not considered (§6: "if d(u,v) > dmax then s(u,v) is too
  /// small to take into account"; the paper sets dmax = T). Enforced only
  /// where the query's BFS reached: in index mode the BFS stops at an edge
  /// budget of l1_walks * T, and a candidate past its frontier is scored
  /// unless a bound at the frontier distance prunes it.
  uint32_t max_distance = 11;

  // --- pruning ingredients (each can be ablated independently) ---
  bool use_distance_bound = true;  ///< c^(ceil(d/2)) bound
  bool use_l1_bound = true;        ///< beta(u, d), Algorithm 2
  bool use_l2_bound = true;        ///< gamma table, Algorithm 3
  /// Candidate enumeration through the bipartite index H (Algorithm 4). If
  /// false, the query scans vertices in ascending distance order instead
  /// (the index-free strategy sketched in §2.2).
  bool use_index = true;
  /// Two-stage adaptive sampling (§7.2): rough estimate with
  /// `estimate_walks`, refine promising candidates with `refine_walks`.
  bool adaptive_sampling = true;

  // --- Monte-Carlo sample counts ---
  uint32_t estimate_walks = 10;   ///< rough pass R
  uint32_t refine_walks = 100;    ///< accurate pass R
  /// Walks from the query vertex. The paper scores with R = 100 on both
  /// endpoints; this build defaults the *query-side* count higher because
  /// the profile is built once and shared by every candidate, so the extra
  /// accuracy is nearly free (measured: +7 points of top-k precision for
  /// <15% query time).
  uint32_t profile_walks = 400;
  uint32_t l1_walks = 10000;      ///< Algorithm 2 R
  uint32_t gamma_walks = 100;     ///< Algorithm 3 R
  /// A rough estimate e admits a candidate to refinement iff
  /// e >= adaptive_margin * max(threshold, current k-th score): the margin
  /// absorbs the noise of the small-R pass.
  double adaptive_margin = 0.3;

  SimRankParams simrank;

  IndexParams index_params;

  /// If true, the constructor estimates the diagonal correction matrix D
  /// with the fixed-point sweep of simrank/diagonal.h instead of using the
  /// D ~ (1-c)I approximation (§3.3). Estimated scores then track *true*
  /// SimRank (measured ratio ~0.99 vs ~0.43 under the approximation), at
  /// the cost of an extra preprocess pass. Ignored when an explicit
  /// diagonal is supplied.
  bool estimate_diagonal = false;
  DiagonalEstimateOptions diagonal_options = {
      .max_iterations = 30, .tolerance = 1e-3, .monte_carlo_walks = 100};

  /// Master seed; every random stream (index, gamma, per-query walks) is
  /// derived from it deterministically.
  uint64_t seed = 42;

  /// Range-checks every user-tunable field and returns InvalidArgument
  /// naming the offending field instead of aborting. This is the
  /// entry-point validation used by service::QueryEngine::Create; the
  /// TopKSearcher constructor keeps SIMRANK_CHECK only as a last-resort
  /// internal invariant for callers that bypass the engine.
  Status Validate() const;
};

/// Per-query runtime knobs, applied on top of the searcher's SearchOptions
/// for one Query call. Only knobs that do not participate in the
/// preprocess (gamma table, candidate index) are overridable; everything
/// else is fixed at construction. The serving layer uses this for
/// per-request k/threshold and for load-shed degradation (refine_walks
/// dropped to the rough pass).
struct QueryOverrides {
  std::optional<uint32_t> k;
  std::optional<double> threshold;
  std::optional<uint32_t> refine_walks;
};

/// Per-query instrumentation, reported alongside the ranking. This is a
/// caller-local *view*: the same numbers also feed the process-wide
/// "query.*" metrics of obs::MetricsRegistry::Default() (counters plus
/// the query.latency_ns / query.samples / query.phase.<name>_ns
/// histograms), which is where cross-query aggregates, percentiles and
/// JSON export live.
struct QueryStats {
  uint64_t candidates_enumerated = 0;
  uint64_t pruned_by_distance = 0;  ///< horizon or c^(d/2) bound
  uint64_t pruned_by_l1 = 0;
  uint64_t pruned_by_l2 = 0;
  uint64_t rough_estimates = 0;
  uint64_t skipped_after_estimate = 0;
  uint64_t refined = 0;
  /// Scoring walks drawn: the profile's plus those of every rough and
  /// refine estimate (the L1 pass's walks are not counted). 0 for the
  /// exact backend.
  uint64_t walks = 0;
  double seconds = 0.0;
  /// Time per query phase (obs/phase.h). The phases tile the query, so
  /// their sum is at most `seconds`; a phase that did not run reads 0.
  obs::PhaseTimes phases;

  /// Field-wise accumulation (group requests, all-pairs shards, bench
  /// loops). `seconds` and `phases` add too: the sum is total query time,
  /// which is cumulative-CPU-like when members ran on several threads.
  QueryStats& operator+=(const QueryStats& other) {
    candidates_enumerated += other.candidates_enumerated;
    pruned_by_distance += other.pruned_by_distance;
    pruned_by_l1 += other.pruned_by_l1;
    pruned_by_l2 += other.pruned_by_l2;
    rough_estimates += other.rough_estimates;
    skipped_after_estimate += other.skipped_after_estimate;
    refined += other.refined;
    walks += other.walks;
    seconds += other.seconds;
    phases += other.phases;
    return *this;
  }
};

/// Result of one top-k query.
struct QueryResult {
  /// Best-first ranking (at most k entries, scores > 0 and >= threshold).
  std::vector<ScoredVertex> top;
  QueryStats stats;
};

class TopKSearcher;

/// Reusable per-thread scratch (BFS arrays, dedup marks). Construction is
/// O(n); callers that manage their own threading can hold one per thread
/// and pass it to Query explicitly. The convenience overloads that omit
/// the workspace recycle instances through an internal freelist, so they
/// are safe to call in a loop without re-paying the O(n) setup.
class QueryWorkspace {
 public:
  explicit QueryWorkspace(const TopKSearcher& searcher);

 private:
  friend class TopKSearcher;
  BfsWorkspace bfs_;
  std::vector<uint32_t> marks_;
  uint32_t epoch_ = 0;
  /// Per-query bump arena backing the walk profile's tables, the L1-bound
  /// walk scratch and the candidate walks. Reset at the start of every
  /// Query, so a recycled workspace reaches its high-water mark on the
  /// first query and allocates nothing afterwards (the
  /// util.arena.steady_state_allocs gauge stays zero).
  Arena arena_;
};

/// The paper's similarity-search engine (§7): preprocess once
/// (Algorithm 3 gamma table + Algorithm 4 candidate index, O(n) time,
/// O(nP + nT) space), then answer top-k queries by candidate enumeration,
/// bound pruning (distance / L1 / L2) and adaptive Monte-Carlo scoring
/// (Algorithm 5).
class TopKSearcher {
 public:
  /// The graph must outlive the searcher. Uses the D ~ (1-c)I diagonal
  /// approximation (§3.3) — or the fixed-point estimate when
  /// options.estimate_diagonal is set — unless an explicit diagonal is
  /// supplied.
  TopKSearcher(const DirectedGraph& graph, SearchOptions options);
  TopKSearcher(const DirectedGraph& graph, SearchOptions options,
               std::vector<double> diagonal);
  TopKSearcher(TopKSearcher&&) noexcept;
  ~TopKSearcher();

  /// Seconds of the last BuildIndex spent estimating D (0 unless
  /// options.estimate_diagonal was set).
  double diagonal_seconds() const { return diagonal_seconds_; }

  /// Runs the preprocess phase. `pool` may be null (serial). Idempotent.
  void BuildIndex(ThreadPool* pool = nullptr);
  bool index_built() const { return index_built_; }

  /// Installs previously built preprocess structures (the deserialization
  /// path; see simrank/serialization.h) instead of running BuildIndex.
  /// Either pointer may be null when the corresponding ingredient is
  /// disabled in the options. Marks the index built.
  void AdoptPrebuiltIndex(std::unique_ptr<GammaTable> gamma,
                          std::unique_ptr<CandidateIndex> index);

  /// Seconds spent in the last BuildIndex call.
  double preprocess_seconds() const { return preprocess_seconds_; }
  /// Bytes held by the preprocess structures (gamma table + index H).
  uint64_t PreprocessBytes() const;

  const DirectedGraph& graph() const { return graph_; }
  const SearchOptions& options() const { return options_; }
  /// The diagonal correction D, held once by the estimator.
  const std::vector<double>& diagonal() const {
    return estimator_->diagonal();
  }

  /// Answers a top-k query: the best k vertices scoring > 0 and >=
  /// threshold. Requires BuildIndex() first when the options enable the
  /// index or the L2 bound. Thread-safe: concurrent queries may share
  /// the searcher as long as each uses its own workspace.
  /// `overrides` applies per-query runtime knobs (k, threshold,
  /// refine_walks) without touching the shared options.
  QueryResult Query(Vertex query, QueryWorkspace& workspace,
                    const QueryOverrides& overrides = {}) const;

  /// Convenience overload: borrows a workspace from the internal freelist
  /// (no O(n) allocation after the first call), so it is loop-safe.
  QueryResult Query(Vertex query, const QueryOverrides& overrides = {}) const;

  /// Number of workspaces currently parked in the internal freelist
  /// (exposed for tests of the convenience-overload recycling).
  size_t pooled_workspaces() const;

  /// Read-only access to the preprocess structures (for benches/tests).
  const GammaTable* gamma_table() const { return gamma_.get(); }
  const CandidateIndex* candidate_index() const { return index_.get(); }

 private:
  /// Pops a recycled workspace (or constructs one on first use) and pushes
  /// it back after the query. Thread-safe; the freelist is bounded so a
  /// burst of concurrent convenience calls cannot pin unbounded memory.
  std::unique_ptr<QueryWorkspace> AcquireWorkspace() const;
  void ReleaseWorkspace(std::unique_ptr<QueryWorkspace> workspace) const;

  const DirectedGraph& graph_;
  SearchOptions options_;
  /// True until BuildIndex has replaced the provisional uniform diagonal
  /// with the fixed-point estimate (only when options_.estimate_diagonal
  /// is set and no explicit diagonal was supplied).
  bool diagonal_pending_ = false;
  /// Holds the diagonal (diagonal()) as well as scoring candidates.
  std::unique_ptr<MonteCarloSimRank> estimator_;
  std::unique_ptr<GammaTable> gamma_;
  std::unique_ptr<CandidateIndex> index_;
  bool index_built_ = false;
  double preprocess_seconds_ = 0.0;
  double diagonal_seconds_ = 0.0;
  /// Recycled workspaces for the convenience overloads, held behind a
  /// pointer (mutex members are immovable) so the searcher itself stays
  /// movable for Result<TopKSearcher> loading paths.
  struct WorkspacePool;
  mutable std::unique_ptr<WorkspacePool> workspace_pool_;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_TOP_K_SEARCHER_H_
