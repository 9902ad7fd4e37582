#include "simrank/top_k_searcher.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/phase.h"
#include "simrank/linear.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace simrank {

namespace {

// Registry-backed query metrics. References are resolved once (registry
// lookup takes a mutex) and cached for the process lifetime; bumping them
// is a relaxed atomic add, so the per-query flush in Query() costs a
// handful of nanoseconds.
struct QueryMetrics {
  obs::Counter& queries;
  obs::Counter& candidates_enumerated;
  obs::Counter& pruned_by_distance;
  obs::Counter& pruned_by_l1;
  obs::Counter& pruned_by_l2;
  obs::Counter& rough_estimates;
  obs::Counter& skipped_after_estimate;
  obs::Counter& refined;
  obs::Counter& bfs_truncated;
  obs::Histogram& latency_ns;
  obs::Histogram& samples;
  obs::Histogram& bfs_edges;

  QueryMetrics()
      : queries(Registry().GetCounter("query.count")),
        candidates_enumerated(
            Registry().GetCounter("query.candidates_enumerated")),
        pruned_by_distance(Registry().GetCounter("query.pruned_by_distance")),
        pruned_by_l1(Registry().GetCounter("query.pruned_by_l1")),
        pruned_by_l2(Registry().GetCounter("query.pruned_by_l2")),
        rough_estimates(Registry().GetCounter("query.rough_estimates")),
        skipped_after_estimate(
            Registry().GetCounter("query.skipped_after_estimate")),
        refined(Registry().GetCounter("query.refined")),
        bfs_truncated(Registry().GetCounter("query.bfs_truncated")),
        latency_ns(Registry().GetHistogram("query.latency_ns")),
        samples(Registry().GetHistogram("query.samples")),
        bfs_edges(Registry().GetHistogram("query.bfs_edges")) {}

  static obs::MetricsRegistry& Registry() {
    return obs::MetricsRegistry::Default();
  }
};

QueryMetrics& GetQueryMetrics() {
  static QueryMetrics* metrics = new QueryMetrics();
  return *metrics;
}

// Flushes the per-query view into the process-wide registry (QueryStats
// stays the caller-facing view of the same numbers), plus the BFS's edge
// visits and whether its edge budget cut it short.
void FlushQueryMetrics(const QueryStats& stats, uint64_t bfs_edges,
                       bool bfs_truncated) {
  QueryMetrics& metrics = GetQueryMetrics();
  metrics.queries.Add(1);
  metrics.bfs_edges.Record(bfs_edges);
  if (bfs_truncated) metrics.bfs_truncated.Add(1);
  metrics.candidates_enumerated.Add(stats.candidates_enumerated);
  metrics.pruned_by_distance.Add(stats.pruned_by_distance);
  metrics.pruned_by_l1.Add(stats.pruned_by_l1);
  metrics.pruned_by_l2.Add(stats.pruned_by_l2);
  metrics.rough_estimates.Add(stats.rough_estimates);
  metrics.skipped_after_estimate.Add(stats.skipped_after_estimate);
  metrics.refined.Add(stats.refined);
  metrics.latency_ns.RecordSeconds(stats.seconds);
  metrics.samples.Record(stats.walks);
  obs::RecordPhaseHistograms(stats.phases);
}

// Arena bytes one walk set of `walks` walks plus its counter table can
// consume: the position array, the power-of-two slot table (<= 4x the
// distinct-key capacity at the <= 50% load factor) and the used-slot list,
// each rounded up for the arena's alignment padding.
size_t WalkScratchBytes(size_t walks) {
  size_t slots = 16;
  while (slots < walks * 2) slots <<= 1;
  return walks * sizeof(Vertex) + slots * sizeof(WalkCounter::Entry) +
         walks * sizeof(uint32_t) + 64;
}

// Upper bound on the arena high-water mark of one query under `options`:
// the L1-bound scratch (rewound before the profile is built, but budgeted
// additively for slack), one counter table per profile step, and the
// largest candidate walk set (marked/rewound per candidate, so only one is
// ever live). Sizing the first block to the full budget means a workspace
// never chains a second block in steady state.
size_t QueryArenaBudget(const SearchOptions& options) {
  const size_t steps = options.simrank.num_steps;
  const size_t candidate_walks =
      std::max(options.estimate_walks, options.refine_walks);
  size_t bytes = WalkScratchBytes(options.l1_walks);
  bytes += options.profile_walks * sizeof(Vertex) + 64;
  bytes += steps * WalkScratchBytes(options.profile_walks);
  bytes += WalkScratchBytes(candidate_walks);
  return bytes + 4096;
}

// Publishes the preprocess structures' sizes next to their sum, which is
// TopKSearcher::PreprocessBytes().
void PublishIndexBytes(const GammaTable* gamma, const CandidateIndex* index) {
  const uint64_t gamma_bytes = gamma != nullptr ? gamma->MemoryBytes() : 0;
  const uint64_t candidate_bytes =
      index != nullptr ? index->MemoryBytes() : 0;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetGauge("index.gamma_bytes")
      .Set(static_cast<int64_t>(gamma_bytes));
  registry.GetGauge("index.candidate_bytes")
      .Set(static_cast<int64_t>(candidate_bytes));
  registry.GetGauge("index.bytes")
      .Set(static_cast<int64_t>(gamma_bytes + candidate_bytes));
}

}  // namespace

QueryWorkspace::QueryWorkspace(const TopKSearcher& searcher)
    : bfs_(searcher.graph()), marks_(searcher.graph().NumVertices(), 0) {
  arena_.Reserve(QueryArenaBudget(searcher.options()));
}

Status SearchOptions::Validate() const {
  if (!(simrank.decay > 0.0 && simrank.decay < 1.0)) {
    return Status::InvalidArgument("decay must be in (0, 1), got " +
                                   std::to_string(simrank.decay));
  }
  if (simrank.num_steps < 1) {
    return Status::InvalidArgument("num_steps must be >= 1");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(threshold >= 0.0)) {  // negation also rejects NaN
    return Status::InvalidArgument("threshold must be >= 0, got " +
                                   std::to_string(threshold));
  }
  if (estimate_walks < 1) {
    return Status::InvalidArgument("estimate_walks must be >= 1");
  }
  if (refine_walks < 1) {
    return Status::InvalidArgument("refine_walks must be >= 1");
  }
  if (profile_walks < 1) {
    return Status::InvalidArgument("profile_walks must be >= 1");
  }
  if (use_l1_bound && l1_walks < 1) {
    return Status::InvalidArgument("l1_walks must be >= 1 when the L1 "
                                   "bound is enabled");
  }
  if (use_l2_bound && gamma_walks < 1) {
    return Status::InvalidArgument("gamma_walks must be >= 1 when the L2 "
                                   "bound is enabled");
  }
  if (adaptive_sampling &&
      !(adaptive_margin > 0.0 && adaptive_margin <= 1.0)) {
    return Status::InvalidArgument(
        "adaptive_margin must be in (0, 1], got " +
        std::to_string(adaptive_margin));
  }
  return Status::OK();
}

TopKSearcher::TopKSearcher(const DirectedGraph& graph, SearchOptions options)
    : TopKSearcher(graph, options,
                   UniformDiagonal(graph.NumVertices(),
                                   options.simrank.decay)) {
  diagonal_pending_ = options_.estimate_diagonal;
}

TopKSearcher::TopKSearcher(const DirectedGraph& graph, SearchOptions options,
                           std::vector<double> diagonal)
    : graph_(graph),
      options_(options),
      workspace_pool_(std::make_unique<WorkspacePool>()) {
  options_.simrank.Validate();
  SIMRANK_CHECK_EQ(diagonal.size(), graph.NumVertices());
  SIMRANK_CHECK_GE(options_.threshold, 0.0);
  SIMRANK_CHECK_GE(options_.refine_walks, 1u);
  SIMRANK_CHECK_GE(options_.estimate_walks, 1u);
  SIMRANK_CHECK_GE(options_.profile_walks, 1u);
  estimator_ = std::make_unique<MonteCarloSimRank>(graph, options_.simrank,
                                                   std::move(diagonal));
}

void TopKSearcher::BuildIndex(ThreadPool* pool) {
  if (index_built_) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  WallTimer timer;
  if (diagonal_pending_) {
    WallTimer diagonal_timer;
    estimator_ = std::make_unique<MonteCarloSimRank>(
        graph_, options_.simrank,
        EstimateDiagonalFixedPoint(graph_, options_.simrank,
                                   options_.diagonal_options, pool));
    diagonal_pending_ = false;
    diagonal_seconds_ = diagonal_timer.ElapsedSeconds();
    registry.GetGauge("index.build_diagonal_us")
        .Set(static_cast<int64_t>(diagonal_seconds_ * 1e6));
  }
  if (options_.use_l2_bound) {
    WallTimer gamma_timer;
    gamma_ = std::make_unique<GammaTable>(GammaTable::BuildMonteCarlo(
        graph_, options_.simrank, diagonal(), options_.gamma_walks,
        MixSeeds(options_.seed, 0xA1505), pool));
    registry.GetGauge("index.build_gamma_us")
        .Set(static_cast<int64_t>(gamma_timer.ElapsedSeconds() * 1e6));
  }
  if (options_.use_index) {
    WallTimer index_timer;
    index_ = std::make_unique<CandidateIndex>(
        graph_, options_.simrank, options_.index_params,
        MixSeeds(options_.seed, 0x1DE8), pool);
    registry.GetGauge("index.build_candidate_us")
        .Set(static_cast<int64_t>(index_timer.ElapsedSeconds() * 1e6));
    registry.GetGauge("index.entries")
        .Set(static_cast<int64_t>(index_->NumEntries()));
  }
  preprocess_seconds_ = timer.ElapsedSeconds();
  index_built_ = true;
  registry.GetCounter("index.builds").Add(1);
  registry.GetGauge("index.build_total_us")
      .Set(static_cast<int64_t>(preprocess_seconds_ * 1e6));
  PublishIndexBytes(gamma_.get(), index_.get());
}

void TopKSearcher::AdoptPrebuiltIndex(std::unique_ptr<GammaTable> gamma,
                                      std::unique_ptr<CandidateIndex> index) {
  SIMRANK_CHECK(!options_.use_l2_bound ||
                (gamma != nullptr &&
                 gamma->num_vertices() == graph_.NumVertices() &&
                 gamma->num_steps() == options_.simrank.num_steps));
  SIMRANK_CHECK(!options_.use_index ||
                (index != nullptr &&
                 index->num_vertices() == graph_.NumVertices()));
  gamma_ = std::move(gamma);
  index_ = std::move(index);
  // An explicit adoption supersedes any pending diagonal estimation: the
  // adopted structures were built against the diagonal the caller passed
  // to the constructor.
  diagonal_pending_ = false;
  index_built_ = true;
  preprocess_seconds_ = 0.0;
  PublishIndexBytes(gamma_.get(), index_.get());
}

uint64_t TopKSearcher::PreprocessBytes() const {
  uint64_t bytes = 0;
  if (gamma_ != nullptr) bytes += gamma_->MemoryBytes();
  if (index_ != nullptr) bytes += index_->MemoryBytes();
  return bytes;
}

/// Bound on the convenience-overload freelist: enough for any realistic
/// number of concurrently borrowing threads, small enough that a burst
/// cannot pin O(n) scratch arrays forever.
struct TopKSearcher::WorkspacePool {
  static constexpr size_t kMaxPooled = 64;
  Mutex mutex;
  std::vector<std::unique_ptr<QueryWorkspace>> free SIMRANK_GUARDED_BY(mutex);
};

TopKSearcher::TopKSearcher(TopKSearcher&&) noexcept = default;
TopKSearcher::~TopKSearcher() = default;

std::unique_ptr<QueryWorkspace> TopKSearcher::AcquireWorkspace() const {
  {
    MutexLock lock(workspace_pool_->mutex);
    if (!workspace_pool_->free.empty()) {
      std::unique_ptr<QueryWorkspace> workspace =
          std::move(workspace_pool_->free.back());
      workspace_pool_->free.pop_back();
      return workspace;
    }
  }
  return std::make_unique<QueryWorkspace>(*this);
}

void TopKSearcher::ReleaseWorkspace(
    std::unique_ptr<QueryWorkspace> workspace) const {
  MutexLock lock(workspace_pool_->mutex);
  if (workspace_pool_->free.size() < WorkspacePool::kMaxPooled) {
    workspace_pool_->free.push_back(std::move(workspace));
  }
}

size_t TopKSearcher::pooled_workspaces() const {
  MutexLock lock(workspace_pool_->mutex);
  return workspace_pool_->free.size();
}

QueryResult TopKSearcher::Query(Vertex query,
                                const QueryOverrides& overrides) const {
  std::unique_ptr<QueryWorkspace> workspace = AcquireWorkspace();
  QueryResult result = Query(query, *workspace, overrides);
  ReleaseWorkspace(std::move(workspace));
  return result;
}

QueryResult TopKSearcher::Query(Vertex query, QueryWorkspace& workspace,
                                const QueryOverrides& overrides) const {
  SIMRANK_CHECK_LT(query, graph_.NumVertices());
  SIMRANK_CHECK(!options_.use_l2_bound || gamma_ != nullptr);
  SIMRANK_CHECK(!options_.use_index || index_ != nullptr);
  // estimate_diagonal requires the BuildIndex preprocess to have run.
  SIMRANK_CHECK(!diagonal_pending_);
  QueryResult result;
  QueryStats& stats = result.stats;
  // One clock read per phase boundary: BFS, L1 bound, profile, candidate
  // loop. The clock also names the running phase for CHECK failures.
  obs::PhaseClock clock(stats.phases, obs::QueryPhase::kBfs);
  const SimRankParams& params = options_.simrank;
  // Per-query runtime knobs (the preprocess-bound knobs are not
  // overridable; see QueryOverrides).
  const uint32_t k = overrides.k.value_or(options_.k);
  const double threshold = overrides.threshold.value_or(options_.threshold);
  const uint32_t refine_walks =
      overrides.refine_walks.value_or(options_.refine_walks);
  // Deterministic per-query stream, independent of query order.
  Rng rng(MixSeeds(options_.seed, 0x9E3779B9ULL + query));
  // One arena generation per query: everything below (L1 scratch, profile
  // tables, candidate walks) bump-allocates out of the block reserved at
  // workspace construction.
  workspace.arena_.Reset();

  // BFS from the query: distances feed the pruning bounds, and in scan mode
  // its discovery order is the candidate enumeration. The horizon covers
  // both d_max and the walk radius T-1 of the L1 bound's alpha table. In
  // index mode the BFS scans at most as many edges as the L1 pass takes
  // walk steps (R * T), so the query stays local, and past its frontier
  // the bounds take distance lower bounds (bounds.h). Scan mode keeps the
  // full BFS: its reached list is the enumeration.
  const uint32_t horizon =
      std::max(options_.max_distance, params.num_steps - 1);
  const uint64_t edge_budget =
      options_.use_index ? uint64_t{options_.l1_walks} * params.num_steps
                         : kNoEdgeBudget;
  workspace.bfs_.Run(query, EdgeDirection::kUndirected, horizon, edge_budget);

  // L1 bound table beta(u, d) (Algorithm 2) — computed per query.
  std::vector<double> beta;
  if (options_.use_l1_bound) {
    clock.Enter(obs::QueryPhase::kL1);
    beta = ComputeL1Beta(graph_, params, diagonal(), query, options_.l1_walks,
                         workspace.bfs_, options_.max_distance, rng,
                         &workspace.arena_);
  }

  // The query vertex's walk profile, shared by every candidate estimate.
  clock.Enter(obs::QueryPhase::kProfile);
  const WalkProfile profile = estimator_->BuildProfile(
      query, options_.profile_walks, rng, &workspace.arena_);
  stats.walks = options_.profile_walks;

  clock.Enter(obs::QueryPhase::kCandidates);
  TopKCollector collector(k);

  auto cutoff = [&]() { return std::max(threshold, collector.Threshold()); };

  auto consider = [&](Vertex v) {
    if (v == query) return;
    ++stats.candidates_enumerated;
    // Exact where the BFS reached v, its frontier distance elsewhere.
    const uint32_t distance = workspace.bfs_.DistanceLowerBound(v);
    if (distance == kInfiniteDistance || distance > options_.max_distance) {
      ++stats.pruned_by_distance;
      return;
    }
    // Cheapest bound first; each bound only tightens the previous one.
    if (options_.use_distance_bound &&
        DistanceBound(params.decay, distance) < cutoff()) {
      ++stats.pruned_by_distance;
      return;
    }
    if (options_.use_l1_bound && beta[distance] < cutoff()) {
      ++stats.pruned_by_l1;
      return;
    }
    if (options_.use_l2_bound &&
        gamma_->BoundAtDistance(query, v, distance) < cutoff()) {
      ++stats.pruned_by_l2;
      return;
    }
    if (options_.adaptive_sampling) {
      ++stats.rough_estimates;
      stats.walks += options_.estimate_walks;
      const double rough = estimator_->EstimateAgainstProfile(
          profile, v, options_.estimate_walks, rng, &workspace.arena_);
      if (rough < options_.adaptive_margin * cutoff()) {
        ++stats.skipped_after_estimate;
        return;
      }
    }
    ++stats.refined;
    stats.walks += refine_walks;
    const double score = estimator_->EstimateAgainstProfile(
        profile, v, refine_walks, rng, &workspace.arena_);
    // A zero estimate means no walk met: not an answer, even at theta = 0.
    if (score > 0.0 && score >= threshold) collector.Push(v, score);
  };

  if (options_.use_index) {
    index_->ForEachCandidate(query, workspace.marks_, workspace.epoch_,
                             consider);
  } else {
    // Ascending-distance scan (§2.2): BFS discovery order is sorted by
    // distance, so the bound pruning sees nearer candidates first.
    for (Vertex v : workspace.bfs_.Reached()) consider(v);
  }

  result.top = collector.TakeSorted();
  stats.seconds = std::chrono::duration<double>(clock.Stop()).count();
  // A horizon cut leaves the frontier at horizon + 1; a budget cut, closer.
  FlushQueryMetrics(stats, workspace.bfs_.edges_visited(),
                    workspace.bfs_.frontier_distance() <= horizon);
  return result;
}

}  // namespace simrank
