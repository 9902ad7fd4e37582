#ifndef SIMRANK_SERVICE_QUERY_ENGINE_H_
#define SIMRANK_SERVICE_QUERY_ENGINE_H_

// Concurrent query-serving engine: the request/response surface a service
// is built on, layered over the pluggable SearcherBackend contract.
//
// The engine owns a set of query backends (the Monte-Carlo kernel and the
// exact oracle — see simrank/searcher_backend.h), a thread pool and a
// sharded LRU result cache. Backends answer single-vertex top-k only;
// group requests are composed here, by score-sum voting over the
// members' rankings.
// Which backend serves is decided by EngineOptions::backend — a concrete
// kind, or kAuto, which applies SelectBackend's size rule to the graph at
// engine creation — and can be overridden per request
// (QueryRequest::backend); non-primary backends are created and built
// lazily on first use. Clients describe work as QueryRequest values
// (vertex or group, per-request k/threshold/backend overrides, optional
// deadline) and get back util::Result<QueryResponse>:
//
//   - A *rejected* request (unknown vertex, k == 0, NaN threshold) is a
//     non-OK Result: nothing ran.
//   - An *accepted* request always yields a QueryResponse whose own
//     `status` reports the execution outcome: OK, or DeadlineExceeded
//     with whatever partial ranking/stats were computed before the
//     deadline fired. Degradation under load is likewise reported in the
//     response (`degraded`), never applied silently.
//
// Construction validates options up front (SearchOptions::Validate) and
// returns Result instead of aborting; no public entry point of the engine
// CHECK-fails on user input.
//
// Thread-safety: every public method may be called concurrently from any
// number of threads. RunAllPairs/RunAllPairsToFile/PrewarmCache must not
// be called from inside one of the engine's own pool tasks (they block on
// the pool).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include <array>

#include "graph/graph.h"
#include "obs/rolling.h"
#include "service/admission.h"
#include "simrank/all_pairs.h"
#include "simrank/searcher_backend.h"
#include "simrank/top_k_searcher.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace simrank::service {

class ResultCache;

/// Serving-layer clock. Deadlines are absolute points on the steady clock
/// so they survive queueing: a request enqueued with 5 ms of budget that
/// waits 4 ms in the queue has 1 ms left when it runs.
using EngineClock = std::chrono::steady_clock;

/// One query, described declaratively. Build with the factories and
/// chainable setters:
///
///   auto req = QueryRequest::ForVertex(12).WithK(10).WithTimeout(0.005);
///   auto rec = QueryRequest::ForGroup({3, 14, 15}).WithThreshold(0.05);
struct QueryRequest {
  /// Query vertices: exactly one for a vertex query, two or more for a
  /// group ("items similar to this set") query. Empty is rejected.
  std::vector<Vertex> vertices;

  /// Per-request overrides of the engine's SearchOptions; unset fields
  /// inherit the engine defaults. Only runtime knobs are overridable —
  /// anything baked into the preprocess is fixed at engine creation.
  std::optional<uint32_t> k;
  std::optional<double> threshold;

  /// Absolute deadline. The engine checks it between pipeline stages
  /// (admission, each group member) and answers DeadlineExceeded with
  /// partial stats instead of running to completion.
  std::optional<EngineClock::time_point> deadline;

  /// Serve this request with a specific backend instead of the engine's
  /// primary one. The backend is created and built (serially) on first
  /// use, so the first overridden request pays its preprocess.
  std::optional<BackendKind> backend;

  /// Skips both cache lookup and cache insertion for this request.
  bool bypass_cache = false;

  /// Admission class (docs/SERVING.md): interactive is what the latency
  /// SLO defends; batch degrades and sheds first under overload.
  PriorityClass priority = PriorityClass::kInteractive;

  /// Client identity for per-client rate limits and the per-query event
  /// record. Empty means anonymous: never rate-limited, hashed to 0.
  std::string client_id;

  static QueryRequest ForVertex(Vertex v) {
    QueryRequest request;
    request.vertices.push_back(v);
    return request;
  }
  static QueryRequest ForGroup(std::vector<Vertex> group) {
    QueryRequest request;
    request.vertices = std::move(group);
    return request;
  }

  QueryRequest&& WithK(uint32_t top_k) && {
    k = top_k;
    return std::move(*this);
  }
  QueryRequest&& WithThreshold(double theta) && {
    threshold = theta;
    return std::move(*this);
  }
  /// Deadline `seconds` from now.
  QueryRequest&& WithTimeout(double seconds) && {
    deadline = EngineClock::now() +
               std::chrono::duration_cast<EngineClock::duration>(
                   std::chrono::duration<double>(seconds));
    return std::move(*this);
  }
  QueryRequest&& WithBypassCache() && {
    bypass_cache = true;
    return std::move(*this);
  }
  QueryRequest&& WithBackend(BackendKind kind) && {
    backend = kind;
    return std::move(*this);
  }
  QueryRequest&& WithPriority(PriorityClass priority_class) && {
    priority = priority_class;
    return std::move(*this);
  }
  QueryRequest&& WithClientId(std::string client) && {
    client_id = std::move(client);
    return std::move(*this);
  }

  bool is_group() const { return vertices.size() > 1; }
};

/// Outcome of one accepted request.
struct QueryResponse {
  /// Execution outcome: OK, or DeadlineExceeded (in which case `top` and
  /// `stats` hold whatever was computed before the deadline fired).
  Status status;
  /// Best-first ranking (at most k entries, scores > 0 and >= threshold).
  std::vector<ScoredVertex> top;
  /// Per-query instrumentation, phase timings included; for a group, the
  /// sum over the members that ran. Zero when nothing ran: cache hits,
  /// shed requests and requests whose deadline passed before they
  /// started.
  QueryStats stats;
  /// True when the ranking was served from the result cache.
  bool from_cache = false;
  /// True when admission control degraded this query (refine pass
  /// dropped to the rough sample count). Degraded results are never
  /// cached. Always agrees with `decision == kDegraded`.
  bool degraded = false;
  /// Why admission control admitted/degraded/shed this request. Shed
  /// decisions pair with a kUnavailable `status`: the request was
  /// accepted but the engine refused to run it (retryable).
  AdmissionDecision decision = AdmissionDecision::kAdmitted;
  /// Time spent queued before a worker picked the request up (Submit /
  /// SubmitBatch paths; 0 for synchronous Query calls and shed requests).
  /// Exactly the event's queue_wait_ns, in seconds.
  double queue_seconds = 0.0;
  /// End-to-end engine time for this request, excluding queue wait (0
  /// for shed requests). Exactly the event's duration_ns, in seconds.
  double engine_seconds = 0.0;
  /// Flight-recorder sequence id of this request's QueryEvent (0 when
  /// obs is disabled) — the join key between a response and its record
  /// in the `--events-json` / postmortem dumps.
  uint64_t query_id = 0;
  /// Backend that computed the ranking — for cache hits, the backend the
  /// cached entry was computed by (the key includes it, so they agree).
  BackendKind backend = BackendKind::kMonteCarlo;

  bool ok() const { return status.ok(); }
};

/// Engine configuration: the search options plus the serving knobs.
struct EngineOptions {
  SearchOptions search;

  /// Which backend serves queries by default. kAuto applies SelectBackend
  /// to the graph's summary stats at engine creation; a concrete choice
  /// pins it. The default stays the paper's Monte-Carlo engine so existing
  /// deployments keep bit-identical behavior — auto-selection is opt-in.
  BackendChoice backend = BackendChoice::kMonteCarlo;

  /// Worker threads for Submit/SubmitBatch/RunAllPairs; 0 means
  /// hardware_concurrency.
  uint32_t num_threads = 0;

  /// Result cache of rankings; capacity 0 disables it.
  size_t cache_capacity = 4096;

  /// Admission control (docs/SERVING.md): per-class bounded backlogs,
  /// per-client token buckets, and the SLO-feedback degradation curve.
  /// The zero value disables all of it, keeping default serving
  /// behavior bit-identical to earlier releases.
  AdmissionOptions admission;

  /// Slow-query log: queries slower than this are offered, with their
  /// event and its phase timings, to obs::SlowQueryLog::Default(), which
  /// retains the `slow_log_capacity` slowest. 0 disarms (the default).
  double slow_log_threshold_seconds = 0.0;
  size_t slow_log_capacity = 16;

  /// Service-level objectives evaluated over the default rolling window
  /// and exported as `service.slo.<name>.*` gauges. Names must be
  /// [a-z0-9_]+ and thresholds finite and >= 0 (validated at engine
  /// creation).
  std::vector<obs::SloSpec> slos;
};

/// Validates the serving knobs of `options` (backend, slow-log threshold,
/// admission, SLO specs). Engine factories call this; exposed so CLIs can
/// validate user input before building anything.
Status ValidateEngineOptions(const EngineOptions& options);

class QueryEngine {
 public:
  /// Validates `options` (Result, not CHECK), builds the searcher and its
  /// index on the engine's pool, and returns a ready-to-serve engine.
  /// The graph must outlive the engine.
  static Result<std::unique_ptr<QueryEngine>> Create(
      const DirectedGraph& graph, EngineOptions options);

  /// Wraps an existing backend (e.g. a MonteCarloBackend around a
  /// searcher restored by LoadSearcherIndex) as the engine's primary
  /// backend; options.search is replaced by the backend's own options,
  /// which are still validated, and options.backend is pinned to the
  /// backend's kind. Builds the backend if it has not been preprocessed
  /// yet.
  static Result<std::unique_ptr<QueryEngine>> AdoptBackend(
      std::unique_ptr<SearcherBackend> backend, EngineOptions options);

  /// Blocks until every in-flight submitted request has drained.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Synchronous execution on the calling thread. Non-OK Result means the
  /// request was rejected and nothing ran.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Asynchronous execution on the engine's pool. Request validation
  /// happens before enqueueing, so a returned future always resolves to
  /// an execution outcome, never a validation error.
  Result<std::future<Result<QueryResponse>>> Submit(QueryRequest request);

  /// Submits every request, waits for all of them, and returns responses
  /// in request order.
  std::vector<Result<QueryResponse>> SubmitBatch(
      std::span<const QueryRequest> requests);

  /// Top-k for every vertex of a partition (the paper's all-vertices mode
  /// and its M-machines deployment, §2.2) through the engine, bypassing
  /// the result cache. `options.pool` is ignored — the engine's own pool
  /// runs the shard. Returns InvalidArgument for a bad partition spec.
  Result<AllPairsShard> RunAllPairs(const AllPairsOptions& options);

  /// Crash-safe partitioned all-pairs straight to a TSV file (see
  /// simrank::RunAllPairsToFile): streams rankings in checkpointed chunks
  /// and can resume an interrupted run. `options.run.pool` is ignored —
  /// the engine's own pool runs the shard.
  Result<AllPairsFileReport> RunAllPairsToFile(
      const AllPairsFileOptions& options, const std::string& path);

  /// Warms the result cache with full-quality top-k rankings for
  /// `vertices` (e.g. the head of the measured popularity distribution,
  /// docs/SERVING.md) by running them as batch-priority queries on the
  /// engine's pool. Returns the number that completed OK. No-op (0)
  /// when the cache is disabled.
  size_t PrewarmCache(std::span<const Vertex> vertices);

  /// The admission controller, or null when every admission knob is at
  /// its disabled default (read-only: level and queue depths for
  /// monitoring and tests).
  const AdmissionController* admission() const { return admission_.get(); }

  /// Drops every cached result (call after mutating external state the
  /// rankings were derived from).
  void InvalidateCache();
  /// Entries currently cached (0 when the cache is disabled).
  size_t CacheSize() const;

  /// Submitted requests currently waiting for a worker.
  size_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  /// Worker threads actually running (options.num_threads resolved).
  size_t num_threads() const { return pool_.num_threads(); }

  /// The backend kind serving requests that carry no per-request
  /// override: EngineOptions::backend, with kAuto resolved against the
  /// graph's stats at creation.
  BackendKind primary_backend() const { return primary_kind_; }

  /// The backend instance of `kind`, creating and building it (serially,
  /// on the calling thread) on first use. The reference stays valid for
  /// the engine's lifetime.
  const SearcherBackend& backend(BackendKind kind) const
      SIMRANK_EXCLUDES(backend_mutex_);

  /// The Monte-Carlo kernel (created on first use when it is not the
  /// primary backend) — the engine surface for MC-only machinery:
  /// checkpointed all-pairs, index serialization, preprocess reporting.
  const TopKSearcher& searcher() const SIMRANK_EXCLUDES(backend_mutex_);

  const EngineOptions& options() const { return options_; }

  /// The graph this engine serves (the one passed to Create/AdoptBackend).
  const DirectedGraph& graph() const { return graph_; }

 private:
  QueryEngine(const DirectedGraph& graph, EngineOptions options);

  static Result<std::unique_ptr<QueryEngine>> Finish(
      std::unique_ptr<QueryEngine> engine);

  Status ValidateRequest(const QueryRequest& request) const;

  /// One request's clock reads — enqueue (Submit only), start (the
  /// dequeue, when it queued) and end, everything timed about it derives
  /// from them — and what became of it.
  struct Lifecycle {
    EngineClock::time_point enqueued{};  ///< == start unless it queued
    EngineClock::time_point start{};
    EngineClock::time_point end{};  ///< == start for a shed request
    bool submitted = false;
    /// A cache hit, or at least one backend query ran: the request gives
    /// a latency sample. Shed requests, requests that expired before they
    /// started and injected faults do not.
    bool answered = false;
  };

  /// The admission gate Query and Submit share, at the request's first
  /// clock read `now`. Returns the final Result of a request that does
  /// not run: non-OK for an invalid one (counted as service.rejected),
  /// the accounted Unavailable response for one admission control sheds.
  /// Returns nullopt to run the request; a submitted one is then charged
  /// a backlog slot.
  std::optional<Result<QueryResponse>> Admit(const QueryRequest& request,
                                             EngineClock::time_point now,
                                             bool submitted);
  /// Executes an admitted request, reads the clock at its end and
  /// accounts for it.
  Result<QueryResponse> Run(const QueryRequest& request,
                            EngineClock::time_point enqueued,
                            EngineClock::time_point start, bool submitted);
  /// The stages of an admitted request: cache, deadline (against
  /// `start`), degradation, backend. Sets `answered`.
  Result<QueryResponse> Execute(const QueryRequest& request,
                                EngineClock::time_point start,
                                bool& answered);
  /// The one accounting step, once per accepted request, shed ones
  /// included: sets the response's timings and query id, and records the
  /// service.* counters, the latency histograms, the admission feedback,
  /// the event, the rolling window and the slow log. Only an answered
  /// request gives a latency sample.
  void Account(const QueryRequest& request, Result<QueryResponse>& result,
               const Lifecycle& lifecycle);
  void RunGroup(const QueryRequest& request, const SearcherBackend& backend,
                const QueryOverrides& overrides, uint32_t effective_k,
                QueryResponse& response);

  /// Returns the built backend of `kind`, creating it under
  /// `backend_mutex_` on first use. `pool` runs the build when non-null
  /// (only safe during Finish, before requests are in flight); lazy
  /// builds triggered by requests pass null and build serially, because a
  /// request may itself be running on a pool worker and a nested
  /// pool-blocking build would deadlock.
  SearcherBackend& GetOrCreateBackend(BackendKind kind,
                                      ThreadPool* pool = nullptr) const
      SIMRANK_EXCLUDES(backend_mutex_);

  const DirectedGraph& graph_;
  EngineOptions options_;
  BackendKind primary_kind_ = BackendKind::kMonteCarlo;

  /// Backend instances, created lazily; entries are never replaced or
  /// destroyed before the engine. `backend_ptrs_` republishes each entry
  /// as a lock-free pointer once it is *built*, so the per-request fast
  /// path never touches `backend_mutex_`.
  mutable Mutex backend_mutex_;
  mutable std::array<std::unique_ptr<SearcherBackend>, kBackendSlots>
      backends_ SIMRANK_GUARDED_BY(backend_mutex_);
  mutable std::array<std::atomic<SearcherBackend*>, kBackendSlots>
      backend_ptrs_{};

  std::unique_ptr<ResultCache> cache_;  // null when disabled

  /// Null when EngineOptions::admission is fully disabled — the default
  /// request path then has zero admission-control overhead.
  std::unique_ptr<AdmissionController> admission_;

  std::atomic<size_t> queued_{0};

  /// Declared last: destroyed first, so the pool drains all tasks while
  /// the members they touch are still alive.
  ThreadPool pool_;
};

}  // namespace simrank::service

#endif  // SIMRANK_SERVICE_QUERY_ENGINE_H_
