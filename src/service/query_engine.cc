#include "service/query_engine.h"

#include <algorithm>
#include <bit>
#include <string>
#include <thread>
#include <utility>

#include "graph/stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/rolling.h"
#include "obs/slow_log.h"
#include "service/result_cache.h"
#include "simrank/backend_mc.h"
#include "util/fault_injection.h"
#include "util/top_k.h"

namespace simrank::service {

namespace {

// Registry-backed serving metrics, resolved once (same pattern as the
// query.* metrics in top_k_searcher.cc and the cache metrics next door).
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& rejected;
  obs::Counter& deadline_exceeded;
  obs::Counter& degraded;
  obs::Counter& shed;
  obs::Histogram& latency_ns;
  /// Per-backend request split, indexed by BackendKind:
  /// service.backend.<name>.requests.
  std::array<obs::Counter*, kBackendSlots> backend_requests;
  /// Per-priority-class split, indexed by PriorityClass:
  /// service.class.<name>.{requests,shed,degraded,latency_ns}.
  std::array<obs::Counter*, kNumPriorityClasses> class_requests;
  std::array<obs::Counter*, kNumPriorityClasses> class_shed;
  std::array<obs::Counter*, kNumPriorityClasses> class_degraded;
  std::array<obs::Histogram*, kNumPriorityClasses> class_latency_ns;

  ServiceMetrics()
      : requests(Registry().GetCounter("service.requests")),
        rejected(Registry().GetCounter("service.rejected")),
        deadline_exceeded(Registry().GetCounter("service.deadline_exceeded")),
        degraded(Registry().GetCounter("service.degraded")),
        shed(Registry().GetCounter("service.shed")),
        latency_ns(Registry().GetHistogram("service.latency_ns")) {
    for (BackendKind kind : RegisteredBackends()) {
      backend_requests[static_cast<size_t>(kind)] =
          &Registry().GetCounter("service.backend." +
                                 std::string(BackendKindName(kind)) +
                                 ".requests");
    }
    for (size_t i = 0; i < kNumPriorityClasses; ++i) {
      const std::string prefix =
          "service.class." +
          std::string(PriorityClassName(static_cast<PriorityClass>(i)));
      class_requests[i] = &Registry().GetCounter(prefix + ".requests");
      class_shed[i] = &Registry().GetCounter(prefix + ".shed");
      class_degraded[i] = &Registry().GetCounter(prefix + ".degraded");
      class_latency_ns[i] = &Registry().GetHistogram(prefix + ".latency_ns");
    }
  }

  static obs::MetricsRegistry& Registry() {
    return obs::MetricsRegistry::Default();
  }
};

ServiceMetrics& GetServiceMetrics() {
  static ServiceMetrics* metrics = new ServiceMetrics();
  return *metrics;
}

size_t ResolveThreads(uint32_t num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

uint64_t Nanos(EngineClock::duration duration) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
}

/// Steady-clock time as fractional seconds — the timebase the admission
/// controller's token buckets and feedback window run on.
double Seconds(EngineClock::time_point time) {
  return std::chrono::duration<double>(time.time_since_epoch()).count();
}

}  // namespace

Status ValidateEngineOptions(const EngineOptions& options) {
  SIMRANK_RETURN_IF_ERROR(options.search.Validate());
  if (options.backend != BackendChoice::kAuto &&
      !IsRegisteredBackend(static_cast<BackendKind>(options.backend))) {
    return Status::InvalidArgument(
        "EngineOptions::backend is not a registered backend");
  }
  return options.admission.Validate();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    const DirectedGraph& graph, EngineOptions options) {
  SIMRANK_RETURN_IF_ERROR(ValidateEngineOptions(options));
  // Not make_unique: the constructor is private.
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(graph, std::move(options)));
  return Finish(std::move(engine));
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::AdoptBackend(
    std::unique_ptr<SearcherBackend> backend, EngineOptions options) {
  SIMRANK_CHECK(backend != nullptr);
  const BackendKind kind = backend->kind();
  options.search = backend->options();
  options.backend = static_cast<BackendChoice>(kind);
  SIMRANK_RETURN_IF_ERROR(ValidateEngineOptions(options));
  std::unique_ptr<QueryEngine> engine(
      new QueryEngine(backend->graph(), std::move(options)));
  {
    MutexLock lock(engine->backend_mutex_);
    engine->backends_[static_cast<size_t>(kind)] = std::move(backend);
  }
  return Finish(std::move(engine));
}

QueryEngine::QueryEngine(const DirectedGraph& graph, EngineOptions options)
    : graph_(graph),
      options_(std::move(options)),
      pool_(ResolveThreads(options_.num_threads)) {}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Finish(
    std::unique_ptr<QueryEngine> engine) {
  if (engine->options_.cache_capacity > 0) {
    engine->cache_ = std::make_unique<ResultCache>(
        engine->options_.cache_capacity);
  }
  if (engine->options_.admission.any_enabled()) {
    engine->admission_ =
        std::make_unique<AdmissionController>(engine->options_.admission);
  }
  // Resolve and build the primary backend. kAuto applies SelectBackend's
  // size rule: a pass over the graph's summary stats is O(n + m), noise
  // next to any backend's preprocess.
  engine->primary_kind_ =
      engine->options_.backend == BackendChoice::kAuto
          ? SelectBackend(ComputeGraphStats(engine->graph_))
          : static_cast<BackendKind>(engine->options_.backend);
  const SearcherBackend& primary =
      engine->GetOrCreateBackend(engine->primary_kind_, &engine->pool_);
  obs::MetricsRegistry::Default()
      .GetGauge("service.backend.primary")
      .Set(static_cast<int64_t>(primary.kind()));
  return engine;
}

SearcherBackend& QueryEngine::GetOrCreateBackend(BackendKind kind,
                                                 ThreadPool* pool) const {
  const size_t slot = static_cast<size_t>(kind);
  if (SearcherBackend* ready =
          backend_ptrs_[slot].load(std::memory_order_acquire);
      ready != nullptr) {
    return *ready;
  }
  MutexLock lock(backend_mutex_);
  if (backends_[slot] == nullptr) {
    backends_[slot] = MakeBackend(kind, graph_, options_.search);
  }
  SearcherBackend& backend = *backends_[slot];
  if (!backend.built()) backend.Build(pool);
  obs::MetricsRegistry::Default()
      .GetGauge("service.backend." + std::string(backend.name()) +
                ".index_bytes")
      .Set(static_cast<int64_t>(backend.MemoryBytes()));
  backend_ptrs_[slot].store(&backend, std::memory_order_release);
  return backend;
}

const SearcherBackend& QueryEngine::backend(BackendKind kind) const {
  return GetOrCreateBackend(kind);
}

const TopKSearcher& QueryEngine::searcher() const {
  return static_cast<const MonteCarloBackend&>(
             GetOrCreateBackend(BackendKind::kMonteCarlo))
      .searcher();
}

QueryEngine::~QueryEngine() = default;

Status QueryEngine::ValidateRequest(const QueryRequest& request) const {
  if (request.vertices.empty()) {
    return Status::InvalidArgument("QueryRequest has no query vertices");
  }
  const Vertex n = graph_.NumVertices();
  for (Vertex v : request.vertices) {
    if (v >= n) {
      return Status::NotFound("query vertex " + std::to_string(v) +
                              " is not in the graph (it has " +
                              std::to_string(n) + " vertices)");
    }
  }
  if (request.k.has_value() && *request.k < 1) {
    return Status::InvalidArgument("QueryRequest::k override must be >= 1");
  }
  if (request.backend.has_value() && !IsRegisteredBackend(*request.backend)) {
    return Status::InvalidArgument(
        "QueryRequest::backend is not a registered backend");
  }
  // !(x >= 0) also rejects NaN.
  if (request.threshold.has_value() && !(*request.threshold >= 0.0)) {
    return Status::InvalidArgument(
        "QueryRequest::threshold override must be >= 0");
  }
  return Status::OK();
}

std::optional<Result<QueryResponse>> QueryEngine::Admit(
    const QueryRequest& request, EngineClock::time_point now,
    bool submitted) {
  if (Status status = ValidateRequest(request); !status.ok()) {
    GetServiceMetrics().rejected.Add(1);
    return Result<QueryResponse>(std::move(status));
  }
  if (admission_ == nullptr) return std::nullopt;
  // A submitted request charges a backlog slot to its class on admission:
  // a full class is refused *here*, before the pool queue grows, which is
  // what makes the per-class bounds real.
  const AdmissionDecision decision =
      admission_->Admit(request.priority, HashClientId(request.client_id),
                        Seconds(now), /*will_queue=*/submitted);
  if (!IsShed(decision)) return std::nullopt;
  QueryResponse response;
  response.decision = decision;
  response.backend = request.backend.value_or(primary_kind_);
  response.status = Status::Unavailable(
      std::string("request shed by admission control: ") +
      AdmissionDecisionName(decision));
  Result<QueryResponse> result(std::move(response));
  Account(request, result,
          {.enqueued = now, .start = now, .end = now, .submitted = submitted});
  return result;
}

Result<QueryResponse> QueryEngine::Query(const QueryRequest& request) {
  const EngineClock::time_point start = EngineClock::now();
  if (std::optional<Result<QueryResponse>> refused =
          Admit(request, start, /*submitted=*/false)) {
    return *std::move(refused);
  }
  return Run(request, start, start, /*submitted=*/false);
}

Result<std::future<Result<QueryResponse>>> QueryEngine::Submit(
    QueryRequest request) {
  const EngineClock::time_point enqueued = EngineClock::now();
  if (std::optional<Result<QueryResponse>> refused =
          Admit(request, enqueued, /*submitted=*/true)) {
    if (!refused->ok()) return refused->status();
    std::promise<Result<QueryResponse>> resolved;
    resolved.set_value(*std::move(refused));
    return resolved.get_future();
  }
  auto promise = std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  pool_.Submit([this, promise, request = std::move(request), enqueued] {
    // The backlog is "submitted but not yet started": release the slot
    // before the degradation check so a request never degrades on
    // account of itself.
    if (admission_ != nullptr) admission_->OnDequeue(request.priority);
    promise->set_value(
        Run(request, enqueued, EngineClock::now(), /*submitted=*/true));
  });
  return future;
}

std::vector<Result<QueryResponse>> QueryEngine::SubmitBatch(
    std::span<const QueryRequest> requests) {
  // Enqueue everything first so the whole batch is in flight, then collect
  // in request order.
  std::vector<Result<std::future<Result<QueryResponse>>>> submitted;
  submitted.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    submitted.push_back(Submit(request));
  }
  std::vector<Result<QueryResponse>> responses;
  responses.reserve(requests.size());
  for (Result<std::future<Result<QueryResponse>>>& handle : submitted) {
    if (!handle.ok()) {
      responses.push_back(handle.status());
    } else {
      responses.push_back(handle.value().get());
    }
  }
  return responses;
}

Result<AllPairsShard> QueryEngine::RunAllPairs(const AllPairsOptions& options) {
  if (options.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (options.partition >= options.num_partitions) {
    return Status::InvalidArgument(
        "partition " + std::to_string(options.partition) +
        " out of range for " + std::to_string(options.num_partitions) +
        " partitions");
  }
  AllPairsOptions engine_options = options;
  engine_options.pool = &pool_;
  // The checkpointed all-pairs machinery is Monte-Carlo-only; engines
  // serving another primary backend build the MC kernel on first
  // all-pairs call.
  return simrank::RunAllPairs(searcher(), engine_options);
}

Result<AllPairsFileReport> QueryEngine::RunAllPairsToFile(
    const AllPairsFileOptions& options, const std::string& path) {
  AllPairsFileOptions engine_options = options;
  engine_options.run.pool = &pool_;
  return simrank::RunAllPairsToFile(searcher(), engine_options, path);
}

size_t QueryEngine::PrewarmCache(std::span<const Vertex> vertices) {
  if (cache_ == nullptr) return 0;
  // Synchronous Query calls fanned over the pool: prewarming never
  // inflates the submit backlog, so it cannot trip the degrade
  // watermark and defeat itself (degraded results are never cached).
  std::atomic<size_t> warmed{0};
  ParallelFor(&pool_, 0, vertices.size(), [&](size_t i) {
    QueryRequest request = QueryRequest::ForVertex(vertices[i]);
    request.priority = PriorityClass::kBatch;
    const Result<QueryResponse> result = Query(request);
    if (result.ok() && result.value().ok() && !result.value().degraded) {
      warmed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return warmed.load(std::memory_order_relaxed);
}

void QueryEngine::InvalidateCache() {
  if (cache_ != nullptr) cache_->Clear();
}

size_t QueryEngine::CacheSize() const {
  return cache_ != nullptr ? cache_->size() : 0;
}

Result<QueryResponse> QueryEngine::Run(const QueryRequest& request,
                                       EngineClock::time_point enqueued,
                                       EngineClock::time_point start,
                                       bool submitted) {
  Lifecycle lifecycle{
      .enqueued = enqueued, .start = start, .submitted = submitted};
  // A throw is an execution failure like an injected fault: Query and
  // Submit answer the same Internal result, accounted once. It must not
  // escape, because a pool task must not throw.
  Result<QueryResponse> result = [&]() -> Result<QueryResponse> {
    try {
      return Execute(request, start, lifecycle.answered);
    } catch (...) {
      lifecycle.answered = false;
      return Status::Internal("query execution failed with an exception");
    }
  }();
  lifecycle.end = EngineClock::now();
  Account(request, result, lifecycle);
  return result;
}

Result<QueryResponse> QueryEngine::Execute(const QueryRequest& request,
                                           EngineClock::time_point start,
                                           bool& answered) {
  // Names the engine stage for CHECK failures outside the backend's phases.
  obs::ScopedPhaseName phase("engine_query");
  // Chaos hook for the serving path (docs/ROBUSTNESS.md): `error` makes
  // this request fail, `check` simulates an invariant violation inside
  // the engine — the postmortem-dump scenario in tools/chaos_test.cmake.
  SIMRANK_FAULT_POINT("service.query.exec");
  QueryResponse response;

  // Effective runtime options: per-request overrides over engine defaults.
  const uint32_t k = request.k.value_or(options_.search.k);
  const double threshold =
      request.threshold.value_or(options_.search.threshold);
  const BackendKind backend_kind = request.backend.value_or(primary_kind_);
  response.backend = backend_kind;

  // Stage 1: result cache. Keyed on the *effective* options — including
  // the backend identity, so a mixed-backend engine never serves one
  // backend's ranking for another backend's request.
  CacheKey key;
  const bool use_cache = cache_ != nullptr && !request.bypass_cache;
  if (use_cache) {
    key.vertices = request.vertices;
    key.group = request.is_group();
    key.k = k;
    key.threshold_bits = std::bit_cast<uint64_t>(threshold);
    key.backend = static_cast<uint8_t>(backend_kind);
    if (cache_->Lookup(key, &response.top)) {
      response.from_cache = true;
      answered = true;
      return response;
    }
  }

  // Stage 2: deadline admission. A request whose budget was eaten by queue
  // wait is answered without running anything.
  if (request.deadline.has_value() && start >= *request.deadline) {
    response.status = Status::DeadlineExceeded(
        "deadline expired before query execution started");
    return response;
  }

  // Stage 3: degradation. The admission controller decides quality —
  // from its SLO-feedback level or the queue-depth watermark — and the
  // engine applies it by dropping the refine pass to the rough sample
  // count: reported via `degraded`/`decision`, never silent, and the
  // result is never cached. Only the sampling backend has a cheaper
  // degraded mode; the deterministic backends have nothing to shed.
  QueryOverrides overrides{.k = request.k,
                           .threshold = request.threshold,
                           .refine_walks = std::nullopt};
  if (admission_ != nullptr && backend_kind == BackendKind::kMonteCarlo &&
      options_.search.refine_walks > options_.search.estimate_walks &&
      admission_->ExecutionDecision(request.priority) ==
          AdmissionDecision::kDegraded) {
    overrides.refine_walks = options_.search.estimate_walks;
    response.degraded = true;
    response.decision = AdmissionDecision::kDegraded;
  }

  // Stage 4: run the backend: at least one backend query runs.
  answered = true;
  const SearcherBackend& backend = GetOrCreateBackend(backend_kind);
  if (request.is_group()) {
    RunGroup(request, backend, overrides, k, response);
  } else {
    QueryResult result = backend.Query(request.vertices.front(), overrides);
    response.top = std::move(result.top);
    response.stats = result.stats;
  }
  if (response.status.ok() && use_cache && !response.degraded) {
    cache_->Insert(key, response.top);
  }
  return response;
}

void QueryEngine::Account(const QueryRequest& request,
                          Result<QueryResponse>& result,
                          const Lifecycle& lifecycle) {
  ServiceMetrics& metrics = GetServiceMetrics();
  const size_t cls = static_cast<size_t>(request.priority);
  const uint64_t duration_ns = Nanos(lifecycle.end - lifecycle.start);
  obs::QueryEvent event;
  event.start_ns = Nanos(lifecycle.start.time_since_epoch());
  event.duration_ns = duration_ns;
  event.queue_wait_ns = Nanos(lifecycle.start - lifecycle.enqueued);
  event.vertex = request.vertices.front();
  event.k = request.k.value_or(options_.search.k);
  event.group_size = static_cast<uint32_t>(request.vertices.size());
  event.mode = request.is_group() ? obs::QueryEventMode::kGroup
                                  : obs::QueryEventMode::kVertex;
  event.backend =
      static_cast<uint8_t>(request.backend.value_or(primary_kind_));
  event.priority = static_cast<uint8_t>(request.priority);
  event.client_hash = HashClientId(request.client_id);
  if (lifecycle.submitted) event.flags |= obs::kEventSubmitted;
  if (!result.ok()) {
    // An injected fault or a throw: no service.* counter counts it.
    event.status = static_cast<uint8_t>(result.status().code());
  } else {
    QueryResponse& response = result.value();
    response.queue_seconds = static_cast<double>(event.queue_wait_ns) / 1e9;
    response.engine_seconds = static_cast<double>(duration_ns) / 1e9;
    response.answered = lifecycle.answered;
    event.status = static_cast<uint8_t>(response.status.code());
    event.decision = static_cast<uint8_t>(response.decision);
    metrics.requests.Add(1);
    metrics.class_requests[cls]->Add(1);
    if (IsShed(response.decision)) {
      event.flags |= obs::kEventShed;
      metrics.shed.Add(1);
      metrics.class_shed[cls]->Add(1);
    } else {
      metrics.backend_requests[static_cast<size_t>(response.backend)]->Add(1);
      // Every executed non-OK response is a deadline: the engine's only
      // execution error.
      if (!response.status.ok()) metrics.deadline_exceeded.Add(1);
    }
    if (response.degraded) {
      event.flags |= obs::kEventDegraded;
      metrics.degraded.Add(1);
      metrics.class_degraded[cls]->Add(1);
    }
    if (response.from_cache) event.flags |= obs::kEventCacheHit;
    // What ran: zero when nothing did (a cache hit carries no stats), the
    // members that ran for a group.
    event.walks = response.stats.walks;
    event.phases = response.stats.phases;
  }
  if (lifecycle.answered) {
    metrics.latency_ns.Record(duration_ns);
    metrics.class_latency_ns[cls]->Record(duration_ns);
    if (admission_ != nullptr) {
      admission_->OnComplete(request.priority, duration_ns,
                             Seconds(lifecycle.end));
    }
  }
  event.query_id = obs::EventLog::Default().Record(event);
  if (result.ok()) result.value().query_id = event.query_id;
  obs::RollingWindow::Default().Record(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
                                lifecycle.end.time_since_epoch())
                                .count()),
      lifecycle.answered ? std::optional<uint64_t>(duration_ns)
                         : std::nullopt,
      event.flags, event.status);
  obs::SlowQueryLog& slow_log = obs::SlowQueryLog::Default();
  if (lifecycle.answered && slow_log.armed() &&
      duration_ns >= slow_log.threshold_ns()) {
    slow_log.Offer(obs::SlowQueryRecord{event, request.vertices});
  }
}

void QueryEngine::RunGroup(const QueryRequest& request,
                           const SearcherBackend& backend,
                           const QueryOverrides& overrides,
                           uint32_t effective_k, QueryResponse& response) {
  // Score-sum voting over the members' rankings, members excluded, with a
  // deadline check between members: on expiry the loop stops and the
  // ranking/stats of the members already run are the partial answer. The
  // first member runs on Execute's check at the start.
  std::vector<ScoredVertex> entries;
  size_t completed = 0;
  for (Vertex member : request.vertices) {
    if (completed > 0 && request.deadline.has_value() &&
        EngineClock::now() >= *request.deadline) {
      response.status = Status::DeadlineExceeded(
          "deadline expired after " + std::to_string(completed) + " of " +
          std::to_string(request.vertices.size()) + " group members");
      break;
    }
    const QueryResult member_result = backend.Query(member, overrides);
    response.stats += member_result.stats;
    entries.insert(entries.end(), member_result.top.begin(),
                   member_result.top.end());
    ++completed;
  }
  // A stable sort keeps each vertex's votes in member order, so the sums
  // do not depend on anything but the member order.
  std::ranges::stable_sort(entries, {}, &ScoredVertex::vertex);
  std::vector<Vertex> members = request.vertices;
  std::ranges::sort(members);
  TopKCollector collector(effective_k);
  for (auto run = entries.begin(); run != entries.end();) {
    const Vertex v = run->vertex;
    double votes = 0.0;
    for (; run != entries.end() && run->vertex == v; ++run) {
      votes += run->score;
    }
    if (votes > 0.0 && !std::ranges::binary_search(members, v)) {
      collector.Push(v, votes);
    }
  }
  response.top = collector.TakeSorted();
}

}  // namespace simrank::service
