// The repository benchmark: one served top-k workload per invocation.
//
// Every workload runs the same phases on its own graph and traffic, so
// every end-to-end metric is measured on every workload:
//   setup         QueryEngine::Create of a 1-worker engine (mc primary,
//                 exact built too), repeated, median reported;
//   closed mc     one client calling QueryEngine::Query, cache bypassed,
//                 query vertices uniform over vertices with an in-link;
//   batch         the same vertices through SubmitBatch on 4 workers;
//   closed exact  the exact backend on a prefix of the same vertices;
//   serve         open loop on a 3-worker engine with the result cache on,
//                 schedule from loadgen::GenerateArrivals, latency timed
//                 on the harness's clock from each request's due time to
//                 the moment its future is ready.
// The measured phases run interleaved in kRounds rounds, so that every
// metric samples the whole run: on a shared machine, contention from
// other tenants comes and goes over seconds. Percentiles are taken over
// the samples of all rounds. The open-loop schedule has one 2x burst, in
// the middle round's window.
// Untimed afterwards: the exact rankings are checked against
// LinearSimRank::TopK, and mc recall is measured against it on a fixed
// sample. With --trace 1 the run also replays mc queries layer by layer
// with spans (harness/replay.h) and times the index builds, and reports
// the per-layer metrics instead of the end-to-end ones.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. The exit code is 1 when a correctness check failed.

#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "harness/open_loop.h"
#include "harness/replay.h"
#include "harness/stats.h"
#include "harness/trace.h"
#include "loadgen/workload.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/query_engine.h"
#include "simrank/bounds.h"
#include "simrank/index.h"
#include "simrank/linear.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using simrank::ScoredVertex;
using simrank::Vertex;
using simrank::loadgen::Arrival;
using simrank::service::QueryEngine;
using simrank::service::QueryRequest;
using simrank::service::QueryResponse;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kBatchWorkers = 4;
constexpr uint32_t kServeWorkers = 3;
// Set-up is timed on a 1-worker engine. On a VM whose idle vCPUs are slow
// to wake, a multi-worker build shorter than about a second runs at
// serial speed or at parallel speed depending on how busy the machine
// was just before, so its time has two levels; the serial build has one.
constexpr uint32_t kSetupWorkers = 1;
constexpr size_t kNumClasses = simrank::service::kNumPriorityClasses;
constexpr int kRounds = 7;
// Shares of --seconds given to each measured phase.
constexpr double kClosedShare = 0.35;
constexpr double kExactShare = 0.15;
constexpr double kServeShare = 0.5;
constexpr double kTraceShare = 0.3;
constexpr uint64_t kRecallSampleSeed = 0x5EC411;
constexpr double kBurstMultiplier = 2.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Flags {
  std::string workload;
  std::string graph;
  double scale = 1.0;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setup_reps = 3;
  size_t min_exact = 10;
  size_t recall_queries = 100;
  double serve_rate = 100.0;
  double recall_floor = 0.0;
  std::string spans;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  if ((argc - 1) % 2 != 0) {
    std::fprintf(stderr, "error: flags come in --name value pairs\n");
    return false;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    const char* value = argv[i + 1];
    if (name == "--workload") {
      flags->workload = value;
    } else if (name == "--graph") {
      flags->graph = value;
    } else if (name == "--scale") {
      flags->scale = std::atof(value);
    } else if (name == "--seed") {
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (name == "--seconds") {
      flags->seconds = std::atof(value);
    } else if (name == "--trace") {
      flags->trace = std::atoi(value) != 0;
    } else if (name == "--setup-reps") {
      flags->setup_reps = std::atoi(value);
    } else if (name == "--min-exact") {
      flags->min_exact = std::strtoull(value, nullptr, 10);
    } else if (name == "--recall-queries") {
      flags->recall_queries = std::strtoull(value, nullptr, 10);
    } else if (name == "--serve-rate") {
      flags->serve_rate = std::atof(value);
    } else if (name == "--recall-floor") {
      flags->recall_floor = std::atof(value);
    } else if (name == "--spans") {
      flags->spans = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", name.c_str());
      return false;
    }
  }
  if (flags->graph.empty() || !(flags->seconds > 0.0) ||
      !(flags->scale > 0.0) || flags->setup_reps < 1 ||
      !(flags->serve_rate > 0.0)) {
    std::fprintf(stderr, "error: bad or missing flags\n");
    return false;
  }
  return true;
}

bool SameRanking(const std::vector<ScoredVertex>& a,
                 const std::vector<ScoredVertex>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || a[i].score != b[i].score) return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Named metrics in print order, with units.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    entries_.push_back({name, value, unit});
  }
  void Print(FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "%-32s %14.6f %s\n", e.name.c_str(), e.value, e.unit);
    }
  }
  void PrintJson(FILE* out) const {
    bool first = true;
    for (const Entry& e : entries_) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   first ? "" : ", ", e.name.c_str(), e.value, e.unit);
      first = false;
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> entries_;
};

/// Outcome counts of the run; every check failure is named.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void Check(bool ok, const std::string& name, const std::string& detail) {
    if (ok) return;
    check_failures.push_back(name);
    std::fprintf(stderr, "error: check %s failed: %s\n", name.c_str(),
                 detail.c_str());
  }
};

/// Counts a closed-loop response; returns it when OK.
const QueryResponse* CountResponse(
    const simrank::Result<QueryResponse>& result, Outcome& outcome) {
  ++outcome.attempted;
  if (!result.ok() || !result->ok()) {
    ++outcome.failed;
    return nullptr;
  }
  return &result.value();
}

/// The engine's own request counters (process-wide, in the default
/// metrics registry), read around the open-loop windows so the harness's
/// tally can be checked against what the engine says it did.
struct EngineCounters {
  uint64_t requests = 0, rejected = 0, shed = 0, deadline_exceeded = 0;
  std::array<uint64_t, kNumClasses> class_requests{};

  static EngineCounters Read() {
    simrank::obs::MetricsRegistry& registry =
        simrank::obs::MetricsRegistry::Default();
    EngineCounters c;
    c.requests = registry.GetCounter("service.requests").Value();
    c.rejected = registry.GetCounter("service.rejected").Value();
    c.shed = registry.GetCounter("service.shed").Value();
    c.deadline_exceeded =
        registry.GetCounter("service.deadline_exceeded").Value();
    for (size_t i = 0; i < kNumClasses; ++i) {
      c.class_requests[i] =
          registry
              .GetCounter(std::string("service.class.") +
                          simrank::service::PriorityClassName(
                              static_cast<simrank::service::PriorityClass>(i)) +
                          ".requests")
              .Value();
    }
    return c;
  }

  /// Adds after - before.
  void AddDelta(const EngineCounters& before, const EngineCounters& after) {
    requests += after.requests - before.requests;
    rejected += after.rejected - before.rejected;
    shed += after.shed - before.shed;
    deadline_exceeded += after.deadline_exceeded - before.deadline_exceeded;
    for (size_t i = 0; i < kNumClasses; ++i) {
      class_requests[i] += after.class_requests[i] - before.class_requests[i];
    }
  }
};

/// The open-loop phase, sent in windows of the schedule between the
/// closed-loop rounds. Each window starts its own clock; requests still
/// in flight at a window's end complete before the next phase, and no
/// other engine runs while a window does.
class ServeLoop {
 public:
  struct Totals {
    uint64_t arrivals = 0, ok = 0, shed = 0, deadline = 0, rejected = 0,
             error = 0, degraded = 0, cache_hits = 0;
    /// Arrivals the engine answered (anything but refused at Submit).
    std::array<uint64_t, kNumClasses> answered{};
    std::vector<double> interactive_ms, queue_ms, overhead_ms, late_ms;
    double wall_seconds = 0.0;
    EngineCounters engine;  // deltas over the windows
  };

  ServeLoop(QueryEngine& engine, std::vector<Arrival> arrivals)
      : engine_(engine), arrivals_(std::move(arrivals)) {
    totals_.arrivals = arrivals_.size();
  }

  /// Sends and collects the arrivals scheduled in [from, to) seconds.
  void RunWindow(double from, double to) {
    std::vector<double> due;
    const size_t first = next_;
    while (next_ < arrivals_.size() && arrivals_[next_].time_seconds < to) {
      due.push_back(arrivals_[next_].time_seconds - from);
      ++next_;
    }
    const EngineCounters before = EngineCounters::Read();
    const Clock::time_point origin = Clock::now();
    const auto now = [&] { return SecondsSince(origin); };
    const auto sleep_until = [&](double t) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(t)));
    };
    CompletionStamper<simrank::Result<QueryResponse>> stamper(due.size(),
                                                              origin);
    const std::vector<double> late =
        RunOpenLoop(due, now, sleep_until, [&](size_t i) {
          const Arrival& arrival = arrivals_[first + i];
          QueryRequest request = QueryRequest::ForGroup(arrival.vertices);
          request.priority = arrival.priority;
          request.client_id = "client-" + std::to_string(arrival.client);
          auto handle = engine_.Submit(std::move(request));
          if (handle.ok()) stamper.Add(i, std::move(handle.value()));
        });
    const std::vector<double>& done = stamper.Finish();
    totals_.wall_seconds += now();
    for (size_t i = 0; i < due.size(); ++i) {
      Collect(arrivals_[first + i], late[i], done[i] - due[i],
              stamper.future(i));
    }
    totals_.engine.AddDelta(before, EngineCounters::Read());
  }

  const Totals& totals() const { return totals_; }

 private:
  void Collect(const Arrival& arrival, double late, double latency,
               std::future<simrank::Result<QueryResponse>>* pending) {
    totals_.late_ms.push_back(late * 1e3);
    if (pending == nullptr) {
      ++totals_.rejected;
      return;
    }
    ++totals_.answered[static_cast<size_t>(arrival.priority)];
    const simrank::Result<QueryResponse> result = pending->get();
    if (!result.ok()) {
      ++totals_.error;
      return;
    }
    const QueryResponse& response = result.value();
    if (simrank::service::IsShed(response.decision)) {
      ++totals_.shed;
      return;
    }
    totals_.queue_ms.push_back(response.queue_seconds * 1e3);
    if (response.degraded) ++totals_.degraded;
    if (response.status.code() == simrank::StatusCode::kDeadlineExceeded) {
      ++totals_.deadline;
      return;
    }
    if (!response.ok()) {
      ++totals_.error;
      return;
    }
    ++totals_.ok;
    if (response.from_cache) {
      ++totals_.cache_hits;
    } else {
      totals_.overhead_ms.push_back(
          (response.engine_seconds - response.stats.seconds) * 1e3);
    }
    if (arrival.priority == simrank::service::PriorityClass::kInteractive) {
      totals_.interactive_ms.push_back(latency * 1e3);
    }
  }


  QueryEngine& engine_;
  const std::vector<Arrival> arrivals_;
  size_t next_ = 0;
  Totals totals_;
};

struct TraceTotals {
  std::map<std::string, std::vector<double>> phase_ms;  // per query
  std::vector<double> reached_frac;
  double query_seconds = 0.0, untraced_seconds = 0.0, traced_seconds = 0.0,
         phase_seconds = 0.0;
  size_t replays = 0, matches = 0;
  std::vector<Span> spans;
};

/// Replays the closed-loop vertices layer by layer. Each vertex runs
/// three ways -- TopKSearcher::Query, the untraced replay and the traced
/// replay -- in an order rotated per vertex so cache warmth is shared.
TraceTotals RunTrace(const simrank::TopKSearcher& searcher,
                     const std::vector<Vertex>& vertices, double budget) {
  TraceTotals totals;
  QueryReplayer replayer(searcher);
  SpanRecorder recorder;
  const double n = searcher.graph().NumVertices();
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < vertices.size(); ++i) {
    if (i >= 20 && SecondsSince(start) > budget) break;
    const Vertex v = vertices[i];
    simrank::QueryResult reference, traced;
    for (int step = 0; step < 3; ++step) {
      const Clock::time_point t0 = Clock::now();
      switch ((i + step) % 3) {
        case 0:
          reference = searcher.Query(v);
          totals.query_seconds += SecondsSince(t0);
          break;
        case 1:
          replayer.Replay(v, nullptr, static_cast<uint32_t>(i));
          totals.untraced_seconds += SecondsSince(t0);
          break;
        default:
          traced = replayer.Replay(v, &recorder, static_cast<uint32_t>(i));
          totals.traced_seconds += SecondsSince(t0);
          totals.reached_frac.push_back(replayer.last_reached() / n);
          break;
      }
    }
    ++totals.replays;
    if (SameRanking(reference.top, traced.top)) ++totals.matches;
  }
  totals.spans = recorder.spans();
  const std::vector<int64_t> self = SelfTimesNs(totals.spans);
  // Per-query self time of each phase; prune, rough and refine sum over
  // the query's candidates, and rough + refine form the estimate phase.
  std::map<std::string, std::vector<double>>& phase = totals.phase_ms;
  for (const char* name :
       {"bfs", "l1", "profile", "enumerate", "prune", "estimate"}) {
    phase[name].assign(totals.replays, 0.0);
  }
  for (size_t i = 0; i < totals.spans.size(); ++i) {
    const Span& span = totals.spans[i];
    std::string name = span.name;
    if (name == "rough" || name == "refine") name = "estimate";
    auto it = phase.find(name);
    if (it == phase.end()) continue;
    it->second[span.query] += self[i] * 1e-6;
    totals.phase_seconds += self[i] * 1e-9;
  }
  return totals;
}

std::unique_ptr<QueryEngine> CreateEngine(
    const simrank::DirectedGraph& graph,
    const simrank::service::EngineOptions& options) {
  auto created = QueryEngine::Create(graph, options);
  if (!created.ok()) {
    std::fprintf(stderr, "error: QueryEngine::Create: %s\n",
                 created.status().ToString().c_str());
    return nullptr;
  }
  return std::move(created.value());
}

int Run(const Flags& flags) {
  const std::optional<simrank::eval::DatasetSpec> spec =
      simrank::eval::FindDataset(flags.graph, flags.scale);
  if (!spec.has_value()) {
    std::fprintf(stderr, "error: unknown graph %s\n", flags.graph.c_str());
    return 2;
  }
  const simrank::DirectedGraph graph = simrank::eval::Generate(*spec);
  const uint32_t n = graph.NumVertices();
  std::vector<Vertex> with_in_links;
  for (Vertex v = 0; v < n; ++v) {
    if (graph.InDegree(v) > 0) with_in_links.push_back(v);
  }
  if (with_in_links.empty()) {
    std::fprintf(stderr, "error: graph has no vertex with an in-link\n");
    return 2;
  }
  const auto draw_vertex = [&](simrank::Rng& rng) {
    return with_in_links[rng.UniformIndex(
        static_cast<uint32_t>(with_in_links.size()))];
  };

  Outcome outcome;
  Report end_to_end;
  Report per_layer;

  // --- engines: the measured set-up repetitions are spread over the
  // rounds; the engines that serve the phases are built untimed ---
  simrank::service::EngineOptions options;  // default SearchOptions
  options.num_threads = kBatchWorkers;
  simrank::service::EngineOptions setup_options = options;
  setup_options.num_threads = kSetupWorkers;
  std::vector<double> setup_seconds;
  const auto timed_create = [&] {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<QueryEngine> created =
        CreateEngine(graph, setup_options);
    if (created == nullptr) return false;
    created->backend(simrank::BackendKind::kExact);
    setup_seconds.push_back(SecondsSince(t0));
    return true;
  };
  const std::unique_ptr<QueryEngine> engine = CreateEngine(graph, options);
  if (engine == nullptr) return 2;
  engine->backend(simrank::BackendKind::kExact);
  const uint64_t index_bytes =
      engine->backend(simrank::BackendKind::kMonteCarlo).MemoryBytes() +
      engine->backend(simrank::BackendKind::kExact).MemoryBytes();

  simrank::service::EngineOptions serve_options = options;
  serve_options.num_threads = kServeWorkers;
  const std::unique_ptr<QueryEngine> serve_engine =
      CreateEngine(graph, serve_options);
  if (serve_engine == nullptr) return 2;
  simrank::loadgen::WorkloadOptions traffic;  // default mix, Zipf s=0.8
  traffic.duration_seconds = flags.seconds * kServeShare;
  traffic.rate_qps = flags.serve_rate;
  const double window = traffic.duration_seconds / kRounds;
  // One burst, over the middle of the middle round's window.
  traffic.bursts.push_back({.start_seconds = window * (kRounds / 2 + 0.2),
                            .duration_seconds = 0.6 * window,
                            .rate_multiplier = kBurstMultiplier});
  simrank::Rng traffic_rng(simrank::MixSeeds(flags.seed, 0x5E7E));
  const simrank::loadgen::ZipfSampler popularity(n, traffic.zipf_exponent, n,
                                                 traffic_rng);
  ServeLoop serve(*serve_engine, simrank::loadgen::GenerateArrivals(
                                     traffic, n, popularity, traffic_rng));

  // --- measured phases, interleaved in rounds ---
  simrank::Rng query_rng(simrank::MixSeeds(flags.seed, 0x9E7));
  std::vector<Vertex> vertices;
  std::vector<std::vector<ScoredVertex>> mc_top;
  std::vector<double> mc_ms;
  simrank::QueryStats mc_stats;
  uint64_t mc_top_entries = 0;
  double batch_seconds = 0.0;
  size_t batch_mismatches = 0;
  std::vector<Vertex> exact_vertices;
  std::vector<std::vector<ScoredVertex>> exact_top;
  std::vector<double> exact_ms;
  const double closed_budget = flags.seconds * kClosedShare / kRounds;
  const double exact_budget = flags.seconds * kExactShare / kRounds;
  // Enough closed-loop queries for a p95 with 10 samples beyond it.
  const size_t closed_min = (SamplesForTail(0.95) + kRounds - 1) / kRounds;
  const size_t exact_min = (flags.min_exact + kRounds - 1) / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    while (setup_seconds.size() <
           static_cast<size_t>(flags.setup_reps) * (round + 1) / kRounds) {
      if (!timed_create()) return 2;
    }
    // Closed loop, mc. The cap stops a pathologically slow build from
    // running past the harness's time limit.
    const size_t first = vertices.size();
    Clock::time_point start = Clock::now();
    while ((vertices.size() - first < closed_min ||
            SecondsSince(start) < closed_budget) &&
           SecondsSince(start) < 4 * closed_budget + 12) {
      const Vertex v = draw_vertex(query_rng);
      const Clock::time_point t0 = Clock::now();
      const auto result =
          engine->Query(QueryRequest::ForVertex(v).WithBypassCache());
      const double ms = SecondsSince(t0) * 1e3;
      vertices.push_back(v);
      const QueryResponse* response = CountResponse(result, outcome);
      mc_top.push_back(response != nullptr ? response->top
                                           : std::vector<ScoredVertex>{});
      if (response == nullptr) continue;
      mc_ms.push_back(ms);
      mc_stats += response->stats;
      mc_top_entries += response->top.size();
    }

    // Batch: this round's vertices on the engine's workers.
    std::vector<QueryRequest> requests;
    for (size_t i = first; i < vertices.size(); ++i) {
      requests.push_back(
          QueryRequest::ForVertex(vertices[i]).WithBypassCache());
    }
    start = Clock::now();
    const auto results = engine->SubmitBatch(requests);
    batch_seconds += SecondsSince(start);
    for (size_t i = 0; i < results.size(); ++i) {
      const QueryResponse* response = CountResponse(results[i], outcome);
      if (response != nullptr &&
          !SameRanking(response->top, mc_top[first + i])) {
        ++batch_mismatches;
        ++outcome.failed;
      }
    }

    // Closed loop, exact, over the next of the same vertices.
    const size_t exact_first = exact_vertices.size();
    start = Clock::now();
    while (exact_vertices.size() < vertices.size() &&
           (exact_vertices.size() - exact_first < exact_min ||
            SecondsSince(start) < exact_budget)) {
      const Vertex v = vertices[exact_vertices.size()];
      const Clock::time_point t0 = Clock::now();
      const auto result = engine->Query(
          QueryRequest::ForVertex(v).WithBypassCache().WithBackend(
              simrank::BackendKind::kExact));
      const double ms = SecondsSince(t0) * 1e3;
      exact_vertices.push_back(v);
      const QueryResponse* response = CountResponse(result, outcome);
      exact_top.push_back(response != nullptr ? response->top
                                              : std::vector<ScoredVertex>{});
      if (response != nullptr) exact_ms.push_back(ms);
    }

    serve.RunWindow(window * round, window * (round + 1));
  }
  const double batch_qps = mc_top.size() / batch_seconds;
  outcome.Check(batch_mismatches == 0, "batch_matches_query",
                std::to_string(batch_mismatches) + " of " +
                    std::to_string(mc_top.size()) +
                    " SubmitBatch rankings differ from Query's");

  // --- untimed: exact rankings against the oracle ---
  const simrank::SearchOptions& search = options.search;
  const simrank::LinearSimRank oracle(
      graph, search.simrank, simrank::UniformDiagonal(n, search.simrank.decay));
  simrank::ThreadPool oracle_pool(kBatchWorkers);
  const auto oracle_top = [&](const std::vector<Vertex>& sample) {
    std::vector<std::vector<ScoredVertex>> truth(sample.size());
    simrank::ParallelFor(&oracle_pool, 0, sample.size(), [&](size_t i) {
      truth[i] = oracle.TopK(sample[i], search.k, search.threshold);
    });
    return truth;
  };
  {
    const auto truth = oracle_top(exact_vertices);
    size_t mismatches = 0;
    for (size_t i = 0; i < exact_vertices.size(); ++i) {
      if (!SameRanking(exact_top[i], truth[i])) {
        ++mismatches;
        ++outcome.failed;
      }
    }
    outcome.Check(mismatches == 0, "exact_matches_oracle",
                  std::to_string(mismatches) + " of " +
                      std::to_string(exact_vertices.size()) +
                      " exact-backend rankings differ from "
                      "LinearSimRank::TopK");
  }

  // --- untimed: recall of mc against the oracle on a fixed sample ---
  // The sample does not depend on --seed: mc rankings are deterministic,
  // so recall is a function of the code alone and any change is real.
  double recall = 0.0;
  {
    simrank::Rng sample_rng(kRecallSampleSeed);
    std::vector<Vertex> sample;
    std::vector<QueryRequest> requests;
    for (size_t i = 0; i < flags.recall_queries; ++i) {
      sample.push_back(draw_vertex(sample_rng));
      requests.push_back(
          QueryRequest::ForVertex(sample.back()).WithBypassCache());
    }
    const auto results = engine->SubmitBatch(requests);
    const auto truth = oracle_top(sample);
    uint64_t found = 0;
    uint64_t truth_total = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      const QueryResponse* response = CountResponse(results[i], outcome);
      truth_total += truth[i].size();
      if (response == nullptr) continue;
      // Pooled: oracle entries found by mc over all oracle entries.
      for (const ScoredVertex& t : truth[i]) {
        for (const ScoredVertex& p : response->top) {
          if (p.vertex == t.vertex) {
            ++found;
            break;
          }
        }
      }
    }
    recall = truth_total > 0 ? static_cast<double>(found) / truth_total : 1.0;
    char detail[128];
    std::snprintf(detail, sizeof(detail), "recall_at_20 %.4f < floor %.4f",
                  recall, flags.recall_floor);
    outcome.Check(recall >= flags.recall_floor, "recall_floor", detail);
  }

  // --- open-loop ledger: the harness's outcome counts against the
  // engine's own counters over the same windows ---
  const ServeLoop::Totals& served = serve.totals();
  outcome.attempted += served.arrivals;
  outcome.failed += served.arrivals - served.ok;
  {
    const EngineCounters& engine_saw = served.engine;
    std::string mismatches;
    const auto expect = [&](const std::string& what, uint64_t harness,
                            uint64_t engine_count) {
      if (harness == engine_count) return;
      mismatches += " " + what + ": harness " + std::to_string(harness) +
                    ", engine " + std::to_string(engine_count) + ";";
    };
    if (!simrank::obs::IsEnabled()) mismatches += " engine counters are off;";
    if (served.arrivals == 0) mismatches += " no arrivals;";
    expect("arrivals",
           served.ok + served.shed + served.deadline + served.rejected +
               served.error,
           served.arrivals);
    expect("answered",
           served.ok + served.shed + served.deadline + served.error,
           engine_saw.requests);
    expect("rejected", served.rejected, engine_saw.rejected);
    expect("shed", served.shed, engine_saw.shed);
    // The engine counts every non-OK executed response as a deadline.
    expect("deadline or error", served.deadline + served.error,
           engine_saw.deadline_exceeded);
    for (size_t i = 0; i < kNumClasses; ++i) {
      expect(std::string("answered ") +
                 simrank::service::PriorityClassName(
                     static_cast<simrank::service::PriorityClass>(i)),
             served.answered[i], engine_saw.class_requests[i]);
    }
    outcome.Check(mismatches.empty(), "arrivals_accounted",
                  "open-loop outcome counts disagree:" + mismatches);
  }

  // --- traced replay and index builds (trace mode only) ---
  if (flags.trace) {
    const simrank::TopKSearcher& searcher = engine->searcher();
    TraceTotals trace =
        RunTrace(searcher, vertices, flags.seconds * kTraceShare);
    const double queries = std::max<double>(1.0, mc_ms.size());
    const double enumerated = std::max<double>(
        1.0, static_cast<double>(mc_stats.candidates_enumerated));
    per_layer.Add("graph.bfs_ms", NearestRank(trace.phase_ms["bfs"], 0.5),
                  "ms");
    per_layer.Add("graph.bfs_reached_frac",
                  NearestRank(trace.reached_frac, 0.5), "frac");
    per_layer.Add("simrank.l1_ms", NearestRank(trace.phase_ms["l1"], 0.5),
                  "ms");
    per_layer.Add("simrank.prune_ms",
                  NearestRank(trace.phase_ms["prune"], 0.5), "ms");
    per_layer.Add("simrank.pruned_frac.distance",
                  mc_stats.pruned_by_distance / enumerated, "frac");
    per_layer.Add("simrank.pruned_frac.l1", mc_stats.pruned_by_l1 / enumerated,
                  "frac");
    per_layer.Add("simrank.pruned_frac.l2", mc_stats.pruned_by_l2 / enumerated,
                  "frac");
    per_layer.Add("simrank.enumerate_ms",
                  NearestRank(trace.phase_ms["enumerate"], 0.5), "ms");
    per_layer.Add("simrank.candidates_per_query",
                  mc_stats.candidates_enumerated / queries, "count");

    // Preprocess structures, built with BuildIndex's arguments on the
    // set-up engine's worker count.
    simrank::ThreadPool pool(kSetupWorkers);
    Clock::time_point t0 = Clock::now();
    const simrank::GammaTable gamma = simrank::GammaTable::BuildMonteCarlo(
        graph, search.simrank, searcher.diagonal(), search.gamma_walks,
        simrank::MixSeeds(search.seed, 0xA1505), &pool);
    per_layer.Add("simrank.gamma_build_s", SecondsSince(t0), "s");
    t0 = Clock::now();
    const simrank::CandidateIndex index(graph, search.simrank,
                                        search.index_params,
                                        simrank::MixSeeds(search.seed, 0x1DE8),
                                        &pool);
    per_layer.Add("simrank.index_build_s", SecondsSince(t0), "s");

    per_layer.Add("simrank.profile_ms",
                  NearestRank(trace.phase_ms["profile"], 0.5), "ms");
    per_layer.Add("simrank.estimate_ms",
                  NearestRank(trace.phase_ms["estimate"], 0.5), "ms");
    per_layer.Add("simrank.refined_per_query", mc_stats.refined / queries,
                  "count");
    // Every final top-k entry is a refined candidate.
    per_layer.Add("simrank.refine_useful_frac",
                  mc_stats.refined > 0
                      ? static_cast<double>(mc_top_entries) / mc_stats.refined
                      : 0.0,
                  "frac");

    std::vector<double> source_ms;
    for (size_t i = 0; i < exact_vertices.size() && i < 20; ++i) {
      t0 = Clock::now();
      const std::vector<double> row = oracle.SingleSource(exact_vertices[i]);
      source_ms.push_back(SecondsSince(t0) * 1e3);
    }
    per_layer.Add("simrank.exact_source_ms", NearestRank(source_ms, 0.5),
                  "ms");

    per_layer.Add("trace.coverage_frac",
                  trace.query_seconds > 0.0
                      ? trace.phase_seconds / trace.query_seconds
                      : 0.0,
                  "frac");
    per_layer.Add("trace.replay_match_frac",
                  static_cast<double>(trace.matches) /
                      std::max<size_t>(1, trace.replays),
                  "frac");
    per_layer.Add("trace.overhead_frac",
                  trace.untraced_seconds > 0.0
                      ? trace.traced_seconds / trace.untraced_seconds - 1.0
                      : 0.0,
                  "frac");
    per_layer.Add("trace.replayed_queries", static_cast<double>(trace.replays),
                  "count");

    const double arrivals = std::max<double>(1.0, served.arrivals);
    per_layer.Add("service.queue_p50_ms", NearestRank(served.queue_ms, 0.5),
                  "ms");
    per_layer.Add("service.queue_p99_ms", NearestRank(served.queue_ms, 0.99),
                  "ms");
    per_layer.Add("service.overhead_ms", NearestRank(served.overhead_ms, 0.5),
                  "ms");
    per_layer.Add("service.cache_hit_frac",
                  static_cast<double>(served.cache_hits) /
                      std::max<double>(1.0, served.ok),
                  "frac");
    per_layer.Add("service.degraded_frac", served.degraded / arrivals, "frac");
    per_layer.Add("service.shed_frac", served.shed / arrivals, "frac");
    per_layer.Add("bench.late_p99_ms", NearestRank(served.late_ms, 0.99),
                  "ms");
    if (!flags.spans.empty() && !WriteSpans(trace.spans, flags.spans)) {
      std::fprintf(stderr, "warning: could not write spans to %s\n",
                   flags.spans.c_str());
    }
  }

  end_to_end.Add("setup_s", NearestRank(setup_seconds, 0.5), "s");
  end_to_end.Add("index_mb", index_bytes / (1024.0 * 1024.0), "MB");
  end_to_end.Add("peak_rss_mb", PeakRssMb(), "MB");
  end_to_end.Add("query_p50_ms", NearestRank(mc_ms, 0.5), "ms");
  end_to_end.Add("query_p95_ms", NearestRank(mc_ms, 0.95), "ms");
  end_to_end.Add("batch_qps", batch_qps, "1/s");
  end_to_end.Add("recall_at_20", recall, "frac");
  end_to_end.Add("exact_p50_ms", NearestRank(exact_ms, 0.5), "ms");
  end_to_end.Add("exact_p95_ms", NearestRank(exact_ms, 0.95), "ms");
  end_to_end.Add("serve_p50_ms", NearestRank(served.interactive_ms, 0.5),
                 "ms");
  end_to_end.Add("serve_p99_ms", NearestRank(served.interactive_ms, 0.99),
                 "ms");
  end_to_end.Add("serve_goodput_qps",
                 served.wall_seconds > 0.0 ? served.ok / served.wall_seconds
                                           : 0.0,
                 "1/s");

  // Human-readable summary, then the result line.
  std::printf("workload %s seed %" PRIu64 " (%s, n=%u, m=%" PRIu64 ")\n",
              flags.workload.c_str(), flags.seed, spec->name.c_str(), n,
              graph.NumEdges());
  std::printf(
      "samples over %d rounds: mc %zu, exact %zu, serve interactive %zu "
      "(highest percentile with 10 samples beyond: mc p%.2f, exact p%.2f, "
      "serve p%.2f); recall sample %zu; setup reps %zu\n",
      kRounds, mc_ms.size(), exact_ms.size(), served.interactive_ms.size(),
      100.0 * TailFraction(mc_ms.size()), 100.0 * TailFraction(exact_ms.size()),
      100.0 * TailFraction(served.interactive_ms.size()), flags.recall_queries,
      setup_seconds.size());
  end_to_end.Print(stdout);
  std::printf("%-32s %14.6f %s\n", "failed_frac",
              outcome.attempted > 0
                  ? static_cast<double>(outcome.failed) / outcome.attempted
                  : 0.0,
              "frac");
  if (flags.trace) per_layer.Print(stdout);
  const bool correct = outcome.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", outcome.attempted, outcome.failed);
  (flags.trace ? per_layer : end_to_end).PrintJson(stdout);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) return 2;
  return perfbench::Run(flags);
}
