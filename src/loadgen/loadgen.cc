#include "loadgen/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/rolling.h"
#include "util/rng.h"

namespace simrank::loadgen {

namespace {

using service::PriorityClass;
using service::QueryRequest;
using service::QueryResponse;

/// Collection backpressure bound: when this many submissions are
/// uncollected, the generator drains the oldest before sending more.
/// Bounds generator memory without closing the loop: the schedule never
/// waits on the engine unless the engine is this far behind.
constexpr size_t kMaxUncollected = 4096;

/// Exact percentile of an unsorted sample set (sorts a copy the caller
/// already owns; nearest-rank estimator).
double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  const size_t index = std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1);
  return sorted[index];
}

/// Per-class accumulator folded from completed responses.
struct ClassAccumulator {
  ClassReport report;
  std::vector<double> latencies;

  void Fold(const Result<QueryResponse>& result) {
    if (!result.ok()) {
      ++report.rejected;
      return;
    }
    const QueryResponse& response = result.value();
    if (service::IsShed(response.decision)) {
      ++report.shed;
      return;
    }
    // The engine's own verdict: a request that expired before it started
    // ran nothing, and its engine time is no latency.
    if (response.answered) {
      latencies.push_back(response.engine_seconds);
      report.max_seconds =
          std::max(report.max_seconds, response.engine_seconds);
    }
    if (response.degraded) ++report.degraded;
    if (response.from_cache) ++report.cache_hits;
    if (response.status.ok()) {
      ++report.completed;
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++report.deadline;
    }
  }

  ClassReport Finish() {
    std::sort(latencies.begin(), latencies.end());
    report.p50_seconds = Percentile(latencies, 0.50);
    report.p99_seconds = Percentile(latencies, 0.99);
    report.p999_seconds = Percentile(latencies, 0.999);
    return report;
  }
};

QueryRequest BuildRequest(const Arrival& arrival,
                          const LoadGenOptions& options) {
  QueryRequest request;
  request.vertices = arrival.vertices;
  request.priority = arrival.priority;
  request.client_id = "client-" + std::to_string(arrival.client);
  if (arrival.priority == PriorityClass::kInteractive &&
      options.interactive_deadline_seconds > 0.0) {
    request.deadline =
        service::EngineClock::now() +
        std::chrono::duration_cast<service::EngineClock::duration>(
            std::chrono::duration<double>(
                options.interactive_deadline_seconds));
  }
  return request;
}

}  // namespace

LoadGenerator::LoadGenerator(service::QueryEngine& engine,
                             LoadGenOptions options)
    : engine_(engine), options_(std::move(options)) {}

Result<LoadReport> LoadGenerator::Run() {
  SIMRANK_RETURN_IF_ERROR(options_.Validate());
  Rng rng(options_.seed);
  const uint32_t n = static_cast<uint32_t>(engine_.graph().NumVertices());
  if (n == 0) return Status::InvalidArgument("engine graph has no vertices");
  const ZipfSampler popularity(options_.workload.popularity_universe,
                               options_.workload.zipf_exponent, n, rng);
  const std::vector<Arrival> schedule =
      GenerateArrivals(options_.workload, n, popularity, rng);

  if (options_.prewarm > 0) {
    const std::vector<Vertex> head = popularity.Head(options_.prewarm);
    engine_.PrewarmCache(head);
  }

  ClassAccumulator accumulators[service::kNumPriorityClasses];
  struct Pending {
    std::future<Result<QueryResponse>> future;
    PriorityClass priority;
  };
  std::deque<Pending> pending;
  const auto drain_one = [&] {
    Pending& oldest = pending.front();
    accumulators[static_cast<size_t>(oldest.priority)].Fold(
        oldest.future.get());
    pending.pop_front();
  };

  const auto start = service::EngineClock::now();
  for (const Arrival& arrival : schedule) {
    // Open loop: sleep until the scheduled offset. A generator running
    // behind schedule (the engine is irrelevant — this is scheduling
    // overhead only) fires immediately and the backlog lands on the
    // engine, which is exactly the overload being measured.
    const auto due =
        start + std::chrono::duration_cast<service::EngineClock::duration>(
                    std::chrono::duration<double>(arrival.time_seconds));
    if (service::EngineClock::now() < due) std::this_thread::sleep_until(due);

    QueryRequest request = BuildRequest(arrival, options_);
    const size_t cls = static_cast<size_t>(arrival.priority);
    ++accumulators[cls].report.sent;
    Result<std::future<Result<QueryResponse>>> handle =
        engine_.Submit(std::move(request));
    if (!handle.ok()) {
      ++accumulators[cls].report.rejected;
    } else {
      pending.push_back({std::move(handle.value()), arrival.priority});
    }
    while (pending.size() >= kMaxUncollected) drain_one();
  }
  while (!pending.empty()) drain_one();
  const double wall_seconds =
      std::chrono::duration<double>(service::EngineClock::now() - start)
          .count();

  LoadReport report;
  report.arrivals = schedule.size();
  report.wall_seconds = wall_seconds;
  report.offered_qps =
      static_cast<double>(schedule.size()) / options_.workload.duration_seconds;
  report.interactive =
      accumulators[static_cast<size_t>(PriorityClass::kInteractive)].Finish();
  report.batch =
      accumulators[static_cast<size_t>(PriorityClass::kBatch)].Finish();
  const uint64_t executed_ok =
      report.interactive.completed + report.batch.completed;
  report.achieved_qps =
      wall_seconds > 0.0 ? static_cast<double>(executed_ok) / wall_seconds
                         : 0.0;
  if (obs::IsEnabled()) {
    // The SLOs the process set on the window, evaluated over it.
    report.slos = obs::RollingWindow::Default()
                      .Snapshot(obs::RollingWindow::NowSecond())
                      .slos;
    for (const obs::SloResult& slo : report.slos) {
      if (!slo.ok) report.slos_ok = false;
    }
  }
  return report;
}

Result<SustainableQps> FindMaxSustainableQps(service::QueryEngine& engine,
                                             const LoadGenOptions& base,
                                             double target_p99_seconds,
                                             double max_shed_rate,
                                             double step_duration_seconds,
                                             int max_steps) {
  if (!(step_duration_seconds > 0.0) || max_steps < 1) {
    return Status::InvalidArgument(
        "FindMaxSustainableQps: step duration must be > 0 and max_steps "
        ">= 1");
  }
  SustainableQps result;
  double qps = base.workload.rate_qps;
  for (int step = 0; step < max_steps; ++step) {
    LoadGenOptions options = base;
    options.workload.rate_qps = qps;
    options.workload.duration_seconds = step_duration_seconds;
    options.workload.bursts.clear();  // the ramp itself is the burst
    options.seed = MixSeeds(base.seed, static_cast<uint64_t>(step) + 1);
    LoadGenerator generator(engine, options);
    Result<LoadReport> run = generator.Run();
    SIMRANK_RETURN_IF_ERROR(run.status());
    const ClassReport& interactive = run.value().interactive;
    const double shed_rate =
        interactive.sent > 0
            ? static_cast<double>(interactive.shed) /
                  static_cast<double>(interactive.sent)
            : 0.0;
    const bool latency_ok = target_p99_seconds <= 0.0 ||
                            interactive.p99_seconds <= target_p99_seconds;
    const bool shed_ok = shed_rate <= max_shed_rate;
    const bool sustainable = latency_ok && shed_ok;
    result.steps.push_back(
        {qps, sustainable, interactive.p99_seconds, shed_rate});
    if (!sustainable) break;
    result.max_qps = qps;
    result.at_max = std::move(run.value());
    qps *= 2.0;
  }
  return result;
}

}  // namespace simrank::loadgen
