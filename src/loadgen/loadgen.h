#ifndef SIMRANK_LOADGEN_LOADGEN_H_
#define SIMRANK_LOADGEN_LOADGEN_H_

// Open-loop load generator over a QueryEngine (docs/SERVING.md).
//
// The generator materializes the whole arrival schedule up front
// (workload.h), optionally prewarms the engine's cache with the head of
// the popularity distribution, then replays the schedule against the
// wall clock: each arrival is Submit()ed at its scheduled time whether
// or not earlier requests have finished. Completions are collected on
// the way and folded into per-priority-class latency/outcome stats —
// exact percentiles over the run's own samples (the run is bounded, so
// keeping every latency is cheap), independent of the obs layer.
//
// FindMaxSustainableQps ramps the offered rate geometrically until the
// interactive class breaches the declared SLO (p99 target or shed-rate
// ceiling) and reports the last sustainable step — the headline number
// of the BENCH_serving.json artifact.

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen/workload.h"
#include "service/query_engine.h"

namespace simrank::loadgen {

struct LoadGenOptions {
  WorkloadOptions workload;
  /// Seed of the whole run: schedule, popularity permutation and every
  /// sample derive from it, so a run is replayable bit-for-bit.
  uint64_t seed = 1;
  /// Prewarm the engine cache with this many most-popular vertices
  /// before the clock starts (0 = no prewarming).
  size_t prewarm = 0;
  /// Per-request deadline applied to interactive arrivals (seconds);
  /// 0 = no deadline.
  double interactive_deadline_seconds = 0.0;

  Status Validate() const {
    SIMRANK_RETURN_IF_ERROR(workload.Validate());
    if (!(interactive_deadline_seconds >= 0.0)) {
      return Status::InvalidArgument(
          "LoadGenOptions::interactive_deadline_seconds must be >= 0");
    }
    return Status::OK();
  }
};

/// Outcome counts and exact latency percentiles for one priority class.
struct ClassReport {
  uint64_t sent = 0;       ///< arrivals submitted
  uint64_t completed = 0;  ///< responses with OK status
  uint64_t degraded = 0;   ///< ran with the rough refine pass
  uint64_t shed = 0;       ///< refused by admission control (Unavailable)
  uint64_t deadline = 0;   ///< DeadlineExceeded responses
  uint64_t rejected = 0;   ///< invalid before execution (should be 0)
  uint64_t cache_hits = 0;
  /// Engine-side latency percentiles over executed (non-shed) requests,
  /// in seconds. 0 when nothing executed.
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double max_seconds = 0.0;
};

/// One finished open-loop run.
struct LoadReport {
  double offered_qps = 0.0;    ///< scheduled arrivals / duration
  double achieved_qps = 0.0;   ///< executed (non-shed) OK / wall time
  double wall_seconds = 0.0;   ///< actual run wall time
  uint64_t arrivals = 0;
  ClassReport interactive;
  ClassReport batch;
  /// SLO verdicts from the engine's rolling window at run end (empty
  /// when the engine declares no SLOs or obs is disabled).
  std::vector<obs::SloResult> slos;
  bool slos_ok = true;  ///< every declared SLO held at run end
};

class LoadGenerator {
 public:
  /// The engine must outlive the generator. Options are validated by
  /// Run (Result, not CHECK).
  LoadGenerator(service::QueryEngine& engine, LoadGenOptions options);

  /// Executes one open-loop run: generate schedule, prewarm, replay,
  /// collect. Blocking; returns the aggregated report.
  Result<LoadReport> Run();

 private:
  service::QueryEngine& engine_;
  LoadGenOptions options_;
};

/// Result of the sustainable-QPS ramp.
struct SustainableQps {
  /// Highest offered rate whose run held the SLO (0 when even the
  /// starting rate breached).
  double max_qps = 0.0;
  /// The report of the last sustainable step (default when max_qps 0).
  LoadReport at_max;
  /// Every step tried: offered rate and whether it held.
  struct Step {
    double qps = 0.0;
    bool sustainable = false;
    double p99_seconds = 0.0;
    double shed_rate = 0.0;
  };
  std::vector<Step> steps;
};

/// Ramps `base.workload.rate_qps` geometrically (x2 per step, up to
/// `max_steps`) and reports the last rate at which the interactive
/// class held `target_p99_seconds` (when > 0) and shed at most
/// `max_shed_rate` of its traffic. Each step reuses `base` with only
/// the rate and duration (`step_duration_seconds`) replaced, and a
/// step-specific seed derived from base.seed.
Result<SustainableQps> FindMaxSustainableQps(service::QueryEngine& engine,
                                             const LoadGenOptions& base,
                                             double target_p99_seconds,
                                             double max_shed_rate,
                                             double step_duration_seconds,
                                             int max_steps);

}  // namespace simrank::loadgen

#endif  // SIMRANK_LOADGEN_LOADGEN_H_
