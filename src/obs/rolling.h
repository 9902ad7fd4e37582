#ifndef SIMRANK_OBS_ROLLING_H_
#define SIMRANK_OBS_ROLLING_H_

// Rolling time-bucketed service-level windows (docs/OBSERVABILITY.md,
// "Per-query events").
//
// Process-lifetime histograms (metrics.h) only ever grow, so "p99 over
// the last minute" — the quantity an SLO is written against — cannot be
// read from them. RollingWindow keeps N wall-second buckets (default
// 60 x 1 s) of request counts, error/shed/degraded counts and a
// log-linear latency histogram (the same bucketing as obs::Histogram),
// reusing each bucket ring-style as time advances. Latency percentiles
// rank the latency samples only: a request recorded without one (shed,
// or expired before it started) counts toward the rates, not the
// latency. Declared SloSpec objectives are evaluated over the in-window
// buckets and published as `service.slo.<name>.ok` / `.value_us` /
// `.value_ppm` gauges in MetricsRegistry::Default() (updated on bucket
// rollover and on every Snapshot/UpdateGauges call).
//
// Time is passed in explicitly as integer seconds (steady clock; see
// NowSecond) so tests can drive the window with a synthetic clock.
//
// Thread-safety: all methods may race freely (one Mutex; Record holds it
// for a few dozen loads/stores once per query).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace simrank::obs {

/// One service-level objective, evaluated per window.
struct SloSpec {
  enum class Objective {
    kLatencyP50,    ///< windowed p50 latency <= threshold seconds
    kLatencyP95,    ///< windowed p95 latency <= threshold seconds
    kLatencyP99,    ///< windowed p99 latency <= threshold seconds
    kErrorRate,     ///< non-OK fraction <= threshold
    kShedRate,      ///< load-shed fraction <= threshold
    kDegradedRate,  ///< degraded fraction <= threshold
  };

  /// Gauge-name component (`service.slo.<name>.*`): [a-z0-9_]+ only.
  std::string name;
  Objective objective = Objective::kLatencyP99;
  /// Seconds for latency objectives, fraction in [0, 1] for rates.
  double threshold = 0.0;
};

/// Stable token for an objective ("latency_p99", "error_rate", ...).
const char* SloObjectiveName(SloSpec::Objective objective);

/// One evaluated objective. An objective with no samples in the window
/// is met vacuously (ok = true, samples = 0).
struct SloResult {
  SloSpec spec;
  double value = 0.0;  ///< seconds for latency, fraction for rates
  bool ok = true;
  /// Latency samples for latency objectives, requests for rates.
  uint64_t samples = 0;
};

/// Plain copy of one time bucket.
struct WindowBucket {
  uint64_t second = 0;  ///< bucket start (aligned to bucket_seconds)
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t cache_hits = 0;
  uint64_t latency_sum_ns = 0;  ///< over the latency samples
  uint64_t latency_max_ns = 0;
};

/// Point-in-time view of the whole window.
struct WindowSnapshot {
  uint64_t now_second = 0;
  uint32_t bucket_seconds = 1;
  uint32_t num_buckets = 0;
  /// Non-empty in-window buckets, oldest first.
  std::vector<WindowBucket> buckets;
  /// Totals over `buckets`.
  uint64_t count = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t degraded = 0;
  uint64_t cache_hits = 0;
  uint64_t latency_sum_ns = 0;
  uint64_t latency_max_ns = 0;
  double latency_p50_ns = 0.0;
  double latency_p95_ns = 0.0;
  double latency_p99_ns = 0.0;
  std::vector<SloResult> slos;
};

class RollingWindow {
 public:
  /// The process-wide window the serving layer records into (leaky
  /// singleton); the postmortem dump snapshots this instance.
  static RollingWindow& Default();

  explicit RollingWindow(uint32_t num_buckets = 60,
                         uint32_t bucket_seconds = 1);

  RollingWindow(const RollingWindow&) = delete;
  RollingWindow& operator=(const RollingWindow&) = delete;

  /// Replaces the evaluated objectives and (re)binds their gauges, which
  /// are updated immediately (vacuously ok on an empty window). The
  /// process that owns the window sets them (a CLI tool, a test): engines
  /// only record into it. InvalidArgument, changing nothing, unless every
  /// spec has a [a-z0-9_]+ name and a finite threshold >= 0.
  Status SetSlos(std::vector<SloSpec> slos) SIMRANK_EXCLUDES(mutex_);
  std::vector<SloSpec> slos() const SIMRANK_EXCLUDES(mutex_);

  /// Accounts one finished request into the bucket of `now_second`.
  /// `latency_ns` is its latency sample, nullopt for a request that gave
  /// none. `flags` is QueryEvent::flags, `status` its StatusCode (non-OK
  /// counts as an error). No-op when obs is disabled.
  void Record(uint64_t now_second, std::optional<uint64_t> latency_ns,
              uint8_t flags, uint8_t status) SIMRANK_EXCLUDES(mutex_);

  /// The in-window buckets, their totals/percentiles, and every SLO
  /// evaluated at `now_second` (gauges are refreshed as a side effect).
  WindowSnapshot Snapshot(uint64_t now_second) const
      SIMRANK_EXCLUDES(mutex_);

  /// Re-evaluates the SLOs and refreshes the gauges without building a
  /// snapshot (e.g. before a tool writes its final metrics snapshot).
  void UpdateGauges(uint64_t now_second) const SIMRANK_EXCLUDES(mutex_);

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t bucket_seconds() const { return bucket_seconds_; }
  /// Seconds of history the window can hold.
  uint64_t span_seconds() const {
    return static_cast<uint64_t>(num_buckets_) * bucket_seconds_;
  }

  /// Drops all buckets (keeps the SLO specs; tests).
  void Clear() SIMRANK_EXCLUDES(mutex_);

  /// Steady-clock seconds (the timebase Record expects).
  static uint64_t NowSecond();

 private:
  struct Bucket {
    uint64_t second = 0;  ///< aligned start second; valid iff used
    bool used = false;
    uint64_t count = 0;
    uint64_t errors = 0;
    uint64_t shed = 0;
    uint64_t degraded = 0;
    uint64_t cache_hits = 0;
    uint64_t latency_sum_ns = 0;
    uint64_t latency_max_ns = 0;
    /// Log-linear latency counts (obs::Histogram bucketing).
    uint64_t latency_hist[Histogram::kNumBuckets] = {};
  };

  struct BoundGauges {
    Gauge* ok = nullptr;
    Gauge* value = nullptr;  ///< .value_us (latency) or .value_ppm (rate)
  };

  uint64_t AlignedSecond(uint64_t second) const {
    return second - second % bucket_seconds_;
  }
  bool InWindow(uint64_t bucket_second, uint64_t now_second) const {
    const uint64_t now_aligned = AlignedSecond(now_second);
    return bucket_second <= now_aligned &&
           bucket_second + span_seconds() > now_aligned;
  }

  /// Aggregates the in-window buckets and evaluates the SLOs.
  WindowSnapshot SnapshotLocked(uint64_t now_second) const
      SIMRANK_REQUIRES(mutex_);
  void PublishLocked(const WindowSnapshot& snapshot) const
      SIMRANK_REQUIRES(mutex_);

  const uint32_t num_buckets_;
  const uint32_t bucket_seconds_;
  mutable Mutex mutex_;
  std::vector<Bucket> buckets_ SIMRANK_GUARDED_BY(mutex_);
  std::vector<SloSpec> slos_ SIMRANK_GUARDED_BY(mutex_);
  std::vector<BoundGauges> gauges_ SIMRANK_GUARDED_BY(mutex_);
};

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_ROLLING_H_
