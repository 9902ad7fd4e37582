#ifndef SIMRANK_OBS_METRICS_H_
#define SIMRANK_OBS_METRICS_H_

// Process-wide metrics: monotonic counters, gauges, and log-scale
// histograms, collected in a thread-safe MetricsRegistry.
//
// Design constraints (docs/OBSERVABILITY.md):
//  - The hot path (Counter::Add, Histogram::Record) is lock-free: a
//    relaxed atomic add, no mutex, no allocation. The registry mutex is
//    only taken when a metric is first looked up by name; call sites
//    cache the returned reference (typically in a function-local static).
//  - Everything is TSan-clean: all shared mutable state is std::atomic
//    or mutex-guarded.
//  - Snapshots are approximate under concurrent writers (each atomic is
//    read independently); quiesce writers for exact numbers.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank::obs {

/// Global kill switch. When disabled, Counter::Add / Gauge writes /
/// Histogram::Record are no-ops (one relaxed load + branch). Used by
/// benches to measure the instrumentation overhead itself; defaults on.
void SetEnabled(bool enabled);
bool IsEnabled();

namespace internal {
inline std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}
}  // namespace internal

/// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (bytes held, configured sizes, ...).
class Gauge {
 public:
  void Set(int64_t value) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Aggregated percentile view of one histogram, produced by Snapshot().
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Log-scale histogram of non-negative 64-bit values (latencies in
/// nanoseconds, sample counts, sizes). Log-linear bucketing in the style
/// of HdrHistogram: values below 2^kSubBits are exact, above that each
/// power-of-two range is split into kSubBuckets linear sub-buckets, so
/// the relative quantization error is bounded by 1/kSubBuckets ~ 12.5%
/// (the reported representative is the bucket midpoint, halving that).
/// Recording is a relaxed atomic add; no allocation after construction.
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint32_t kSubBuckets = 1u << kSubBits;
  static constexpr uint32_t kNumBuckets = (64 - kSubBits) * kSubBuckets +
                                          kSubBuckets;  // 496

  void Record(uint64_t value) {
    if (!internal::EnabledFlag().load(std::memory_order_relaxed)) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  /// Records a duration as integer nanoseconds (negative clamps to 0).
  void RecordSeconds(double seconds) {
    Record(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Value at percentile p in [0, 100] (PercentileOf over the buckets).
  double Percentile(double p) const;

  /// Value at percentile p in [0, 100] of log-linear bucket counts: the
  /// representative (midpoint) of the bucket holding the
  /// rank-ceil(p/100 * total) smallest sample, where total is the sum of
  /// `counts`. Returns 0 when every count is 0. The one percentile walk:
  /// rolling windows and the admission controller rank their own bucket
  /// counts with it too.
  static double PercentileOf(const uint64_t (&counts)[kNumBuckets], double p);

  /// Count / sum / max / mean / p50 / p95 / p99 in one consistent-ish read.
  HistogramSnapshot Snapshot() const;

  void Reset();

  /// Bucket index of `value` (exposed for tests).
  static uint32_t BucketIndex(uint64_t value);
  /// Midpoint representative of bucket `index` (exposed for tests).
  static double BucketRepresentative(uint32_t index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Full registry snapshot: plain values, safe to print/serialize.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Name -> metric map. Lookup is mutex-guarded; returned references are
/// stable for the registry's lifetime (metrics are never removed), so the
/// idiomatic hot-path pattern is
///
///   static obs::Counter& walks =
///       obs::MetricsRegistry::Default().GetCounter("mc.walks_started");
///   walks.Add(n);
///
/// Names follow the scheme "<component>.<noun>[_<unit>]" — see
/// docs/OBSERVABILITY.md.
class MetricsRegistry {
 public:
  /// The process-wide registry all library instrumentation reports to.
  /// Never destroyed (leaky singleton), so it is safe to touch from
  /// static destructors.
  static MetricsRegistry& Default();

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates; one name maps to one metric kind forever (using
  /// the same name for two kinds is a CHECK failure).
  Counter& GetCounter(std::string_view name) SIMRANK_EXCLUDES(mutex_);
  Gauge& GetGauge(std::string_view name) SIMRANK_EXCLUDES(mutex_);
  Histogram& GetHistogram(std::string_view name) SIMRANK_EXCLUDES(mutex_);

  /// A gauge whose value is computed at Snapshot() time (for cheap
  /// externally-maintained counters, e.g. WalkCounter::TotalGrows()).
  void RegisterCallbackGauge(std::string_view name,
                             std::function<int64_t()> callback)
      SIMRANK_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() const SIMRANK_EXCLUDES(mutex_);

  /// Zeroes every counter/gauge/histogram (callback gauges excluded:
  /// their source owns the state). For tests and bench warmup isolation.
  void ResetAll() SIMRANK_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  /// The maps hold the metrics; the *pointed-to* metrics are lock-free
  /// and intentionally written outside the registry mutex, so only the
  /// map structure itself is guarded.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      SIMRANK_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      SIMRANK_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      SIMRANK_GUARDED_BY(mutex_);
  std::map<std::string, std::function<int64_t()>, std::less<>> callbacks_
      SIMRANK_GUARDED_BY(mutex_);
};

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_METRICS_H_
