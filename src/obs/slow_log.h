#ifndef SIMRANK_OBS_SLOW_LOG_H_
#define SIMRANK_OBS_SLOW_LOG_H_

// Slow-query log (docs/OBSERVABILITY.md, "Per-query events").
//
// Histograms say *that* a latency tail exists; this log keeps exemplars
// of *which* queries formed it: every query slower than a configurable
// threshold is offered here with its flight-recorder event (phase
// timings included) and its vertex set, and a bounded reservoir retains
// the top-N slowest. The threshold, not the traffic rate, bounds the
// cost of an armed log; disarmed (threshold 0) it is one relaxed atomic
// load per query.
//
// Thread-safety: Offer/Snapshot/Configure may race freely (one Mutex on
// the slow path only; the armed check is lock-free).

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank::obs {

/// One retained slow query: its flight-recorder event, which carries the
/// per-phase timings, and the full query vertex set.
struct SlowQueryRecord {
  QueryEvent event;
  std::vector<uint32_t> vertices;
};

class SlowQueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 16;

  /// The process-wide log the serving layer offers into (leaky singleton);
  /// read by the `--events-json` exporter.
  static SlowQueryLog& Default();

  explicit SlowQueryLog(size_t capacity = kDefaultCapacity);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Sets the slow threshold (ns) and reservoir size. threshold_ns == 0
  /// disarms the log. capacity is clamped to >= 1.
  void Configure(uint64_t threshold_ns, size_t capacity)
      SIMRANK_EXCLUDES(mutex_);

  /// True when the log retains records (obs enabled, threshold
  /// non-zero). Lock-free; engines call this per query before building a
  /// record.
  bool armed() const {
    return threshold_ns_.load(std::memory_order_relaxed) != 0 && IsEnabled();
  }
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Retains the record if it is slower than the threshold and among the
  /// top-N slowest seen (evicting the fastest retained one when full).
  /// Returns true when retained.
  bool Offer(SlowQueryRecord record) SIMRANK_EXCLUDES(mutex_);

  /// The retained records, slowest first (copies).
  std::vector<SlowQueryRecord> Snapshot() const SIMRANK_EXCLUDES(mutex_);

  size_t size() const SIMRANK_EXCLUDES(mutex_);
  size_t capacity() const SIMRANK_EXCLUDES(mutex_);

  /// Drops every retained record (keeps the configuration; tests).
  void Clear() SIMRANK_EXCLUDES(mutex_);

 private:
  std::atomic<uint64_t> threshold_ns_{0};
  mutable Mutex mutex_;
  size_t capacity_ SIMRANK_GUARDED_BY(mutex_);
  /// Unordered; Snapshot sorts by duration. Bounded by capacity_.
  std::vector<SlowQueryRecord> records_ SIMRANK_GUARDED_BY(mutex_);
};

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_SLOW_LOG_H_
