#ifndef SIMRANK_SERVICE_ADMISSION_H_
#define SIMRANK_SERVICE_ADMISSION_H_

// Admission control for the query engine (docs/SERVING.md).
//
// PR 3's load shedding was one static queue-depth watermark; this layer
// replaces it with a real overload controller:
//
//   - Two priority classes (interactive vs. batch) with separately
//     bounded backlogs. The engine keeps one FIFO worker pool; the
//     bounds are enforced at admission, so a full class rejects new
//     work *before* it occupies a queue slot.
//   - Per-client token buckets: each distinct client id gets
//     `client_rate` requests/second with `client_burst` of headroom;
//     one abusive client is rate-limited before it can starve the rest.
//     A bucket that has refilled is dropped, so memory follows the
//     clients of the last refill period, not every id ever seen.
//   - An SLO-feedback degradation controller: interactive completion
//     latency is folded into a per-second window, and when the window's
//     p99 breaches `target_p99_seconds` for `breach_steps` consecutive
//     seconds the controller walks one step down the degradation curve
//
//         kNormal -> kDegradeBatch -> kDegradeAll -> kShedBatch
//
//     (batch loses its refine pass first, then everyone does, then
//     batch is shed outright). `recover_steps` consecutive healthy
//     seconds walk one step back up — asymmetric hysteresis, so the
//     controller reacts fast and recovers cautiously.
//
// The controller is policy only: it decides, the engine applies. It
// keeps its own latency window (obs::RollingWindow::Record no-ops when
// observability is switched off, and admission control must keep
// working with obs dark), ranked for the p99 estimate by
// obs::Histogram::PercentileOf.
//
// Every method takes time explicitly (seconds) so tests drive the
// feedback loop with a synthetic clock; the engine passes steady-clock
// time. Thread-safety: all methods may race freely (one Mutex; each
// call holds it for O(1) work, plus O(buckets) once per second roll).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace simrank::service {

/// Request priority class. Interactive traffic is what the latency SLO
/// protects; batch is the backfill (all-pairs sweeps, prewarming, bulk
/// scoring) that degrades and sheds first.
enum class PriorityClass : uint8_t {
  kInteractive = 0,
  kBatch = 1,
};
inline constexpr size_t kNumPriorityClasses = 2;

/// Stable lower-case token ("interactive" / "batch") — used in metric
/// names and the events JSON (obs/export.cc keeps a mirrored table).
const char* PriorityClassName(PriorityClass priority);

/// Why a request was admitted, degraded or shed — recorded on the
/// QueryResponse and the QueryEvent so postmortems show the *reason*,
/// not just the outcome.
enum class AdmissionDecision : uint8_t {
  kAdmitted = 0,        ///< ran at full quality
  kDegraded = 1,        ///< ran with the refine pass dropped to the
                        ///< rough sample count
  kShedQueueFull = 2,   ///< rejected: its class's backlog bound was hit
  kShedRateLimited = 3, ///< rejected: the client's token bucket was dry
  kShedOverload = 4,    ///< rejected: degradation level sheds its class
};

/// Stable lower-case token ("admitted", "shed_queue_full", ...) —
/// mirrored in obs/export.cc for the events JSON.
const char* AdmissionDecisionName(AdmissionDecision decision);

inline bool IsShed(AdmissionDecision decision) {
  return decision == AdmissionDecision::kShedQueueFull ||
         decision == AdmissionDecision::kShedRateLimited ||
         decision == AdmissionDecision::kShedOverload;
}

/// Position on the declared degradation curve. Each step trades quality
/// for capacity; the controller only ever moves one step per decision.
enum class DegradationLevel : uint8_t {
  kNormal = 0,        ///< full quality for both classes
  kDegradeBatch = 1,  ///< batch queries run with estimate walks
  kDegradeAll = 2,    ///< both classes run with estimate walks
  kShedBatch = 3,     ///< batch shed outright; interactive degraded
};
inline constexpr uint8_t kMaxDegradationLevel =
    static_cast<uint8_t>(DegradationLevel::kShedBatch);

/// Stable lower-case token ("normal", "degrade_batch", ...).
const char* DegradationLevelName(DegradationLevel level);

/// Stable 64-bit hash of a client id (splitmix64 over bytes; not a
/// randomness source). Empty ids hash to 0, the "no client" sentinel
/// that bypasses per-client rate limits.
uint64_t HashClientId(std::string_view client_id);

/// Seconds with fewer interactive completions than this are ignored by
/// the feedback loop (a 1-sample p99 is noise, not a breach signal).
inline constexpr uint64_t kMinWindowSamples = 8;

/// Admission-control knobs (EngineOptions::admission). The zero value
/// disables every mechanism, which keeps the engine's default serving
/// behavior bit-identical to PR 3.
struct AdmissionOptions {
  /// Max submitted-but-not-started requests per class; beyond it new
  /// requests of that class are shed (kShedQueueFull). 0 = unbounded.
  size_t interactive_queue_limit = 0;
  size_t batch_queue_limit = 0;

  /// Queue-depth degradation watermark: when more than this many
  /// admitted submitted requests are waiting (the controller's own
  /// backlog, summed over the classes), sampling-backend queries run with
  /// estimate walks and report degraded = true. 0 disables.
  size_t degrade_watermark = 0;

  /// Per-client token bucket: sustained requests/second per distinct
  /// client id. 0 disables rate limiting.
  double client_rate = 0.0;
  /// Bucket capacity (burst headroom). 0 means max(client_rate, 1).
  double client_burst = 0.0;

  /// SLO-feedback target: interactive per-second-window p99 latency the
  /// controller defends by walking the degradation curve. 0 disables
  /// the feedback loop (the level stays kNormal).
  double target_p99_seconds = 0.0;
  /// Consecutive breached seconds before escalating one level.
  uint32_t breach_steps = 2;
  /// Consecutive healthy seconds before recovering one level.
  uint32_t recover_steps = 5;

  /// True when any mechanism is configured (the engine skips building a
  /// controller entirely otherwise).
  bool any_enabled() const {
    return interactive_queue_limit > 0 || batch_queue_limit > 0 ||
           degrade_watermark > 0 || client_rate > 0.0 ||
           target_p99_seconds > 0.0;
  }

  /// Rejects NaN/negative rates and thresholds, zero hysteresis steps.
  Status Validate() const;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admission gate, called before a request is enqueued (or, for
  /// synchronous callers, before it runs). Applies, in order: the
  /// per-client token bucket, the degradation level's class shed, and —
  /// when `will_queue` — the class's backlog bound. Returns kAdmitted
  /// (and, when `will_queue`, charges one slot to the class's backlog)
  /// or a shed decision. Never returns kDegraded: quality is decided at
  /// execution time by ExecutionDecision.
  AdmissionDecision Admit(PriorityClass priority, uint64_t client_hash,
                          double now_seconds, bool will_queue)
      SIMRANK_EXCLUDES(mutex_);

  /// Releases the backlog slot charged by Admit(will_queue=true); the
  /// engine calls this when a worker picks the request up.
  void OnDequeue(PriorityClass priority) SIMRANK_EXCLUDES(mutex_);

  /// Quality decision for an admitted request about to execute:
  /// kDegraded when the degradation level says this class runs rough, or
  /// when the backlog summed over the classes is above the queue-depth
  /// watermark; else kAdmitted. The caller applies it only when the
  /// serving backend has a cheaper mode.
  AdmissionDecision ExecutionDecision(PriorityClass priority) const
      SIMRANK_EXCLUDES(mutex_);

  /// Feedback input: one answered request of `priority` took
  /// `duration_ns` and completed during `now_seconds`. Interactive
  /// completions drive the degradation level; batch completions are
  /// accounted but do not move the level. The engine calls it for
  /// answered requests only (a cache hit, or at least one backend query
  /// ran): shed and expired requests would feed the p99 fast samples
  /// just when the service falls behind.
  void OnComplete(PriorityClass priority, uint64_t duration_ns,
                  double now_seconds) SIMRANK_EXCLUDES(mutex_);

  DegradationLevel level() const SIMRANK_EXCLUDES(mutex_);

  /// Submitted-but-not-started requests currently charged to `priority`.
  size_t queue_depth(PriorityClass priority) const SIMRANK_EXCLUDES(mutex_);

  /// Distinct clients currently holding a token bucket. Buckets that
  /// have refilled to capacity are dropped, once per refill period
  /// (client_burst / client_rate seconds).
  size_t tracked_clients() const SIMRANK_EXCLUDES(mutex_);

  const AdmissionOptions& options() const { return options_; }

 private:
  struct TokenBucket {
    double tokens = 0.0;
    double last_refill_seconds = 0.0;
  };

  /// Rolls the feedback window forward to `second` and re-evaluates the
  /// degradation level from the just-finished second's p99.
  void RollWindowLocked(uint64_t second) SIMRANK_REQUIRES(mutex_);

  const AdmissionOptions options_;
  const double bucket_capacity_;  ///< resolved client_burst

  mutable Mutex mutex_;
  size_t queued_[kNumPriorityClasses] SIMRANK_GUARDED_BY(mutex_) = {};
  std::unordered_map<uint64_t, TokenBucket> buckets_
      SIMRANK_GUARDED_BY(mutex_);
  /// When Admit next drops the buckets that have refilled.
  double next_sweep_seconds_ SIMRANK_GUARDED_BY(mutex_) = 0.0;
  /// Interactive completion latencies of the current second, in
  /// obs::Histogram's log-linear buckets (the p99 source).
  uint64_t window_hist_[obs::Histogram::kNumBuckets]
      SIMRANK_GUARDED_BY(mutex_) = {};
  uint64_t window_count_ SIMRANK_GUARDED_BY(mutex_) = 0;
  uint64_t window_second_ SIMRANK_GUARDED_BY(mutex_) = 0;
  bool window_started_ SIMRANK_GUARDED_BY(mutex_) = false;
  uint32_t breach_streak_ SIMRANK_GUARDED_BY(mutex_) = 0;
  uint32_t recover_streak_ SIMRANK_GUARDED_BY(mutex_) = 0;
  uint8_t level_ SIMRANK_GUARDED_BY(mutex_) = 0;
};

}  // namespace simrank::service

#endif  // SIMRANK_SERVICE_ADMISSION_H_
