#include "service/admission.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace simrank::service {

namespace {

obs::Gauge& LevelGauge() {
  static obs::Gauge* gauge =
      &obs::MetricsRegistry::Default().GetGauge("service.admission.level");
  return *gauge;
}

}  // namespace

const char* PriorityClassName(PriorityClass priority) {
  switch (priority) {
    case PriorityClass::kInteractive:
      return "interactive";
    case PriorityClass::kBatch:
      return "batch";
  }
  return "unknown";
}

const char* AdmissionDecisionName(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmitted:
      return "admitted";
    case AdmissionDecision::kDegraded:
      return "degraded";
    case AdmissionDecision::kShedQueueFull:
      return "shed_queue_full";
    case AdmissionDecision::kShedRateLimited:
      return "shed_rate_limited";
    case AdmissionDecision::kShedOverload:
      return "shed_overload";
  }
  return "unknown";
}

const char* DegradationLevelName(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kNormal:
      return "normal";
    case DegradationLevel::kDegradeBatch:
      return "degrade_batch";
    case DegradationLevel::kDegradeAll:
      return "degrade_all";
    case DegradationLevel::kShedBatch:
      return "shed_batch";
  }
  return "unknown";
}

uint64_t HashClientId(std::string_view client_id) {
  if (client_id.empty()) return 0;
  // splitmix64 over the bytes: stable across platforms, good avalanche
  // for the short ids clients actually send. Not a randomness source
  // (simrank-lint R2 concerns sampling, not hashing).
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const char c : client_id) {
    h += static_cast<uint8_t>(c);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
  }
  // 0 is the "no client" sentinel; remap the (astronomically unlikely)
  // collision so a real id never bypasses its bucket.
  return h == 0 ? 1 : h;
}

Status AdmissionOptions::Validate() const {
  // !(x >= 0) also rejects NaN.
  if (!(client_rate >= 0.0) || !std::isfinite(client_rate)) {
    return Status::InvalidArgument(
        "AdmissionOptions::client_rate must be finite and >= 0");
  }
  if (!(client_burst >= 0.0) || !std::isfinite(client_burst)) {
    return Status::InvalidArgument(
        "AdmissionOptions::client_burst must be finite and >= 0");
  }
  if (!(target_p99_seconds >= 0.0) || !std::isfinite(target_p99_seconds)) {
    return Status::InvalidArgument(
        "AdmissionOptions::target_p99_seconds must be finite and >= 0");
  }
  if (target_p99_seconds > 0.0 && (breach_steps < 1 || recover_steps < 1)) {
    return Status::InvalidArgument(
        "AdmissionOptions: breach_steps and recover_steps must be >= 1 "
        "when the feedback controller is enabled");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options),
      bucket_capacity_(options.client_burst > 0.0
                           ? options.client_burst
                           : std::max(options.client_rate, 1.0)) {
  LevelGauge().Set(0);
}

AdmissionDecision AdmissionController::Admit(PriorityClass priority,
                                             uint64_t client_hash,
                                             double now_seconds,
                                             bool will_queue) {
  MutexLock lock(mutex_);
  // Rate limit first: an abusive client is turned away even when the
  // service is otherwise healthy, so quota violations are visible as
  // such instead of surfacing later as queue-full sheds for everyone.
  if (options_.client_rate > 0.0 && client_hash != 0) {
    auto [it, inserted] = buckets_.try_emplace(client_hash);
    TokenBucket& bucket = it->second;
    if (inserted) {
      bucket.tokens = bucket_capacity_;  // a new client starts with full burst
    } else {
      const double elapsed = now_seconds - bucket.last_refill_seconds;
      if (elapsed > 0.0) {
        bucket.tokens =
            std::min(bucket_capacity_,
                     bucket.tokens + elapsed * options_.client_rate);
      }
    }
    bucket.last_refill_seconds = now_seconds;
    if (bucket.tokens < 1.0) return AdmissionDecision::kShedRateLimited;
    bucket.tokens -= 1.0;
  }
  // Degradation-level shed: at kShedBatch, batch traffic is refused so
  // the remaining capacity defends the interactive SLO.
  if (static_cast<DegradationLevel>(level_) == DegradationLevel::kShedBatch &&
      priority == PriorityClass::kBatch) {
    return AdmissionDecision::kShedOverload;
  }
  if (will_queue) {
    const size_t index = static_cast<size_t>(priority);
    const size_t limit = priority == PriorityClass::kInteractive
                             ? options_.interactive_queue_limit
                             : options_.batch_queue_limit;
    if (limit > 0 && queued_[index] >= limit) {
      return AdmissionDecision::kShedQueueFull;
    }
    ++queued_[index];
  }
  return AdmissionDecision::kAdmitted;
}

void AdmissionController::OnDequeue(PriorityClass priority) {
  MutexLock lock(mutex_);
  size_t& depth = queued_[static_cast<size_t>(priority)];
  if (depth > 0) --depth;
}

AdmissionDecision AdmissionController::ExecutionDecision(
    PriorityClass priority, size_t total_queued) const {
  MutexLock lock(mutex_);
  const auto level = static_cast<DegradationLevel>(level_);
  const bool level_degrades =
      level >= DegradationLevel::kDegradeAll ||
      (level >= DegradationLevel::kDegradeBatch &&
       priority == PriorityClass::kBatch);
  const bool watermark_degrades = options_.degrade_watermark > 0 &&
                                  total_queued > options_.degrade_watermark;
  return (level_degrades || watermark_degrades)
             ? AdmissionDecision::kDegraded
             : AdmissionDecision::kAdmitted;
}

void AdmissionController::OnComplete(PriorityClass priority,
                                     uint64_t duration_ns,
                                     double now_seconds) {
  if (options_.target_p99_seconds <= 0.0) return;
  const uint64_t second = static_cast<uint64_t>(now_seconds);
  MutexLock lock(mutex_);
  if (!window_started_) {
    window_second_ = second;
    window_started_ = true;
  } else if (second != window_second_) {
    RollWindowLocked(second);
  }
  // Only interactive completions drive the level: batch latency is
  // allowed to be terrible — that is the whole point of the classes.
  if (priority == PriorityClass::kInteractive) {
    ++window_hist_[obs::Histogram::BucketIndex(duration_ns)];
    ++window_count_;
  }
}

void AdmissionController::RollWindowLocked(uint64_t second) {
  // Evaluate the finished second. Seconds that elapsed with no traffic
  // are healthy by definition, but only the one evaluated window counts
  // one step toward the streak — a 10-second idle gap is one recovery
  // observation, not ten.
  const double p99_ns = obs::Histogram::PercentileOf(window_hist_, 99.0);
  const double target_ns = options_.target_p99_seconds * 1e9;
  const bool measurable = window_count_ >= kMinWindowSamples;
  const bool breached = measurable && p99_ns > target_ns;
  if (breached) {
    recover_streak_ = 0;
    if (++breach_streak_ >= options_.breach_steps) {
      breach_streak_ = 0;
      if (level_ < kMaxDegradationLevel) {
        ++level_;
        LevelGauge().Set(level_);
      }
    }
  } else {
    breach_streak_ = 0;
    if (++recover_streak_ >= options_.recover_steps) {
      recover_streak_ = 0;
      if (level_ > 0) {
        --level_;
        LevelGauge().Set(level_);
      }
    }
  }
  std::memset(window_hist_, 0, sizeof(window_hist_));
  window_count_ = 0;
  window_second_ = second;
}

DegradationLevel AdmissionController::level() const {
  MutexLock lock(mutex_);
  return static_cast<DegradationLevel>(level_);
}

size_t AdmissionController::queue_depth(PriorityClass priority) const {
  MutexLock lock(mutex_);
  return queued_[static_cast<size_t>(priority)];
}

size_t AdmissionController::tracked_clients() const {
  MutexLock lock(mutex_);
  return buckets_.size();
}

}  // namespace simrank::service
