#include "obs/rolling.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "obs/event_log.h"
#include "util/check.h"

namespace simrank::obs {

namespace {

bool IsLatencyObjective(SloSpec::Objective objective) {
  switch (objective) {
    case SloSpec::Objective::kLatencyP50:
    case SloSpec::Objective::kLatencyP95:
    case SloSpec::Objective::kLatencyP99:
      return true;
    case SloSpec::Objective::kErrorRate:
    case SloSpec::Objective::kShedRate:
    case SloSpec::Objective::kDegradedRate:
      return false;
  }
  return false;
}

}  // namespace

const char* SloObjectiveName(SloSpec::Objective objective) {
  switch (objective) {
    case SloSpec::Objective::kLatencyP50:
      return "latency_p50";
    case SloSpec::Objective::kLatencyP95:
      return "latency_p95";
    case SloSpec::Objective::kLatencyP99:
      return "latency_p99";
    case SloSpec::Objective::kErrorRate:
      return "error_rate";
    case SloSpec::Objective::kShedRate:
      return "shed_rate";
    case SloSpec::Objective::kDegradedRate:
      return "degraded_rate";
  }
  return "unknown";
}

RollingWindow& RollingWindow::Default() {
  static RollingWindow* window = new RollingWindow();
  return *window;
}

RollingWindow::RollingWindow(uint32_t num_buckets, uint32_t bucket_seconds)
    : num_buckets_(num_buckets < 1 ? 1 : num_buckets),
      bucket_seconds_(bucket_seconds < 1 ? 1 : bucket_seconds) {
  MutexLock lock(mutex_);
  buckets_.resize(num_buckets_);
}

void RollingWindow::SetSlos(std::vector<SloSpec> slos) {
  MutexLock lock(mutex_);
  slos_ = std::move(slos);
  gauges_.clear();
  gauges_.reserve(slos_.size());
  for (const SloSpec& spec : slos_) {
    SIMRANK_CHECK(!spec.name.empty());
    for (char c : spec.name) {
      const bool ok =
          (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
      SIMRANK_CHECK(ok);
    }
    SIMRANK_CHECK(std::isfinite(spec.threshold));
    const std::string base = "service.slo." + spec.name;
    BoundGauges bound;
    bound.ok = &MetricsRegistry::Default().GetGauge(base + ".ok");
    bound.value = &MetricsRegistry::Default().GetGauge(
        base + (IsLatencyObjective(spec.objective) ? ".value_us"
                                                   : ".value_ppm"));
    gauges_.push_back(bound);
  }
  // Publish immediately so the gauges are well-defined (vacuously ok)
  // before any traffic arrives.
  PublishLocked(SnapshotLocked(NowSecond()));
}

std::vector<SloSpec> RollingWindow::slos() const {
  MutexLock lock(mutex_);
  return slos_;
}

void RollingWindow::Record(uint64_t now_second,
                           std::optional<uint64_t> latency_ns, uint8_t flags,
                           uint8_t status) {
  if (!IsEnabled()) return;
  const uint64_t aligned = AlignedSecond(now_second);
  MutexLock lock(mutex_);
  Bucket& bucket = buckets_[(aligned / bucket_seconds_) % num_buckets_];
  if (!bucket.used || bucket.second != aligned) {
    // Reusing a stale bucket means at least bucket_seconds have elapsed
    // since this slot was last current: a natural once-per-tick point to
    // refresh the SLO gauges without a timer thread.
    const bool rollover = bucket.used;
    bucket = Bucket{};
    bucket.second = aligned;
    bucket.used = true;
    if (rollover && !slos_.empty()) {
      PublishLocked(SnapshotLocked(now_second));
    }
  }
  ++bucket.count;
  if (status != 0) ++bucket.errors;
  if (flags & kEventShed) ++bucket.shed;
  if (flags & kEventDegraded) ++bucket.degraded;
  if (flags & kEventCacheHit) ++bucket.cache_hits;
  if (!latency_ns.has_value()) return;
  bucket.latency_sum_ns += *latency_ns;
  bucket.latency_max_ns = std::max(bucket.latency_max_ns, *latency_ns);
  ++bucket.latency_hist[Histogram::BucketIndex(*latency_ns)];
}

WindowSnapshot RollingWindow::SnapshotLocked(uint64_t now_second) const {
  WindowSnapshot snapshot;
  snapshot.now_second = now_second;
  snapshot.bucket_seconds = bucket_seconds_;
  snapshot.num_buckets = num_buckets_;
  uint64_t hist[Histogram::kNumBuckets] = {};
  for (const Bucket& bucket : buckets_) {
    if (!bucket.used || !InWindow(bucket.second, now_second)) continue;
    WindowBucket copy;
    copy.second = bucket.second;
    copy.count = bucket.count;
    copy.errors = bucket.errors;
    copy.shed = bucket.shed;
    copy.degraded = bucket.degraded;
    copy.cache_hits = bucket.cache_hits;
    copy.latency_sum_ns = bucket.latency_sum_ns;
    copy.latency_max_ns = bucket.latency_max_ns;
    snapshot.buckets.push_back(copy);
    snapshot.count += bucket.count;
    snapshot.errors += bucket.errors;
    snapshot.shed += bucket.shed;
    snapshot.degraded += bucket.degraded;
    snapshot.cache_hits += bucket.cache_hits;
    snapshot.latency_sum_ns += bucket.latency_sum_ns;
    snapshot.latency_max_ns =
        std::max(snapshot.latency_max_ns, bucket.latency_max_ns);
    for (uint32_t i = 0; i < Histogram::kNumBuckets; ++i) {
      hist[i] += bucket.latency_hist[i];
    }
  }
  std::sort(snapshot.buckets.begin(), snapshot.buckets.end(),
            [](const WindowBucket& a, const WindowBucket& b) {
              return a.second < b.second;
            });
  snapshot.latency_p50_ns = Histogram::PercentileOf(hist, 50.0);
  snapshot.latency_p95_ns = Histogram::PercentileOf(hist, 95.0);
  snapshot.latency_p99_ns = Histogram::PercentileOf(hist, 99.0);
  uint64_t latency_samples = 0;
  for (const uint64_t count : hist) latency_samples += count;

  snapshot.slos.reserve(slos_.size());
  for (const SloSpec& spec : slos_) {
    SloResult result;
    result.spec = spec;
    result.samples = IsLatencyObjective(spec.objective) ? latency_samples
                                                        : snapshot.count;
    if (result.samples == 0) {
      // Nothing to evaluate in the window: the objective is vacuously met.
      result.value = 0.0;
      result.ok = true;
    } else {
      switch (spec.objective) {
        case SloSpec::Objective::kLatencyP50:
          result.value = snapshot.latency_p50_ns / 1e9;
          break;
        case SloSpec::Objective::kLatencyP95:
          result.value = snapshot.latency_p95_ns / 1e9;
          break;
        case SloSpec::Objective::kLatencyP99:
          result.value = snapshot.latency_p99_ns / 1e9;
          break;
        case SloSpec::Objective::kErrorRate:
          result.value = static_cast<double>(snapshot.errors) /
                         static_cast<double>(snapshot.count);
          break;
        case SloSpec::Objective::kShedRate:
          result.value = static_cast<double>(snapshot.shed) /
                         static_cast<double>(snapshot.count);
          break;
        case SloSpec::Objective::kDegradedRate:
          result.value = static_cast<double>(snapshot.degraded) /
                         static_cast<double>(snapshot.count);
          break;
      }
      result.ok = result.value <= spec.threshold;
    }
    snapshot.slos.push_back(result);
  }
  return snapshot;
}

void RollingWindow::PublishLocked(const WindowSnapshot& snapshot) const {
  for (size_t i = 0; i < snapshot.slos.size() && i < gauges_.size(); ++i) {
    const SloResult& result = snapshot.slos[i];
    gauges_[i].ok->Set(result.ok ? 1 : 0);
    const double scaled = IsLatencyObjective(result.spec.objective)
                              ? result.value * 1e6   // seconds -> µs
                              : result.value * 1e6;  // fraction -> ppm
    gauges_[i].value->Set(static_cast<int64_t>(scaled));
  }
}

WindowSnapshot RollingWindow::Snapshot(uint64_t now_second) const {
  MutexLock lock(mutex_);
  WindowSnapshot snapshot = SnapshotLocked(now_second);
  PublishLocked(snapshot);
  return snapshot;
}

void RollingWindow::UpdateGauges(uint64_t now_second) const {
  MutexLock lock(mutex_);
  PublishLocked(SnapshotLocked(now_second));
}

void RollingWindow::Clear() {
  MutexLock lock(mutex_);
  for (Bucket& bucket : buckets_) bucket = Bucket{};
}

uint64_t RollingWindow::NowSecond() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace simrank::obs
