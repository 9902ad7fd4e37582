#include "obs/metrics.h"

#include <bit>
#include <cmath>

#include "util/arena.h"
#include "util/check.h"
#include "util/counter.h"
#include "util/fault_injection.h"

namespace simrank::obs {

void SetEnabled(bool enabled) {
  internal::EnabledFlag().store(enabled, std::memory_order_relaxed);
}

bool IsEnabled() {
  return internal::EnabledFlag().load(std::memory_order_relaxed);
}

uint32_t Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  const uint32_t highest_bit = static_cast<uint32_t>(std::bit_width(value)) - 1;
  const uint32_t shift = highest_bit <= kSubBits ? 0 : highest_bit - kSubBits;
  return shift * kSubBuckets + static_cast<uint32_t>(value >> shift);
}

double Histogram::BucketRepresentative(uint32_t index) {
  SIMRANK_CHECK_LT(index, kNumBuckets);
  const uint32_t shift =
      index < 2 * kSubBuckets ? 0 : index / kSubBuckets - 1;
  const uint64_t base = static_cast<uint64_t>(index - shift * kSubBuckets)
                        << shift;
  const uint64_t width = uint64_t{1} << shift;
  return static_cast<double>(base) + static_cast<double>(width - 1) / 2.0;
}

double Histogram::Percentile(double p) const {
  SIMRANK_CHECK_GE(p, 0.0);
  SIMRANK_CHECK_LE(p, 100.0);
  // Walk the cumulative distribution over a point-in-time copy of the
  // buckets so the total and the walk agree even under concurrent writers.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 *
                                                  static_cast<double>(total)));
  if (rank == 0) rank = 1;
  if (rank > total) rank = total;
  uint64_t cumulative = 0;
  for (uint32_t i = 0; i < kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) return BucketRepresentative(i);
  }
  return BucketRepresentative(kNumBuckets - 1);  // unreachable
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snapshot;
  snapshot.count = Count();
  snapshot.sum = Sum();
  snapshot.max = Max();
  snapshot.mean = snapshot.count == 0
                      ? 0.0
                      : static_cast<double>(snapshot.sum) /
                            static_cast<double>(snapshot.count);
  snapshot.p50 = Percentile(50.0);
  snapshot.p95 = Percentile(95.0);
  snapshot.p99 = Percentile(99.0);
  return snapshot;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

namespace {

// Enforces the naming scheme early: lowercase dotted paths survive every
// exporter (JSON keys, table cells, file names) unescaped.
void CheckMetricName(std::string_view name) {
  SIMRANK_CHECK(!name.empty());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_';
    SIMRANK_CHECK(ok);
  }
}

}  // namespace

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  // Bridge util-layer raw counters (util cannot depend on obs) into the
  // registry as callback gauges.
  RegisterCallbackGauge("util.walk_counter.grows", [] {
    return static_cast<int64_t>(WalkCounter::TotalGrows());
  });
  // Arena health: total block mallocs ever, and blocks malloc'd by arenas
  // that had already been warmed by a Reset (steady-state growth — zero
  // when every workspace reaches its high-water mark and stays there).
  RegisterCallbackGauge("util.arena.blocks_allocated", [] {
    return static_cast<int64_t>(Arena::TotalBlockAllocs());
  });
  RegisterCallbackGauge("util.arena.steady_state_allocs", [] {
    return static_cast<int64_t>(Arena::TotalSteadyStateAllocs());
  });
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    SIMRANK_CHECK(gauges_.find(name) == gauges_.end());
    SIMRANK_CHECK(histograms_.find(name) == histograms_.end());
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    SIMRANK_CHECK(counters_.find(name) == counters_.end());
    SIMRANK_CHECK(histograms_.find(name) == histograms_.end());
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  CheckMetricName(name);
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    SIMRANK_CHECK(counters_.find(name) == counters_.end());
    SIMRANK_CHECK(gauges_.find(name) == gauges_.end());
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::RegisterCallbackGauge(std::string_view name,
                                            std::function<int64_t()> callback) {
  CheckMetricName(name);
  SIMRANK_CHECK(callback != nullptr);
  MutexLock lock(mutex_);
  callbacks_[std::string(name)] = std::move(callback);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  // The fault injector keeps its own counters (util cannot depend on obs);
  // the registry pulls them into every snapshot so "faults.*" shows up in
  // exports whenever injection is active. Empty when never hit.
  for (const auto& [name, value] :
       fault::FaultInjector::Default().SnapshotCounters()) {
    snapshot.counters[name] = value;
  }
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->Value();
  }
  for (const auto& [name, callback] : callbacks_) {
    snapshot.gauges[name] = callback();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace simrank::obs
