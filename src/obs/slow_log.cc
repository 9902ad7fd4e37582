#include "obs/slow_log.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace simrank::obs {

SlowQueryLog& SlowQueryLog::Default() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

SlowQueryLog::SlowQueryLog(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

void SlowQueryLog::Configure(uint64_t threshold_ns, size_t capacity) {
  if (capacity < 1) capacity = 1;
  {
    MutexLock lock(mutex_);
    capacity_ = capacity;
    if (records_.size() > capacity_) {
      // Keep the slowest `capacity_` records.
      std::partial_sort(records_.begin(), records_.begin() + capacity_,
                        records_.end(),
                        [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
                          return a.event.duration_ns > b.event.duration_ns;
                        });
      records_.resize(capacity_);
    }
  }
  threshold_ns_.store(threshold_ns, std::memory_order_relaxed);
}

bool SlowQueryLog::Offer(SlowQueryRecord record) {
  const uint64_t threshold = threshold_ns_.load(std::memory_order_relaxed);
  if (threshold == 0 || record.event.duration_ns < threshold) return false;
  if (!IsEnabled()) return false;
  {
    MutexLock lock(mutex_);
    if (records_.size() >= capacity_) {
      auto fastest = std::min_element(
          records_.begin(), records_.end(),
          [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
            return a.event.duration_ns < b.event.duration_ns;
          });
      if (fastest->event.duration_ns >= record.event.duration_ns) {
        return false;
      }
      *fastest = std::move(record);
    } else {
      records_.push_back(std::move(record));
    }
  }
  MetricsRegistry::Default().GetCounter("service.slow_queries").Add();
  return true;
}

std::vector<SlowQueryRecord> SlowQueryLog::Snapshot() const {
  std::vector<SlowQueryRecord> copies;
  {
    MutexLock lock(mutex_);
    copies = records_;
  }
  std::sort(copies.begin(), copies.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              return a.event.duration_ns > b.event.duration_ns;
            });
  return copies;
}

size_t SlowQueryLog::size() const {
  MutexLock lock(mutex_);
  return records_.size();
}

size_t SlowQueryLog::capacity() const {
  MutexLock lock(mutex_);
  return capacity_;
}

void SlowQueryLog::Clear() {
  MutexLock lock(mutex_);
  records_.clear();
}

}  // namespace simrank::obs
