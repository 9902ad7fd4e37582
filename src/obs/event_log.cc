#include "obs/event_log.h"

#include <algorithm>

#include "obs/metrics.h"

namespace simrank::obs {

EventLog& EventLog::Default() {
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::EventLog(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  MutexLock lock(mutex_);
  ring_.resize(capacity_);
}

uint64_t EventLog::Record(QueryEvent event) {
  if (!IsEnabled()) return 0;
  MutexLock lock(mutex_);
  event.query_id = ++written_;
  ring_[(written_ - 1) % capacity_] = event;
  return written_;
}

std::vector<QueryEvent> EventLog::Snapshot() const {
  MutexLock lock(mutex_);
  const uint64_t valid = std::min<uint64_t>(written_, capacity_);
  std::vector<QueryEvent> events;
  events.reserve(valid);
  for (uint64_t id = written_ - valid + 1; id <= written_; ++id) {
    events.push_back(ring_[(id - 1) % capacity_]);
  }
  return events;
}

uint64_t EventLog::TotalRecorded() const {
  MutexLock lock(mutex_);
  return written_;
}

void EventLog::Clear() {
  MutexLock lock(mutex_);
  written_ = 0;
}

}  // namespace simrank::obs
