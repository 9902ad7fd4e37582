#include "obs/event_log.h"

#include <algorithm>

#include "obs/metrics.h"

namespace simrank::obs {

EventLog& EventLog::Default() {
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::EventLog(size_t capacity, uint32_t shards) {
  if (shards < 1) shards = 1;
  if (capacity < shards) capacity = shards;
  shard_capacity_ = capacity / shards;
  shards_.reserve(shards);
  for (uint32_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
    MutexLock lock(shards_.back()->mutex);
    shards_.back()->ring.resize(shard_capacity_);
  }
}

EventLog::Shard& EventLog::ShardForThisThread() {
  // Pin each recording thread to one shard, round-robin in first-use
  // order. thread_local, so the assignment survives across engines (the
  // index is per-log via modulo, and shard counts are identical for one
  // log's lifetime).
  static thread_local uint32_t t_shard_seed = 0xffffffffu;
  if (t_shard_seed == 0xffffffffu) {
    t_shard_seed = next_shard_.fetch_add(1, std::memory_order_relaxed);
  }
  return *shards_[t_shard_seed % shards_.size()];
}

uint64_t EventLog::Record(QueryEvent event) {
  if (!IsEnabled()) return 0;
  const uint64_t id = sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  event.query_id = id;
  Shard& shard = ShardForThisThread();
  MutexLock lock(shard.mutex);
  shard.ring[shard.written % shard_capacity_] = event;
  ++shard.written;
  return id;
}

std::vector<QueryEvent> EventLog::Snapshot() const {
  std::vector<QueryEvent> events;
  events.reserve(capacity());
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    const uint64_t valid =
        std::min<uint64_t>(shard->written, shard_capacity_);
    // Copy in ring order (oldest first) so the final sort starts nearly
    // sorted within each shard's run.
    for (uint64_t i = 0; i < valid; ++i) {
      events.push_back(
          shard->ring[(shard->written - valid + i) % shard_capacity_]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const QueryEvent& a, const QueryEvent& b) {
              return a.query_id < b.query_id;
            });
  return events;
}

void EventLog::Clear() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->written = 0;
  }
  sequence_.store(0, std::memory_order_relaxed);
}

}  // namespace simrank::obs
