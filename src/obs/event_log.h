#ifndef SIMRANK_OBS_EVENT_LOG_H_
#define SIMRANK_OBS_EVENT_LOG_H_

// Flight recorder: an always-on, fixed-size, sharded ring buffer of POD
// per-query event records (docs/OBSERVABILITY.md, "Per-query events").
//
// Aggregate metrics (metrics.h) answer "how is the service doing";
// the flight recorder answers "what were the last N queries, exactly" —
// the record a p999 investigation or a crash postmortem needs. Cost per
// query is one uncontended shard mutex plus a 120-byte struct copy, which
// is why it stays on whenever obs is (obs::SetEnabled): its cost is inside
// every engine timing, BM_EngineQuery and perfbench's end-to-end metrics
// included.
//
// Sharding: each recording thread is pinned to one shard (round-robin at
// first use), so writers on different threads never contend. Events carry
// a process-wide sequence id assigned at Record() time; Snapshot() merges
// the shards and sorts by id, which restores the global record order. The
// "last N" guarantee is per shard: a shard keeps its own most recent
// capacity()/num_shards() events.
//
// Thread-safety: Record() and Snapshot() may race freely from any number
// of threads (per-shard Mutex, verified under TSan by
// tests/test_obs_events.cc).

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "obs/phase.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank::obs {

/// What kind of request an event describes.
enum class QueryEventMode : uint8_t {
  kVertex = 0,  ///< single-vertex top-k query
  kGroup = 1,   ///< group ("similar to this set") query
};

/// Bit flags of QueryEvent::flags.
enum QueryEventFlags : uint8_t {
  kEventCacheHit = 1u << 0,   ///< served from the result cache
  kEventDegraded = 1u << 1,   ///< refine pass dropped to the rough walks
  kEventShed = 1u << 2,       ///< shed by admission control: answered
                              ///< Unavailable without running the backend
  kEventSubmitted = 1u << 3,  ///< arrived via Submit/SubmitBatch (queued)
};

/// One per-query record. POD by design: recording is a struct copy, the
/// postmortem path can serialize it with no allocation surprises, and a
/// future binary spill format can memcpy it.
struct QueryEvent {
  uint64_t query_id = 0;       ///< process-wide sequence, assigned by Record
  uint64_t start_ns = 0;       ///< steady-clock ns at engine admission
  uint64_t duration_ns = 0;    ///< engine time, excluding queue wait
  uint64_t queue_wait_ns = 0;  ///< time queued before a worker started it
  uint64_t walks = 0;          ///< scoring walks drawn (QueryStats::walks;
                               ///< 0 when nothing ran)
  uint64_t client_hash = 0;    ///< mixed hash of the client id (0 = none)
  PhaseTimes phases;           ///< ns per query phase (QueryStats::phases;
                               ///< all 0 when nothing ran)
  uint32_t vertex = 0;         ///< first query vertex
  uint32_t k = 0;              ///< effective k after per-request overrides
  uint32_t group_size = 1;     ///< number of query vertices
  QueryEventMode mode = QueryEventMode::kVertex;
  uint8_t status = 0;          ///< util StatusCode of the execution outcome
  uint8_t flags = 0;           ///< QueryEventFlags
  uint8_t backend = 0;         ///< simrank::BackendKind that served it
  uint8_t priority = 0;        ///< service::PriorityClass of the request
  uint8_t decision = 0;        ///< service::AdmissionDecision — why the
                               ///< query was admitted/degraded/shed
};
static_assert(std::is_trivially_copyable_v<QueryEvent>);
// The default ring is resident from first use: each byte added here costs
// EventLog::kDefaultCapacity bytes of RSS.
static_assert(sizeof(QueryEvent) <= 120);

class EventLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;
  static constexpr uint32_t kDefaultShards = 8;

  /// The process-wide recorder the serving layer fills (leaky singleton,
  /// like MetricsRegistry::Default()); the crash-time postmortem dump
  /// reads this instance.
  static EventLog& Default();

  /// `capacity` total retained events, split evenly across `shards`
  /// writer shards (both clamped to >= 1).
  explicit EventLog(size_t capacity = kDefaultCapacity,
                    uint32_t shards = kDefaultShards);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Records `event` (query_id is overwritten with the next sequence
  /// number) and returns the assigned id. Returns 0 — recording nothing —
  /// when obs is disabled.
  uint64_t Record(QueryEvent event);

  /// The retained events, oldest first (sorted by query_id). Safe against
  /// concurrent writers; the copy is taken shard by shard.
  std::vector<QueryEvent> Snapshot() const;

  /// Events ever recorded (>= Snapshot().size(); the excess wrapped).
  uint64_t TotalRecorded() const {
    return sequence_.load(std::memory_order_relaxed);
  }

  /// Total retained events across all shards.
  size_t capacity() const { return shard_capacity_ * shards_.size(); }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// Drops every retained event and restarts the id sequence (tests).
  void Clear();

 private:
  struct Shard {
    mutable Mutex mutex;
    /// Fixed-size ring; slot (written - 1) % capacity is the newest.
    std::vector<QueryEvent> ring SIMRANK_GUARDED_BY(mutex);
    /// Events ever written to this shard.
    uint64_t written SIMRANK_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardForThisThread();

  std::atomic<uint64_t> sequence_{0};
  std::atomic<uint32_t> next_shard_{0};
  size_t shard_capacity_;
  /// unique_ptr: Shard holds a Mutex and must not move after construction.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_EVENT_LOG_H_
