#ifndef SIMRANK_SERVICE_RESULT_CACHE_H_
#define SIMRANK_SERVICE_RESULT_CACHE_H_

// Sharded LRU cache of query rankings for the serving engine.
//
// Keys are the full semantic identity of a query: the query vertices plus
// the *effective* runtime options (k, threshold) after per-request
// overrides — two requests that would compute different rankings never
// share an entry. Sharding bounds lock contention: a key hashes to one
// shard, each shard holds its own mutex, LRU list and map, so concurrent
// lookups on different shards never serialize. Hit/miss/insert/evict
// counts are published as "service.cache.*" in obs::MetricsRegistry.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "simrank/top_k_searcher.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank::service {

/// Identity of a cacheable query. `threshold_bits` stores the exact bit
/// pattern of the effective threshold so keying never depends on float
/// printing or epsilon choices. `backend` is the BackendKind that computes
/// the answer: different backends produce (slightly) different rankings,
/// so a mixed-backend engine must never serve one backend's cached entry
/// for another backend's request.
struct CacheKey {
  std::vector<Vertex> vertices;
  bool group = false;
  uint32_t k = 0;
  uint64_t threshold_bits = 0;
  uint8_t backend = 0;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& key) const;
};

class ResultCache {
 public:
  /// `capacity` is the total entry budget, split evenly across
  /// `num_shards` shards (each shard evicts independently, so the
  /// instantaneous total can sit slightly below capacity under skew).
  ResultCache(size_t capacity, uint32_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit, copies the cached ranking into `*out`, promotes the key to
  /// most-recently-used and returns true. Thread-safe.
  bool Lookup(const CacheKey& key, std::vector<ScoredVertex>* out);

  /// Inserts or refreshes `key`'s ranking, evicting the shard's
  /// least-recently-used entry when the shard is full. Thread-safe.
  void Insert(const CacheKey& key, std::vector<ScoredVertex> top);

  /// Drops every entry (the invalidation path for graph/index swaps).
  void Clear();

  /// Entries currently held across all shards.
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  /// A key and its ranking. Only the ranking is cached: a hit runs
  /// nothing, so it reports no stats.
  using Entry = std::pair<CacheKey, std::vector<ScoredVertex>>;

  struct Shard {
    mutable Mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru SIMRANK_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index SIMRANK_GUARDED_BY(mutex);
  };

  Shard& ShardFor(const CacheKey& key);

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace simrank::service

#endif  // SIMRANK_SERVICE_RESULT_CACHE_H_
