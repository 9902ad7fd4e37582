#ifndef SIMRANK_SERVICE_RESULT_CACHE_H_
#define SIMRANK_SERVICE_RESULT_CACHE_H_

// LRU cache of query rankings for the serving engine.
//
// Keys are the full semantic identity of a query: the query vertices plus
// the *effective* runtime options (k, threshold) after per-request
// overrides — two requests that would compute different rankings never
// share an entry. One LRU list and one index under one mutex: the cache
// never holds more than its capacity, and a full cache evicts its least
// recently used entry. Hit/miss/insert/evict counts are published as
// "service.cache.*" in obs::MetricsRegistry.

#include <cstddef>
#include <cstdint>
#include <list>
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
  /// Holds at most `capacity` entries; 0 caches nothing.
  explicit ResultCache(size_t capacity);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// On hit, copies the cached ranking into `*out`, promotes the key to
  /// most-recently-used and returns true. Thread-safe.
  bool Lookup(const CacheKey& key, std::vector<ScoredVertex>* out)
      SIMRANK_EXCLUDES(mutex_);

  /// Inserts or refreshes `key`'s ranking, evicting the least-recently-used
  /// entry when the cache is full. Thread-safe.
  void Insert(const CacheKey& key, std::vector<ScoredVertex> top)
      SIMRANK_EXCLUDES(mutex_);

  /// Drops every entry (the invalidation path for graph/index swaps).
  void Clear() SIMRANK_EXCLUDES(mutex_);

  /// Entries currently held.
  size_t size() const SIMRANK_EXCLUDES(mutex_);
  size_t capacity() const { return capacity_; }

 private:
  /// A key and its ranking. Only the ranking is cached: a hit runs
  /// nothing, so it reports no stats.
  using Entry = std::pair<CacheKey, std::vector<ScoredVertex>>;

  const size_t capacity_;
  mutable Mutex mutex_;
  /// Front = most recently used.
  std::list<Entry> lru_ SIMRANK_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
      index_ SIMRANK_GUARDED_BY(mutex_);
};

}  // namespace simrank::service

#endif  // SIMRANK_SERVICE_RESULT_CACHE_H_
