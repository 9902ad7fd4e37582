#include "service/result_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "util/check.h"

namespace simrank::service {

namespace {

/// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Registry-backed cache metrics, resolved once (same pattern as the
// query.* metrics in top_k_searcher.cc).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& evictions;

  CacheMetrics()
      : hits(Registry().GetCounter("service.cache.hits")),
        misses(Registry().GetCounter("service.cache.misses")),
        insertions(Registry().GetCounter("service.cache.insertions")),
        evictions(Registry().GetCounter("service.cache.evictions")) {}

  static obs::MetricsRegistry& Registry() {
    return obs::MetricsRegistry::Default();
  }
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics* metrics = new CacheMetrics();
  return *metrics;
}

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& key) const {
  uint64_t h = Mix64(key.vertices.size() ^ (key.group ? 0x8000000000000000ULL
                                                      : 0));
  for (Vertex v : key.vertices) h = Mix64(h ^ v);
  h = Mix64(h ^ key.k);
  h = Mix64(h ^ key.threshold_bits);
  h = Mix64(h ^ key.backend);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache(size_t capacity, uint32_t num_shards)
    : capacity_(capacity) {
  SIMRANK_CHECK_GE(num_shards, 1u);
  // Never more shards than entries, so a tiny cache still evicts sanely.
  const size_t shards =
      std::max<size_t>(1, std::min<size_t>(num_shards, capacity));
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  return *shards_[CacheKeyHash()(key) % shards_.size()];
}

bool ResultCache::Lookup(const CacheKey& key,
                         std::vector<ScoredVertex>* out) {
  CacheMetrics& metrics = GetCacheMetrics();
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    metrics.misses.Add(1);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->second;
  metrics.hits.Add(1);
  return true;
}

void ResultCache::Insert(const CacheKey& key, std::vector<ScoredVertex> top) {
  if (capacity_ == 0) return;
  CacheMetrics& metrics = GetCacheMetrics();
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(top);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    metrics.evictions.Add(1);
  }
  shard.lru.emplace_front(key, std::move(top));
  shard.index.emplace(key, shard.lru.begin());
  metrics.insertions.Add(1);
}

void ResultCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

size_t ResultCache::size() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace simrank::service
