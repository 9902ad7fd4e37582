#include "service/result_cache.h"

#include "obs/metrics.h"

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

ResultCache::ResultCache(size_t capacity) : capacity_(capacity) {}

bool ResultCache::Lookup(const CacheKey& key,
                         std::vector<ScoredVertex>* out) {
  CacheMetrics& metrics = GetCacheMetrics();
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    metrics.misses.Add(1);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *out = it->second->second;
  metrics.hits.Add(1);
  return true;
}

void ResultCache::Insert(const CacheKey& key, std::vector<ScoredVertex> top) {
  if (capacity_ == 0) return;
  CacheMetrics& metrics = GetCacheMetrics();
  MutexLock lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(top);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    metrics.evictions.Add(1);
  }
  lru_.emplace_front(key, std::move(top));
  index_.emplace(key, lru_.begin());
  metrics.insertions.Add(1);
}

void ResultCache::Clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
}

size_t ResultCache::size() const {
  MutexLock lock(mutex_);
  return lru_.size();
}

}  // namespace simrank::service
