#ifndef SIMRANK_UTIL_COUNTER_H_
#define SIMRANK_UTIL_COUNTER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/check.h"

namespace simrank {

/// Open-addressing multiset counter for small key sets (the positions of R
/// random walks at one step, R ~ 10..10000). This is the inner loop of the
/// Monte-Carlo estimators, where std::unordered_map's allocation and
/// bucketing overhead dominates; a flat power-of-two table with linear
/// probing is several times faster and allocation-free after construction.
class WalkCounter {
 public:
  struct Entry {
    uint32_t key;
    uint32_t count;
  };

  /// Creates a counter able to absorb up to `capacity` distinct keys while
  /// staying under 50% load. With an arena, the table and bookkeeping live
  /// in it (recycled wholesale by the owner's Reset — the per-query
  /// workspace pattern); without one they come from the heap.
  explicit WalkCounter(size_t capacity = 64, Arena* arena = nullptr)
      : slots_(arena), used_slots_(arena) {
    Rebuild(capacity);
  }

  WalkCounter(WalkCounter&&) noexcept = default;
  WalkCounter& operator=(WalkCounter&&) noexcept = default;

  /// Removes all entries; keeps the allocated table.
  void Clear() {
    for (uint32_t i : used_slots_) slots_[i].count = 0;
    used_slots_.clear();
  }

  /// Adds one occurrence of `key`.
  void Add(uint32_t key) {
    if (used_slots_.size() * 2 >= slots_.size()) Grow();
    AddUnchecked(key);
  }

  /// Adds `count` occurrences of `key` with a single probe — equivalent to
  /// count Add(key) calls. The WalkProfile step-0 fast path (every walk
  /// sits at the origin).
  void AddCount(uint32_t key, uint32_t count) {
    if (count == 0) return;
    if (used_slots_.size() * 2 >= slots_.size()) Grow();
    size_t i = Hash(key) & mask_;
    while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    if (slots_[i].count == 0) {
      slots_[i].key = key;
      used_slots_.push_back(i);
    }
    slots_[i].count += count;
  }

  /// Adds one occurrence of each element of `keys`. Final counts and
  /// insertion order (ForEach order) are exactly as if Add had been called
  /// per element; the difference is mechanical: the growth check is hoisted
  /// out of the loop (growing up front for the worst case of all-distinct
  /// keys) and hashes are computed sixteen keys at a time, which breaks the
  /// per-key hash -> probe serial dependency chain that dominates the
  /// scalar loop. This is the WalkProfile construction hot path.
  void AddAll(std::span<const uint32_t> keys) {
    while ((used_slots_.size() + keys.size()) * 2 > slots_.size()) Grow();
    AddAllPresized(keys);
  }

  /// AddAll minus the growth hoist: the caller guarantees up front that the
  /// table's capacity covers every distinct key it will ever hold (the
  /// WalkProfile loop presizes each step's table for the pre-step live
  /// count and counts through WalkSet::AdvanceCounted). The closing check
  /// catches contract violations before the table can degrade further.
  void AddAllPresized(std::span<const uint32_t> keys) {
    constexpr size_t kLanes = 16;
    size_t slot[kLanes];
    size_t i = 0;
    for (; i + kLanes <= keys.size(); i += kLanes) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        slot[lane] = Hash(keys[i + lane]) & mask_;
      }
      // The table rarely stays L1-resident between steps (the walk kernel's
      // CSR gathers evict it), so issue all sixteen home-slot loads before the
      // first probe: sixteen misses overlap instead of serializing.
      for (size_t lane = 0; lane < kLanes; ++lane) {
        __builtin_prefetch(&slots_[slot[lane]], 1, 3);
      }
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const uint32_t key = keys[i + lane];
        size_t s = slot[lane];
        while (slots_[s].count != 0 && slots_[s].key != key) {
          s = (s + 1) & mask_;
        }
        if (slots_[s].count == 0) {
          slots_[s].key = key;
          used_slots_.push_back(s);
        }
        ++slots_[s].count;
      }
    }
    for (; i < keys.size(); ++i) AddUnchecked(keys[i]);
    SIMRANK_CHECK_LE(used_slots_.size() * 2, slots_.size());
  }

  /// Occurrence count of `key` (0 if absent).
  uint32_t Count(uint32_t key) const {
    size_t i = Hash(key) & mask_;
    while (slots_[i].count != 0) {
      if (slots_[i].key == key) return slots_[i].count;
      i = (i + 1) & mask_;
    }
    return 0;
  }

  /// Number of distinct keys currently stored.
  size_t DistinctKeys() const { return used_slots_.size(); }

  /// Process-wide count of table growths (rehashes) across all
  /// WalkCounters. Growth means a counter was constructed with too small a
  /// capacity — the obs subsystem surfaces this as the
  /// "util.walk_counter.grows" gauge so sizing regressions show up in
  /// bench metrics. (Raw atomic rather than an obs metric: util must not
  /// depend on obs.)
  static uint64_t TotalGrows() {
    return GrowCount().load(std::memory_order_relaxed);
  }

  /// Invokes fn(key, count) for each distinct key, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t i : used_slots_) fn(slots_[i].key, slots_[i].count);
  }

 private:
  // Fibonacci multiplicative hash: one multiply instead of the classic
  // three-round splitmix. Keys are vertex ids (small dense integers), for
  // which the golden-ratio multiply already spreads consecutive values far
  // apart; the xor folds the well-mixed high bits into the low bits the
  // power-of-two mask keeps. Cuts the serial hash latency roughly 3x on
  // the Add/Count hot paths without measurably changing probe lengths at
  // the <= 50% load factor the table maintains.
  static size_t Hash(uint32_t key) {
    uint32_t h = key * 0x9e3779b9u;
    h ^= h >> 16;
    return h;
  }

  /// Add without the growth check (the caller has ensured capacity).
  void AddUnchecked(uint32_t key) {
    size_t i = Hash(key) & mask_;
    while (slots_[i].count != 0 && slots_[i].key != key) i = (i + 1) & mask_;
    if (slots_[i].count == 0) {
      slots_[i].key = key;
      used_slots_.push_back(i);
    }
    ++slots_[i].count;
  }

  void Rebuild(size_t capacity) {
    size_t size = 16;
    while (size < capacity * 2) size <<= 1;
    slots_.assign(size, Entry{0, 0});
    mask_ = size - 1;
    used_slots_.clear();
    used_slots_.reserve(capacity);
  }

  static std::atomic<uint64_t>& GrowCount() {
    static std::atomic<uint64_t> count{0};
    return count;
  }

  void Grow() {
    GrowCount().fetch_add(1, std::memory_order_relaxed);
    std::vector<Entry> old;
    old.reserve(used_slots_.size());
    for (uint32_t i : used_slots_) old.push_back(slots_[i]);
    Rebuild(slots_.size());  // doubles: capacity = old size.
    for (const Entry& e : old) {
      size_t i = Hash(e.key) & mask_;
      while (slots_[i].count != 0) i = (i + 1) & mask_;
      slots_[i] = e;
      used_slots_.push_back(i);
    }
  }

  ArenaVector<Entry> slots_;
  // Slot indices, uint32_t rather than size_t: the table never reaches
  // 2^32 slots (capacities are walk counts), and the narrower type halves
  // the traffic of Clear/ForEach/insert bookkeeping.
  ArenaVector<uint32_t> used_slots_;
  size_t mask_ = 0;
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_COUNTER_H_
