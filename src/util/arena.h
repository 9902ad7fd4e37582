#ifndef SIMRANK_UTIL_ARENA_H_
#define SIMRANK_UTIL_ARENA_H_

// Bump/arena allocator for per-query walk workspaces.
//
// The Monte-Carlo query path used to malloc per query: a WalkCounter table
// per step of the profile, a WalkSet position array per scored candidate,
// and assorted scratch. Arena replaces that churn with the explicit-free-
// list idiom: blocks are malloc'd once, kept on the arena's chain forever,
// and Reset() — constant time — rewinds the bump cursor so the next query
// reuses the same memory. A workspace that was presized (Reserve, or a
// right-sized first block) performs *zero* mallocs in steady state; the
// process-wide TotalSteadyStateAllocs() counter — exported as the
// "util.arena.steady_state_allocs" obs gauge and asserted == 0 by the CI
// bench validation — catches sizing regressions the same way
// WalkCounter::TotalGrows() catches counter presizing bugs.
//
// Not thread-safe: one arena per workspace, one workspace per in-flight
// query (the searcher's workspace freelist already guarantees exclusivity).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace simrank {

class Arena {
 public:
  /// The first block is allocated lazily with at least
  /// `first_block_bytes` of usable space, so a caller that knows its
  /// worst-case generation size up front gets a single-block arena.
  explicit Arena(size_t first_block_bytes = kDefaultFirstBlockBytes)
      : first_block_bytes_(first_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept {
    if (this != &other) {
      FreeChain();
      head_ = std::exchange(other.head_, nullptr);
      current_ = std::exchange(other.current_, nullptr);
      ptr_ = std::exchange(other.ptr_, nullptr);
      end_ = std::exchange(other.end_, nullptr);
      first_block_bytes_ = other.first_block_bytes_;
      block_bytes_ = std::exchange(other.block_bytes_, 0);
      warm_ = std::exchange(other.warm_, false);
    }
    return *this;
  }

  ~Arena() { FreeChain(); }

  /// Bump-allocates `bytes` aligned to `alignment` (a power of two).
  /// Never fails for reasonable sizes; the returned memory lives until
  /// Reset()/Rewind() passes over it or the arena dies.
  void* Allocate(size_t bytes, size_t alignment = alignof(std::max_align_t)) {
    SIMRANK_CHECK((alignment & (alignment - 1)) == 0);
    char* aligned = AlignUp(ptr_, alignment);
    if (aligned == nullptr || bytes > static_cast<size_t>(end_ - aligned)) {
      aligned = Refill(bytes, alignment);
    }
    ptr_ = aligned + bytes;
    return aligned;
  }

  /// Typed array allocation (uninitialized; T must be trivial so Reset can
  /// drop generations without running destructors).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds the cursor to the start of the chain, constant time. Every
  /// block stays allocated (the explicit free list) for the next
  /// generation to reuse.
  void Reset() {
    // The arena counts as warm — in steady state — once it has survived a
    // full generation: block mallocs after this point indicate the
    // presizing missed the workload's high-water mark.
    if (head_ != nullptr) warm_ = true;
    current_ = head_;
    ptr_ = current_ != nullptr ? current_->data() : nullptr;
    end_ = current_ != nullptr ? current_->data() + current_->size : nullptr;
  }

  /// A point-in-time cursor for nested scopes (per-candidate scratch
  /// inside a per-query arena). Rewind drops everything allocated after
  /// the mark, constant time.
  struct Marker {
    void* block = nullptr;
    char* ptr = nullptr;
  };

  Marker Mark() const { return Marker{current_, ptr_}; }

  void Rewind(const Marker& marker) {
    if (marker.block == nullptr) {
      Reset();
      // Reset marks the arena warm; rewinding to a pre-first-allocation
      // marker is not the end of a generation, so undo that.
      warm_ = false;
      return;
    }
    current_ = static_cast<Block*>(marker.block);
    ptr_ = marker.ptr;
    end_ = current_->data() + current_->size;
  }

  /// Ensures the chain owns a block of at least `bytes` usable space, so
  /// a generation whose allocations total at most `bytes` cannot malloc.
  /// Call before the first Reset(); afterwards it would count toward the
  /// steady-state gauge like any other growth.
  void Reserve(size_t bytes);

  /// Total usable bytes owned by the block chain.
  size_t BlockBytes() const { return block_bytes_; }

  /// True once the arena has completed a generation (Reset with at least
  /// one block allocated); block mallocs from then on are steady-state.
  bool warm() const { return warm_; }

  /// Process-wide count of arena block mallocs.
  static uint64_t TotalBlockAllocs() {
    return BlockAllocCount().load(std::memory_order_relaxed);
  }

  /// Process-wide count of block mallocs performed by *warm* arenas. Zero
  /// in a correctly presized steady state; exported as the
  /// "util.arena.steady_state_allocs" gauge. (Raw atomic rather than an
  /// obs metric: util must not depend on obs.)
  static uint64_t TotalSteadyStateAllocs() {
    return SteadyStateAllocCount().load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kDefaultFirstBlockBytes = 1u << 12;

  struct Block {
    Block* next;
    size_t size;  // usable bytes following the header
    char* data() { return reinterpret_cast<char*>(this + 1); }
  };

  static char* AlignUp(char* p, size_t alignment) {
    return reinterpret_cast<char*>(
        (reinterpret_cast<uintptr_t>(p) + alignment - 1) &
        ~static_cast<uintptr_t>(alignment - 1));
  }

  static std::atomic<uint64_t>& BlockAllocCount() {
    static std::atomic<uint64_t> count{0};
    return count;
  }

  static std::atomic<uint64_t>& SteadyStateAllocCount() {
    static std::atomic<uint64_t> count{0};
    return count;
  }

  Block* NewBlock(size_t usable);
  Block* AppendBlock(size_t usable);

  // Cold path of Allocate: advance along the recycled chain until a block
  // fits, appending a geometrically sized block when none does.
  char* Refill(size_t bytes, size_t alignment);

  void FreeChain();

  Block* head_ = nullptr;     // full chain, in allocation order
  Block* current_ = nullptr;  // block the cursor is in
  char* ptr_ = nullptr;
  char* end_ = nullptr;
  size_t first_block_bytes_;
  size_t block_bytes_ = 0;
  bool warm_ = false;
};

/// Minimal vector over trivially-copyable elements whose storage comes
/// from an Arena when one is supplied and from the heap otherwise. Grown
/// storage in arena mode is abandoned (reclaimed wholesale by the owner's
/// Reset), which is exactly the explicit-free-list contract: consumers
/// presize, growth is the exception the gauges catch.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  ArenaVector() = default;
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  ArenaVector(const ArenaVector&) = delete;
  ArenaVector& operator=(const ArenaVector&) = delete;

  ArenaVector(ArenaVector&& other) noexcept { *this = std::move(other); }
  ArenaVector& operator=(ArenaVector&& other) noexcept {
    if (this != &other) {
      FreeHeap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
      arena_ = other.arena_;
    }
    return *this;
  }

  ~ArenaVector() { FreeHeap(); }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Regrow(capacity);
  }

  void push_back(const T& value) {
    if (size_ == capacity_) Regrow(capacity_ == 0 ? 16 : capacity_ * 2);
    data_[size_++] = value;
  }

  /// Discards the contents and refills with `count` copies of `value`.
  void assign(size_t count, const T& value) {
    reserve(count);
    for (size_t i = 0; i < count; ++i) data_[i] = value;
    size_ = count;
  }

  void clear() { size_ = 0; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Regrow(size_t capacity) {
    T* grown = arena_ != nullptr
                   ? arena_->AllocateArray<T>(capacity)
                   : static_cast<T*>(::operator new(capacity * sizeof(T)));
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    FreeHeap();
    data_ = grown;
    capacity_ = capacity;
  }

  void FreeHeap() {
    if (arena_ == nullptr && data_ != nullptr) {
      ::operator delete(static_cast<void*>(data_));
    }
    data_ = nullptr;
    capacity_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
  Arena* arena_ = nullptr;
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_ARENA_H_
