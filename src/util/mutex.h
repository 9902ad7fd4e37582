#ifndef SIMRANK_UTIL_MUTEX_H_
#define SIMRANK_UTIL_MUTEX_H_

// Annotated synchronization primitives (docs/STATIC_ANALYSIS.md).
//
// Thin zero-overhead wrappers over std::mutex / std::condition_variable
// that carry Clang Thread Safety Analysis capability attributes, so that
// SIMRANK_GUARDED_BY(mutex_) declarations on data members are actually
// checkable: the analysis only binds to types declared as capabilities,
// and libstdc++'s std::mutex is not one. All lock-protected state in
// src/ uses these types — tools/simrank_lint (rule R3) rejects raw
// std::mutex / std::condition_variable members outside this header.
//
// Usage mirrors the standard library:
//
//   class Queue {
//    public:
//     void Push(Item item) SIMRANK_EXCLUDES(mutex_) {
//       MutexLock lock(mutex_);
//       items_.push_back(std::move(item));
//       ready_.NotifyOne();
//     }
//     Item Pop() SIMRANK_EXCLUDES(mutex_) {
//       MutexLock lock(mutex_);
//       while (items_.empty()) ready_.Wait(lock);  // explicit loop: the
//       ...                                        // analysis cannot see
//     }                                            // through predicates
//    private:
//     Mutex mutex_;
//     CondVar ready_;
//     std::vector<Item> items_ SIMRANK_GUARDED_BY(mutex_);
//   };
//
// Condition waits are explicit while-loops around CondVar::Wait instead of
// the predicate overloads: a predicate lambda is analyzed as a separate
// unannotated function, so reads of guarded members inside it would be
// flagged (or worse, silently unchecked).

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace simrank {

/// std::mutex with the `mutex` capability attribute. Non-recursive,
/// non-copyable; same cost as the underlying std::mutex.
class SIMRANK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class MutexLock;
  std::mutex mutex_;
};

/// RAII lock for Mutex (std::lock_guard + std::unique_lock in one,
/// annotated as a scoped capability). Holds the lock for its whole
/// lifetime; CondVar::Wait releases and reacquires it internally.
class SIMRANK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) SIMRANK_ACQUIRE(mutex)
      : lock_(mutex.mutex_) {}
  ~MutexLock() SIMRANK_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable bound to MutexLock. Wait must be called with
/// the lock held and is always wrapped in an explicit condition loop by
/// the caller (see the header comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `lock`, blocks until notified, reacquires.
  /// Spurious wakeups happen; callers loop on their condition.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  void NotifyOne() noexcept { cv_.notify_one(); }
  void NotifyAll() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_MUTEX_H_
