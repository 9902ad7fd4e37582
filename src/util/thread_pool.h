#ifndef SIMRANK_UTIL_THREAD_POOL_H_
#define SIMRANK_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace simrank {

/// Fixed-size worker pool. The all-pairs similarity search is embarrassingly
/// parallel over query vertices (the paper's "distributed computing
/// friendly" remark, §2.2); this pool is how the single-machine build
/// exploits that.
///
/// Contract: the pool runs submitted closures on N workers, starting them
/// in submission order, and its destructor drains the queue before
/// joining. That is all it does. Completion, errors and queue wait belong
/// to the submitter: ParallelFor waits on its own chunks and rethrows
/// their first exception; the query engine resolves one promise per
/// request and times its queue wait itself.
///
/// A task must not throw. Each submitter catches its own exceptions; one
/// that escapes a task anyway leaves the worker's thread function, so
/// std::thread terminates the process instead of dropping it.
///
/// Thread-safety: Submit() may be called concurrently from any number of
/// threads, tasks included. The queue is guarded by a single mutex —
/// declared to the compiler via the SIMRANK_GUARDED_BY annotations below
/// and enforced at compile time under clang -Wthread-safety (the
/// clang-analysis preset) — and the class is verified race-free under
/// ThreadSanitizer by the stress suite in tests/test_thread_pool.cc.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Runs every already-queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task for asynchronous execution. Must not be called after
  /// the destructor has begun.
  void Submit(std::function<void()> task) SIMRANK_EXCLUDES(mutex_);

 private:
  void WorkerLoop() SIMRANK_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  std::queue<std::function<void()>> tasks_ SIMRANK_GUARDED_BY(mutex_);
  bool shutting_down_ SIMRANK_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [begin, end), statically chunked over `pool` (or
/// inline when pool is null). fn must be safe to call concurrently for
/// distinct i.
///
/// Completion is tracked per call, so concurrent ParallelFor invocations
/// may safely share one pool: each returns as soon as *its own* chunks are
/// done, regardless of other work in flight. If fn throws, the throwing
/// chunk stops at that index, the other chunks still run to completion,
/// and the first exception is rethrown on the calling thread once all
/// chunks of this call have finished.
///
/// Must not be called from inside a pool task: the chunks would need the
/// very workers that are blocked waiting on them.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn);

}  // namespace simrank

#endif  // SIMRANK_UTIL_THREAD_POOL_H_
