#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"

namespace simrank {

ThreadPool::ThreadPool(size_t num_threads) {
  SIMRANK_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    SIMRANK_CHECK(!shutting_down_);
    tasks_.push(std::move(task));
  }
  work_available_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && tasks_.empty()) work_available_.Wait(lock);
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  if (pool == nullptr || pool->num_threads() == 1) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const size_t total = end - begin;
  const size_t num_chunks = std::min(total, pool->num_threads() * 4);
  const size_t chunk = (total + num_chunks - 1) / num_chunks;

  // Per-call completion state: chunks of this call signal `done` when
  // `remaining` hits zero, so concurrent ParallelFor calls sharing one pool
  // wait only on their own work. A chunk catches its own exception: pool
  // tasks must not throw.
  struct CallState {
    Mutex mutex;
    CondVar done;
    size_t remaining SIMRANK_GUARDED_BY(mutex) = 0;
    std::exception_ptr error SIMRANK_GUARDED_BY(mutex);
  };
  CallState state;
  {
    MutexLock lock(state.mutex);
    state.remaining = (total + chunk - 1) / chunk;
  }

  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = std::min(lo + chunk, end);
    pool->Submit([lo, hi, &fn, &state] {
      std::exception_ptr error;
      try {
        for (size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      // Notify under the lock: once `remaining` hits zero the caller
      // may destroy `state`, so the signal and the final touch of the
      // struct must be one critical section.
      MutexLock lock(state.mutex);
      if (error && !state.error) state.error = error;
      if (--state.remaining == 0) state.done.NotifyAll();
    });
  }

  std::exception_ptr error;
  {
    MutexLock lock(state.mutex);
    while (state.remaining != 0) state.done.Wait(lock);
    std::swap(error, state.error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace simrank
