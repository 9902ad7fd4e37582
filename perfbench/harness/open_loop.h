#ifndef PERFBENCH_HARNESS_OPEN_LOOP_H_
#define PERFBENCH_HARNESS_OPEN_LOOP_H_

// Open-loop sending on a fixed schedule, with latency timed on the
// harness's own clock from when each request was due to when its future
// became ready, so a stalled sender's delay counts against every request
// it held back and every cost inside Submit and the engine counts too.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <optional>
#include <thread>
#include <vector>

namespace perfbench {

/// Replays the schedule `due` (times on the `now` clock, in seconds,
/// nondecreasing): waits until each arrival is due, then calls send(i)
/// whether or not earlier requests have finished. `now` returns the
/// current time and `sleep_until` blocks until a time on the same clock.
/// Returns, per arrival, how late it was sent: the clock reading just
/// before send(i) minus its due time, never negative.
template <typename Now, typename SleepUntil, typename Send>
std::vector<double> RunOpenLoop(const std::vector<double>& due, Now&& now,
                                SleepUntil&& sleep_until, Send&& send) {
  std::vector<double> late(due.size(), 0.0);
  for (size_t i = 0; i < due.size(); ++i) {
    if (now() < due[i]) sleep_until(due[i]);
    late[i] = std::max(0.0, now() - due[i]);
    send(i);
  }
  return late;
}

/// Stamps, on a collector thread, when each of `n` futures becomes ready,
/// while a sender thread hands them over. The sender calls Add with
/// increasing indices; an index it skips has no future. A stamp is the
/// time since `origin` in seconds, read at most one poll interval after
/// the future became ready (sooner for the oldest outstanding one, which
/// the collector blocks on). With nothing outstanding the collector
/// sleeps until the next Add.
template <typename T>
class CompletionStamper {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::chrono::microseconds kPoll{50};

  CompletionStamper(size_t n, Clock::time_point origin)
      : origin_(origin), slots_(n), done_(n, -1.0) {
    collector_ = std::thread([this] { Collect(); });
  }
  ~CompletionStamper() {
    if (collector_.joinable()) Finish();
  }
  CompletionStamper(const CompletionStamper&) = delete;
  CompletionStamper& operator=(const CompletionStamper&) = delete;

  /// Hands over request i's future (sender thread only).
  void Add(size_t i, std::future<T> future) {
    slots_[i].emplace(std::move(future));
    published_.store(i + 1, std::memory_order_release);
    published_.notify_one();
  }

  /// Waits until every handed-over future is ready and returns the
  /// stamps; an index without a future has a negative stamp.
  const std::vector<double>& Finish() {
    published_.store(slots_.size(), std::memory_order_release);
    published_.notify_one();
    collector_.join();
    return done_;
  }

  /// Request i's future, or null when it had none (valid after Finish).
  std::future<T>* future(size_t i) {
    return slots_[i].has_value() ? &*slots_[i] : nullptr;
  }

 private:
  void Collect() {
    std::vector<size_t> open;
    size_t seen = 0;
    for (;;) {
      const size_t published = published_.load(std::memory_order_acquire);
      for (; seen < published; ++seen) {
        if (slots_[seen].has_value()) open.push_back(seen);
      }
      if (open.empty()) {
        if (seen == slots_.size()) return;
        published_.wait(published, std::memory_order_acquire);
        continue;
      }
      slots_[open.front()]->wait_for(kPoll);
      const double now =
          std::chrono::duration<double>(Clock::now() - origin_).count();
      std::erase_if(open, [&](size_t i) {
        if (slots_[i]->wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        done_[i] = now;
        return true;
      });
    }
  }

  const Clock::time_point origin_;
  std::vector<std::optional<std::future<T>>> slots_;
  std::vector<double> done_;
  std::atomic<size_t> published_{0};
  std::thread collector_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_OPEN_LOOP_H_
