#ifndef SIMRANK_UTIL_TIMER_H_
#define SIMRANK_UTIL_TIMER_H_

#include <chrono>

namespace simrank {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_TIMER_H_
