#ifndef SIMRANK_OBS_PHASE_H_
#define SIMRANK_OBS_PHASE_H_

// Per-phase query timings (docs/OBSERVABILITY.md, "Query phases").
//
// A query is a fixed pipeline. The Monte-Carlo backend runs a BFS, the
// L1 bound of Algorithm 2, the walk profile and the candidate loop
// (Algorithm 5); the exact backend runs a forward and a backward pass.
// QueryPhase lists those phases once. QueryStats and QueryEvent each carry
// one PhaseTimes, and the backends publish one `query.phase.<name>_ns`
// histogram per phase, so bench JSON, serving JSON and the event log
// report the same phases.
//
// PhaseClock times consecutive phases with one steady-clock read per
// boundary; nothing is read per candidate. It also names the running
// phase for SIMRANK_CHECK's failure context (util/check.h): a CHECK
// failure inside a query names its phase in the message and in the
// postmortem dump, whether or not any log is armed.
//
// Thread confinement: the phase name is thread-local, and a PhaseClock or
// ScopedPhaseName belongs to the thread that created it.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace simrank::obs {

/// The phases of one query, in pipeline order. Values index PhaseTimes.
enum class QueryPhase : uint8_t {
  kBfs = 0,            ///< mc: BFS from the query vertex
  kL1 = 1,             ///< mc: the L1 bound table beta(u, d), Algorithm 2
  kProfile = 2,        ///< mc: the query vertex's walk profile
  kCandidates = 3,     ///< mc: enumeration, bound pruning and scoring
  kExactForward = 4,   ///< exact: forward pass, D P^t e_u for every t
  kExactBackward = 5,  ///< exact: backward Horner pass over the graph
};

inline constexpr size_t kNumQueryPhases = 6;

/// Stable names, indexed by QueryPhase: the `query.phase.<name>_ns`
/// histogram names and the events JSON keys.
inline constexpr std::array<const char*, kNumQueryPhases> kQueryPhaseNames = {
    "bfs", "l1", "profile", "candidates", "exact_forward", "exact_backward"};

/// Nanoseconds spent per phase. A phase that did not run reads 0.
struct PhaseTimes {
  std::array<uint64_t, kNumQueryPhases> ns{};

  uint64_t& operator[](QueryPhase phase) {
    return ns[static_cast<size_t>(phase)];
  }
  uint64_t operator[](QueryPhase phase) const {
    return ns[static_cast<size_t>(phase)];
  }

  PhaseTimes& operator+=(const PhaseTimes& other) {
    for (size_t i = 0; i < kNumQueryPhases; ++i) ns[i] += other.ns[i];
    return *this;
  }

  uint64_t Sum() const {
    uint64_t total = 0;
    for (const uint64_t phase_ns : ns) total += phase_ns;
    return total;
  }
};

/// Records each phase that ran (non-zero) into its `query.phase.<name>_ns`
/// histogram of MetricsRegistry::Default(). Backends call it once per
/// query, next to `query.count`.
void RecordPhaseHistograms(const PhaseTimes& times);

/// Names the calling thread's phase for its scope and restores the
/// previous name on destruction. `name` must have static storage (string
/// literals, kQueryPhaseNames).
class ScopedPhaseName {
 public:
  explicit ScopedPhaseName(const char* name);
  ~ScopedPhaseName();
  ScopedPhaseName(const ScopedPhaseName&) = delete;
  ScopedPhaseName& operator=(const ScopedPhaseName&) = delete;

  /// Renames the phase this scope opened.
  void Set(const char* name);

 private:
  const char* previous_;
};

/// Times consecutive phases of one query: entering a phase closes the
/// running one, so each boundary costs one clock read. Each phase's time
/// is added to `times`, and the phases tile the interval from
/// construction to Stop(), so their sum is the total Stop() returns.
class PhaseClock {
 public:
  using Clock = std::chrono::steady_clock;

  /// Starts the clock with `first` running.
  PhaseClock(PhaseTimes& times, QueryPhase first);

  /// Closes the running phase and starts `next`.
  void Enter(QueryPhase next) {
    const Clock::time_point now = Clock::now();
    Charge(now);
    running_ = next;
    phase_start_ = now;
    name_.Set(kQueryPhaseNames[static_cast<size_t>(next)]);
  }

  /// Closes the running phase and returns the time since construction.
  /// Call it once, last.
  std::chrono::nanoseconds Stop() {
    const Clock::time_point now = Clock::now();
    Charge(now);
    return now - start_;
  }

 private:
  void Charge(Clock::time_point now) {
    const std::chrono::nanoseconds elapsed = now - phase_start_;
    times_[running_] += static_cast<uint64_t>(elapsed.count());
  }

  PhaseTimes& times_;
  ScopedPhaseName name_;
  QueryPhase running_;
  Clock::time_point start_;
  Clock::time_point phase_start_;
};

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_PHASE_H_
