#ifndef SIMRANK_UTIL_FAULT_INJECTION_H_
#define SIMRANK_UTIL_FAULT_INJECTION_H_

// Deterministic fault injection for robustness tests (docs/ROBUSTNESS.md).
//
// Library code declares *named injection sites* on its failure-prone paths
// (IO, checkpointing) with SIMRANK_FAULT_POINT("io.atomic.rename"). A site
// compiles to nothing unless the build defines SIMRANK_FAULT_INJECTION
// (the default when tests are built; release builds configured with
// -DSIMRANK_FAULT_INJECTION=OFF carry zero code and zero overhead). When
// compiled in but not armed, a site costs one relaxed atomic load.
//
// Tests (or an operator reproducing a failure) arm sites through the API
// or the SIMRANK_FAULTS environment variable:
//
//   SIMRANK_FAULTS="io.atomic.sync=error@2,ckpt.chunk.write=abort@3"
//   SIMRANK_FAULT_SEED=7
//
// Spec grammar: comma-separated `site=action@trigger` clauses, where
// action is `error` (synthetic Status::IoError), `corrupt` (synthetic
// Status::Corruption), `abort` (hard std::_Exit — simulates a crash:
// no destructors, no stdio flush) or `check` (a SIMRANK_CHECK failure —
// runs the registered abort hooks, so the postmortem dump machinery is
// exercised), and trigger is either `N` (fire on
// exactly the Nth hit of the site, 1-based) or `pX` (fire independently
// with probability X on every hit, from a stream seeded by
// SIMRANK_FAULT_SEED / set_seed — deterministic given the hit order).
//
// Every hit and every fired injection is counted; the counters surface as
// "faults.*" in obs::MetricsRegistry snapshots (the registry pulls them,
// keeping util free of an obs dependency).

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace simrank::fault {

/// What an armed site injects when its trigger fires.
enum class Action {
  kError,      ///< return Status::IoError from the site
  kCorrupt,    ///< return Status::Corruption from the site
  kAbort,      ///< std::_Exit(kAbortExitCode): a crash, not an exception
  kCheckFail,  ///< fail a SIMRANK_CHECK: abort() after running the
               ///< registered check hooks (context + postmortem dump) —
               ///< unlike kAbort, which simulates a hook-less hard crash
};

/// Exit code of Action::kAbort deaths, distinct from every documented CLI
/// exit code so the chaos harness can tell an injected crash from a
/// regular failure.
inline constexpr int kAbortExitCode = 77;

/// Trigger + action of one armed site. Exactly one of `on_hit` /
/// `probability` should be set; if both are, either firing injects.
struct SiteConfig {
  Action action = Action::kError;
  /// Fire on exactly the Nth hit of the site (1-based); 0 disables.
  uint64_t on_hit = 0;
  /// Fire independently with this probability on every hit; 0 disables.
  double probability = 0.0;
};

/// Process-wide injector. All methods are thread-safe; Hit() is the only
/// one on a library path and is a single relaxed load when nothing is
/// armed.
class FaultInjector {
 public:
  /// The process-wide injector used by SIMRANK_FAULT_POINT. On first use
  /// it arms itself from the SIMRANK_FAULTS / SIMRANK_FAULT_SEED
  /// environment variables (a malformed spec, or a seed that is not a
  /// decimal unsigned 64-bit integer, aborts: a typo'd chaos run must not
  /// silently test nothing).
  static FaultInjector& Default();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms `site` (enabling the injector). Re-arming a site replaces its
  /// config and resets its hit count.
  void Arm(const std::string& site, SiteConfig config) SIMRANK_EXCLUDES(mutex_);

  /// Parses the SIMRANK_FAULTS grammar above and arms each clause.
  Status ArmFromSpec(const std::string& spec);

  /// Seeds the probabilistic-trigger stream (default 42).
  void set_seed(uint64_t seed) SIMRANK_EXCLUDES(mutex_);

  /// Disarms every site, zeroes all counters, and disables the injector.
  void Clear() SIMRANK_EXCLUDES(mutex_);

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// The implementation of SIMRANK_FAULT_POINT: counts the hit and
  /// returns the injected error if `site` is armed and its trigger fires
  /// (or never returns, for Action::kAbort).
  Status Hit(const char* site) SIMRANK_EXCLUDES(mutex_);

  /// Hits recorded for `site` (0 if never hit).
  uint64_t HitCount(const std::string& site) const SIMRANK_EXCLUDES(mutex_);
  /// Injections fired for `site` (aborts never return, so this counts
  /// error/corrupt firings).
  uint64_t InjectedCount(const std::string& site) const
      SIMRANK_EXCLUDES(mutex_);

  /// Flat counter view for metrics export: "faults.hits",
  /// "faults.injected", plus per-site "faults.<site>.hits" /
  /// "faults.<site>.injected". Empty when the injector was never hit.
  std::vector<std::pair<std::string, uint64_t>> SnapshotCounters() const
      SIMRANK_EXCLUDES(mutex_);

 private:
  struct SiteState {
    SiteConfig config;
    uint64_t hits = 0;
    uint64_t injected = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::map<std::string, SiteState> sites_ SIMRANK_GUARDED_BY(mutex_);
  /// Probabilistic-trigger stream (project Rng, not std::mt19937: all
  /// randomness in src/ flows through Rng so chaos runs are reproducible
  /// from one seeding discipline — simrank_lint rule R2).
  Rng rng_ SIMRANK_GUARDED_BY(mutex_){42};
  uint64_t total_hits_ SIMRANK_GUARDED_BY(mutex_) = 0;
  uint64_t total_injected_ SIMRANK_GUARDED_BY(mutex_) = 0;
};

/// Convenience forwarder used by the macros.
inline Status Hit(const char* site) {
  FaultInjector& injector = FaultInjector::Default();
  if (!injector.enabled()) return Status::OK();
  return injector.Hit(site);
}

}  // namespace simrank::fault

#ifdef SIMRANK_FAULT_INJECTION

/// Declares a named injection site in a function returning Status (or
/// Result<T>): when the site fires, the injected error is returned.
#define SIMRANK_FAULT_POINT(site)                                  \
  do {                                                             \
    ::simrank::Status fault_injected_ = ::simrank::fault::Hit(site); \
    if (!fault_injected_.ok()) return fault_injected_;             \
  } while (false)

/// Site variant for code that tracks failure in a sticky Status lvalue
/// instead of returning: when the site fires, the lvalue is set (if still
/// OK) and control continues, letting the surrounding status checks skip
/// the real operation.
#define SIMRANK_FAULT_POINT_SET(site, status_lvalue)               \
  do {                                                             \
    ::simrank::Status fault_injected_ = ::simrank::fault::Hit(site); \
    if (!fault_injected_.ok() && (status_lvalue).ok()) {           \
      (status_lvalue) = fault_injected_;                           \
    }                                                              \
  } while (false)

#else  // !SIMRANK_FAULT_INJECTION

#define SIMRANK_FAULT_POINT(site) ((void)0)
#define SIMRANK_FAULT_POINT_SET(site, status_lvalue) ((void)0)

#endif  // SIMRANK_FAULT_INJECTION

#endif  // SIMRANK_UTIL_FAULT_INJECTION_H_
