#include "util/fault_injection.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "util/check.h"
#include "util/parse.h"

namespace simrank::fault {

namespace {

// Parses the trigger token of a clause: "N" (Nth hit) or "pX"
// (probability X in [0, 1]).
Status ParseTrigger(const std::string& token, SiteConfig& config) {
  if (token.empty()) {
    return Status::InvalidArgument("fault spec: empty trigger");
  }
  if (token[0] == 'p') {
    const std::optional<double> p = ParseNumber<double>(token.substr(1));
    if (!p.has_value() || !(*p >= 0.0) || *p > 1.0) {
      return Status::InvalidArgument("fault spec: bad probability '" + token +
                                     "'");
    }
    config.probability = *p;
    return Status::OK();
  }
  const std::optional<uint64_t> n = ParseNumber<uint64_t>(token);
  if (!n.has_value() || *n == 0) {
    return Status::InvalidArgument("fault spec: bad hit count '" + token +
                                   "'");
  }
  config.on_hit = *n;
  return Status::OK();
}

Status ParseClause(const std::string& clause, std::string& site,
                   SiteConfig& config) {
  const size_t eq = clause.find('=');
  const size_t at = clause.find('@');
  if (eq == std::string::npos || at == std::string::npos || at < eq ||
      eq == 0) {
    return Status::InvalidArgument(
        "fault spec: expected site=action@trigger, got '" + clause + "'");
  }
  site = clause.substr(0, eq);
  const std::string action = clause.substr(eq + 1, at - eq - 1);
  if (action == "error") {
    config.action = Action::kError;
  } else if (action == "corrupt") {
    config.action = Action::kCorrupt;
  } else if (action == "abort") {
    config.action = Action::kAbort;
  } else if (action == "check") {
    config.action = Action::kCheckFail;
  } else {
    return Status::InvalidArgument("fault spec: unknown action '" + action +
                                   "'");
  }
  return ParseTrigger(clause.substr(at + 1), config);
}

// A chaos run with a typo'd variable must fail loudly, not silently test
// nothing (or test with another seed than it names).
[[noreturn]] void AbortOnBadVariable(const char* variable,
                                     const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", variable, message.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace

FaultInjector& FaultInjector::Default() {
  static FaultInjector* injector = [] {
    auto* instance = new FaultInjector();
    if (const char* seed = std::getenv("SIMRANK_FAULT_SEED");
        seed != nullptr && *seed != '\0') {
      const std::optional<uint64_t> value = ParseNumber<uint64_t>(seed);
      if (!value.has_value()) {
        AbortOnBadVariable("SIMRANK_FAULT_SEED",
                           "expected a decimal unsigned 64-bit integer, got '" +
                               std::string(seed) + "'");
      }
      instance->set_seed(*value);
    }
    if (const char* spec = std::getenv("SIMRANK_FAULTS");
        spec != nullptr && *spec != '\0') {
      const Status status = instance->ArmFromSpec(spec);
      if (!status.ok()) AbortOnBadVariable("SIMRANK_FAULTS", status.ToString());
    }
    return instance;
  }();
  return *injector;
}

void FaultInjector::Arm(const std::string& site, SiteConfig config) {
  MutexLock lock(mutex_);
  sites_[site] = SiteState{config, 0, 0};
  enabled_.store(true, std::memory_order_relaxed);
}

Status FaultInjector::ArmFromSpec(const std::string& spec) {
  for (const std::string_view clause : Split(spec, ",")) {
    if (clause.empty()) continue;
    std::string site;
    SiteConfig config;
    SIMRANK_RETURN_IF_ERROR(ParseClause(std::string(clause), site, config));
    Arm(site, config);
  }
  return Status::OK();
}

void FaultInjector::set_seed(uint64_t seed) {
  MutexLock lock(mutex_);
  rng_.Seed(seed);
}

void FaultInjector::Clear() {
  MutexLock lock(mutex_);
  sites_.clear();
  total_hits_ = 0;
  total_injected_ = 0;
  enabled_.store(false, std::memory_order_relaxed);
}

Status FaultInjector::Hit(const char* site) {
  if (!enabled()) return Status::OK();
  Action action = Action::kError;
  bool fire = false;
  {
    MutexLock lock(mutex_);
    ++total_hits_;
    auto it = sites_.find(site);
    if (it == sites_.end()) {
      // Count unarmed hits too: chaos tooling uses the counters to
      // discover which sites a workload actually passes through.
      ++sites_[site].hits;
      return Status::OK();
    }
    SiteState& state = it->second;
    ++state.hits;
    if (state.config.on_hit > 0 && state.hits == state.config.on_hit) {
      fire = true;
    }
    if (!fire && state.config.probability > 0.0) {
      fire = rng_.Bernoulli(state.config.probability);
    }
    if (fire) {
      action = state.config.action;
      if (action != Action::kAbort && action != Action::kCheckFail) {
        ++state.injected;
        ++total_injected_;
      }
    }
  }
  if (!fire) return Status::OK();
  switch (action) {
    case Action::kAbort:
      // Simulate a crash at this site: no destructors, no atexit, no
      // stdio flush — whatever was not durably written is lost, which is
      // exactly what the checkpoint/atomic-write machinery must survive.
      std::fprintf(stderr, "fault injection: hard abort at site %s\n", site);
      std::fflush(stderr);
      std::_Exit(kAbortExitCode);
    case Action::kCheckFail:
      // Simulate an invariant violation at this site: the full
      // SIMRANK_CHECK death path runs (phase context, abort hooks —
      // i.e. the crash postmortem dump), then abort(). Deliberately
      // outside the injector lock: the abort hook may itself pass
      // through fault points.
      internal::CheckFailed("fault-injection", 0, site);
    case Action::kCorrupt:
      return Status::Corruption(std::string("injected fault at ") + site);
    case Action::kError:
      break;
  }
  return Status::IoError(std::string("injected fault at ") + site);
}

uint64_t FaultInjector::HitCount(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

uint64_t FaultInjector::InjectedCount(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.injected;
}

std::vector<std::pair<std::string, uint64_t>>
FaultInjector::SnapshotCounters() const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, uint64_t>> counters;
  if (total_hits_ == 0) return counters;
  counters.emplace_back("faults.hits", total_hits_);
  counters.emplace_back("faults.injected", total_injected_);
  for (const auto& [site, state] : sites_) {
    counters.emplace_back("faults." + site + ".hits", state.hits);
    counters.emplace_back("faults." + site + ".injected", state.injected);
  }
  return counters;
}

}  // namespace simrank::fault
