#include "obs/phase.h"

#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "util/check.h"

namespace simrank::obs {

namespace {

thread_local const char* t_phase_name = nullptr;

// CHECK-failure context hook (see util/check.h): the calling thread's
// phase name. Registered on the first ScopedPhaseName, so util keeps no
// link-time dependency on obs.
void ProvidePhaseContext(char* buffer, size_t buffer_size) {
  if (buffer_size == 0) return;
  buffer[0] = '\0';
  if (t_phase_name != nullptr) {
    std::snprintf(buffer, buffer_size, "%s", t_phase_name);
  }
}

void RegisterCheckContextOnce() {
  static const bool registered = [] {
    simrank::internal::SetCheckContextProvider(&ProvidePhaseContext);
    return true;
  }();
  (void)registered;
}

// The query.phase.<name>_ns histograms, resolved once (registry lookups
// take its mutex).
struct PhaseHistograms {
  std::array<Histogram*, kNumQueryPhases> histograms;

  PhaseHistograms() {
    for (size_t i = 0; i < kNumQueryPhases; ++i) {
      histograms[i] = &MetricsRegistry::Default().GetHistogram(
          std::string("query.phase.") + kQueryPhaseNames[i] + "_ns");
    }
  }
};

}  // namespace

void RecordPhaseHistograms(const PhaseTimes& times) {
  static PhaseHistograms* phases = new PhaseHistograms();
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    if (times.ns[i] > 0) phases->histograms[i]->Record(times.ns[i]);
  }
}

ScopedPhaseName::ScopedPhaseName(const char* name) : previous_(t_phase_name) {
  RegisterCheckContextOnce();
  t_phase_name = name;
}

ScopedPhaseName::~ScopedPhaseName() { t_phase_name = previous_; }

void ScopedPhaseName::Set(const char* name) { t_phase_name = name; }

PhaseClock::PhaseClock(PhaseTimes& times, QueryPhase first)
    : times_(times),
      name_(kQueryPhaseNames[static_cast<size_t>(first)]),
      running_(first),
      start_(Clock::now()),
      phase_start_(start_) {}

}  // namespace simrank::obs
