#include "simrank/monte_carlo.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "simrank/walk_kernel.h"

namespace simrank {

namespace {

// Walk-simulation counters. Bumped once per WalkSet / profile / estimate
// (not per step), so the instrumentation cost is a few relaxed atomic adds
// against hundreds of RandomInNeighbor calls.
obs::Counter& WalksStartedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("mc.walks_started");
  return counter;
}

obs::Counter& ProfilesBuiltCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("mc.profiles_built");
  return counter;
}

obs::Counter& EstimatesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Default().GetCounter("mc.estimates");
  return counter;
}

}  // namespace

WalkSet::WalkSet(const DirectedGraph& graph, Vertex origin, uint32_t num_walks,
                 Arena* arena)
    : graph_(graph), positions_(arena), live_count_(num_walks) {
  SIMRANK_CHECK_LT(origin, graph.NumVertices());
  positions_.assign(num_walks, origin);
  WalksStartedCounter().Add(num_walks);
}

void WalkSet::Advance(Rng& rng) {
  live_count_ = AdvanceWalksCompact(
      graph_, {positions_.data(), positions_.size()}, live_count_, rng);
}

uint32_t WalkSet::AdvanceCounted(Rng& rng, WalkCounter& counter) {
  Advance(rng);
  // Swap-compaction leaves the survivors in the live() prefix, so one
  // contiguous 16-lane pass counts them; presized, so it never grows.
  counter.AddAllPresized(live());
  return live_count_;
}

WalkProfile::WalkProfile(const DirectedGraph& graph,
                         const SimRankParams& params, Vertex origin,
                         uint32_t num_walks, Rng& rng, Arena* arena)
    : origin_(origin), num_walks_(num_walks), num_steps_(params.num_steps) {
  params.Validate();
  SIMRANK_CHECK_GE(num_walks, 1u);
  ProfilesBuiltCounter().Add(1);
  steps_.reserve(num_steps_);
  WalkSet walks(graph, origin, num_walks, arena);
  // Step 0 is counted directly (all walks sit at the origin); every later
  // step is counted by AdvanceCounted. Sizing the step-t counter by the
  // step-(t-1) live count over-provisions slightly for shrinking
  // populations but guarantees AddAllPresized's no-growth contract.
  // Step 0 holds a single distinct key, so a minimal table suffices.
  WalkCounter first(1, arena);
  first.AddCount(origin, walks.live_count());
  steps_.push_back(std::move(first));
  for (uint32_t t = 1; t < num_steps_; ++t) {
    WalkCounter counter(walks.live_count(), arena);
    if (walks.AdvanceCounted(rng, counter) == 0) break;  // rest is empty
    steps_.push_back(std::move(counter));
  }
  empty_from_ = static_cast<uint32_t>(steps_.size());
}

MonteCarloSimRank::MonteCarloSimRank(const DirectedGraph& graph,
                                     const SimRankParams& params,
                                     std::vector<double> diagonal)
    : graph_(graph), params_(params), diagonal_(std::move(diagonal)) {
  params_.Validate();
  SIMRANK_CHECK_EQ(diagonal_.size(), graph.NumVertices());
}

double MonteCarloSimRank::SinglePair(Vertex u, Vertex v, uint32_t num_walks,
                                     Rng& rng) const {
  const WalkProfile profile(graph_, params_, u, num_walks, rng);
  return EstimateAgainstProfile(profile, v, num_walks, rng);
}

double MonteCarloSimRank::EstimateAgainstProfile(const WalkProfile& profile,
                                                 Vertex v, uint32_t num_walks,
                                                 Rng& rng,
                                                 Arena* arena) const {
  SIMRANK_CHECK_GE(num_walks, 1u);
  SIMRANK_CHECK_LT(v, graph_.NumVertices());
  EstimatesCounter().Add(1);
  const double normalizer =
      1.0 / (static_cast<double>(profile.num_walks()) *
             static_cast<double>(num_walks));
  // The candidate's walks are scratch scoped to this call: mark/rewind so
  // scoring a thousand candidates against one profile reuses the same few
  // kilobytes instead of bumping the arena a thousand times.
  const Arena::Marker marker =
      arena != nullptr ? arena->Mark() : Arena::Marker{};
  WalkSet walks(graph_, v, num_walks, arena);
  double score = 0.0;
  double decay_pow = 1.0;
  // Steps at or past the profile's empty_from contribute alpha = 0, so the
  // candidate's walks stop as soon as either endpoint's measure is empty.
  const uint32_t steps = std::min(params_.num_steps, profile.empty_from());
  for (uint32_t t = 0; t < steps; ++t) {
    // sum_w c^t D_ww alpha(w) beta(w) / (R_u R_v), Eq. (14): iterate this
    // endpoint's live walks one by one (each contributes beta-weight 1).
    const WalkCounter& measure = profile.MeasureAt(t);
    double term = 0.0;
    for (Vertex position : walks.live()) {
      const uint32_t alpha = measure.Count(position);
      if (alpha != 0) term += diagonal_[position] * alpha;
    }
    score += decay_pow * term * normalizer;
    decay_pow *= params_.decay;
    if (t + 1 < steps) {
      if (walks.AllDead()) break;
      walks.Advance(rng);
    }
  }
  if (arena != nullptr) arena->Rewind(marker);
  return score;
}

uint32_t MonteCarloSimRank::RequiredSamples(const SimRankParams& params,
                                            uint64_t n, double epsilon,
                                            double delta) {
  SIMRANK_CHECK_GT(epsilon, 0.0);
  SIMRANK_CHECK_GT(delta, 0.0);
  const double one_minus_c = 1.0 - params.decay;
  const double samples =
      2.0 * one_minus_c * one_minus_c *
      std::log(4.0 * static_cast<double>(n) * params.num_steps / delta) /
      (epsilon * epsilon);
  return samples < 1.0 ? 1u : static_cast<uint32_t>(std::ceil(samples));
}

}  // namespace simrank
