#include "loadgen/workload.h"

#include <algorithm>
#include <cmath>

namespace simrank::loadgen {

double WorkloadOptions::PeakMultiplier() const {
  // Overlapping bursts multiply, so the envelope is the product of every
  // multiplier that could be simultaneously active. Computing the true
  // maximum over overlaps would need a sweep; the product is a correct
  // (if loose) envelope, and thinning only needs an upper bound.
  double peak = 1.0;
  for (const BurstPhase& burst : bursts) {
    if (burst.rate_multiplier > 1.0) peak *= burst.rate_multiplier;
  }
  return peak;
}

Status WorkloadOptions::Validate() const {
  if (!(duration_seconds > 0.0) || !std::isfinite(duration_seconds)) {
    return Status::InvalidArgument(
        "WorkloadOptions::duration_seconds must be finite and > 0");
  }
  if (!(rate_qps > 0.0) || !std::isfinite(rate_qps)) {
    return Status::InvalidArgument(
        "WorkloadOptions::rate_qps must be finite and > 0");
  }
  for (const BurstPhase& burst : bursts) {
    if (!(burst.start_seconds >= 0.0) || !(burst.duration_seconds >= 0.0) ||
        !(burst.rate_multiplier > 0.0) ||
        !std::isfinite(burst.rate_multiplier)) {
      return Status::InvalidArgument(
          "BurstPhase: start/duration must be >= 0 and multiplier finite "
          "and > 0");
    }
  }
  if (!(zipf_exponent >= 0.0) || !std::isfinite(zipf_exponent)) {
    return Status::InvalidArgument(
        "WorkloadOptions::zipf_exponent must be finite and >= 0");
  }
  const double weights[] = {topk_weight, pair_weight, group_weight,
                            background_weight};
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      return Status::InvalidArgument(
          "WorkloadOptions: mix weights must be finite and >= 0");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    return Status::InvalidArgument(
        "WorkloadOptions: at least one mix weight must be positive");
  }
  if (group_size < 2) {
    return Status::InvalidArgument(
        "WorkloadOptions::group_size must be >= 2");
  }
  if (num_clients < 1) {
    return Status::InvalidArgument(
        "WorkloadOptions::num_clients must be >= 1");
  }
  return Status::OK();
}

ZipfSampler::ZipfSampler(uint32_t universe, double exponent,
                         uint32_t num_vertices, Rng& rng) {
  SIMRANK_CHECK_GT(num_vertices, 0u);
  if (universe == 0 || universe > num_vertices) universe = num_vertices;
  // Identity, then Fisher-Yates over the whole vertex range so the
  // popular ranks land on arbitrary vertex ids. Shuffling all of
  // [0, n) rather than just `universe` entries keeps the choice of
  // *which* vertices are popular unbiased.
  std::vector<Vertex> permutation(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) permutation[i] = i;
  for (uint32_t i = num_vertices - 1; i > 0; --i) {
    const uint32_t j = rng.UniformIndex(i + 1);
    std::swap(permutation[i], permutation[j]);
  }
  rank_to_vertex_.assign(permutation.begin(), permutation.begin() + universe);

  cdf_.resize(universe);
  double total = 0.0;
  for (uint32_t r = 0; r < universe; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

Vertex ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = static_cast<size_t>(it - cdf_.begin());
  return rank_to_vertex_[std::min(rank, rank_to_vertex_.size() - 1)];
}

std::vector<Vertex> ZipfSampler::Head(size_t n) const {
  n = std::min(n, rank_to_vertex_.size());
  return {rank_to_vertex_.begin(), rank_to_vertex_.begin() + n};
}

double RateAt(const WorkloadOptions& options, double t) {
  double rate = options.rate_qps;
  for (const BurstPhase& burst : options.bursts) {
    if (t >= burst.start_seconds &&
        t < burst.start_seconds + burst.duration_seconds) {
      rate *= burst.rate_multiplier;
    }
  }
  return rate;
}

std::vector<Arrival> GenerateArrivals(const WorkloadOptions& options,
                                      uint32_t num_vertices,
                                      const ZipfSampler& popularity,
                                      Rng& rng) {
  SIMRANK_CHECK_GT(num_vertices, 0u);
  // Cumulative mix weights for the categorical kind draw.
  const double weights[kNumTrafficKinds] = {
      options.topk_weight, options.pair_weight, options.group_weight,
      options.background_weight};
  double mix_cdf[kNumTrafficKinds];
  double total = 0.0;
  for (size_t i = 0; i < kNumTrafficKinds; ++i) {
    total += weights[i];
    mix_cdf[i] = total;
  }

  const double peak_rate = options.rate_qps * options.PeakMultiplier();
  std::vector<Arrival> arrivals;
  arrivals.reserve(
      static_cast<size_t>(options.rate_qps * options.duration_seconds) + 16);
  double t = 0.0;
  uint32_t next_client = 0;
  for (;;) {
    // Exponential inter-arrival at the envelope rate. 1 - U is in
    // (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / peak_rate;
    if (t >= options.duration_seconds) break;
    // Thinning: keep with probability rate(t) / peak.
    if (!rng.Bernoulli(RateAt(options, t) / peak_rate)) continue;

    Arrival arrival;
    arrival.time_seconds = t;
    const double kind_u = rng.UniformDouble() * total;
    size_t kind = 0;
    while (kind + 1 < kNumTrafficKinds && kind_u >= mix_cdf[kind]) ++kind;
    arrival.kind = static_cast<TrafficKind>(kind);
    arrival.client = next_client;
    next_client = (next_client + 1) % options.num_clients;
    switch (arrival.kind) {
      case TrafficKind::kTopK:
        arrival.vertices.push_back(popularity.Sample(rng));
        break;
      case TrafficKind::kPair:
      case TrafficKind::kGroup: {
        const size_t size =
            arrival.kind == TrafficKind::kPair ? 2 : options.group_size;
        while (arrival.vertices.size() < size) {
          const Vertex v = popularity.Sample(rng);
          if (std::find(arrival.vertices.begin(), arrival.vertices.end(),
                        v) == arrival.vertices.end()) {
            arrival.vertices.push_back(v);
          } else if (popularity.universe() <= size) {
            // Tiny universe: distinctness may be unsatisfiable; fall
            // back to uniform over all vertices so the loop terminates.
            arrival.vertices.push_back(rng.UniformIndex(num_vertices));
          }
        }
        break;
      }
      case TrafficKind::kBackground:
        // One uniform vertex per tick: the sweep visits the whole graph
        // in expectation, not just the popular head.
        arrival.vertices.push_back(rng.UniformIndex(num_vertices));
        arrival.priority = service::PriorityClass::kBatch;
        break;
    }
    arrivals.push_back(std::move(arrival));
  }
  return arrivals;
}

}  // namespace simrank::loadgen
