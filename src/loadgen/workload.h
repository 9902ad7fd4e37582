#ifndef SIMRANK_LOADGEN_WORKLOAD_H_
#define SIMRANK_LOADGEN_WORKLOAD_H_

// Traffic model for the open-loop load generator (docs/SERVING.md).
//
// The model has three independent axes, each deterministic given the
// run seed (every sample goes through simrank::Rng — lint rule R2):
//
//   - *When* requests arrive: a non-homogeneous Poisson process.
//     The base rate is `rate_qps`; declared burst phases multiply it
//     for a window ("2x for seconds 5..10"). Arrival times are drawn
//     by thinning: sample a homogeneous process at the peak rate and
//     keep each arrival with probability rate(t)/peak — the standard
//     exact method for time-varying Poisson processes.
//   - *What* they ask: a categorical mix of top-k, pair (a group query
//     of two vertices), group, and all-pairs-background traffic.
//     Background arrivals are batch priority; everything else is
//     interactive.
//   - *Which* vertices: Zipf-skewed popularity. Rank r has weight
//     1/(r+1)^s; ranks map to vertex ids through a seeded permutation
//     so "popular" vertices are scattered over the graph instead of
//     being the lowest ids. The head of the distribution is exactly
//     what cache prewarming wants (ZipfSampler::Head).
//
// GenerateArrivals builds the whole schedule up front: the generator
// replays it against the wall clock without consulting the engine, so
// arrivals stay independent of completions — the open-loop property
// that makes overload *visible* instead of self-throttling.

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "service/admission.h"
#include "util/rng.h"
#include "util/status.h"

namespace simrank::loadgen {

/// One component of the traffic mix.
enum class TrafficKind : uint8_t {
  kTopK = 0,        ///< single-vertex top-k (interactive)
  kPair = 1,        ///< 2-vertex group query (interactive)
  kGroup = 2,       ///< group query of `group_size` vertices (interactive)
  kBackground = 3,  ///< all-pairs background sweep tick: one uniform
                    ///< vertex per arrival, batch priority
};
inline constexpr size_t kNumTrafficKinds = 4;

/// A window during which the base arrival rate is multiplied — the
/// burst phases of the run ("2x between t=5s and t=10s").
struct BurstPhase {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  double rate_multiplier = 1.0;
};

struct WorkloadOptions {
  /// Open-loop run length; arrivals are generated for [0, duration).
  double duration_seconds = 10.0;
  /// Base arrival rate (requests/second) outside burst phases.
  double rate_qps = 100.0;
  /// Burst phases; overlapping phases multiply together.
  std::vector<BurstPhase> bursts;

  /// Zipf popularity exponent s (weight of rank r is 1/(r+1)^s).
  /// 0 means uniform popularity.
  double zipf_exponent = 0.8;
  /// Distinct vertices the popularity distribution ranges over;
  /// 0 means every vertex of the graph.
  uint32_t popularity_universe = 0;

  /// Mix weights (any non-negative scale; normalized internally).
  double topk_weight = 0.85;
  double pair_weight = 0.05;
  double group_weight = 0.05;
  double background_weight = 0.05;

  /// Vertices per kGroup arrival (>= 2).
  uint32_t group_size = 4;

  /// Distinct synthetic clients; arrivals round-robin through
  /// "client-<i>" ids by sample, exercising per-client rate limits.
  uint32_t num_clients = 8;

  /// Largest burst multiplier (the thinning envelope rate).
  double PeakMultiplier() const;

  Status Validate() const;
};

/// Zipf-skewed vertex popularity: rank -> weight 1/(rank+1)^s, ranks
/// scattered over vertex ids by a seeded Fisher-Yates permutation.
class ZipfSampler {
 public:
  /// `universe` ranks over `num_vertices` vertices (universe clamped to
  /// num_vertices; both must be >= 1). Consumes `rng` to build the
  /// rank->vertex permutation.
  ZipfSampler(uint32_t universe, double exponent, uint32_t num_vertices,
              Rng& rng);

  /// One popularity-weighted vertex.
  Vertex Sample(Rng& rng) const;

  /// The `n` most popular vertices, most popular first (clamped to the
  /// universe) — the prewarming set.
  std::vector<Vertex> Head(size_t n) const;

  uint32_t universe() const {
    return static_cast<uint32_t>(rank_to_vertex_.size());
  }

 private:
  /// cdf_[r] = normalized cumulative weight of ranks 0..r.
  std::vector<double> cdf_;
  std::vector<Vertex> rank_to_vertex_;
};

/// One scheduled request of the open-loop plan.
struct Arrival {
  double time_seconds = 0.0;  ///< offset from run start
  TrafficKind kind = TrafficKind::kTopK;
  std::vector<Vertex> vertices;
  uint32_t client = 0;  ///< index into the synthetic client set
  service::PriorityClass priority = service::PriorityClass::kInteractive;
};

/// Instantaneous arrival rate at offset `t` (base rate times every
/// active burst multiplier).
double RateAt(const WorkloadOptions& options, double t);

/// Generates the full arrival schedule (sorted by time) for a graph of
/// `num_vertices` vertices. Deterministic given the rng state: same
/// seed, same schedule — the property the R2 lint rule defends.
/// Precondition: options validated, num_vertices >= 1.
std::vector<Arrival> GenerateArrivals(const WorkloadOptions& options,
                                      uint32_t num_vertices,
                                      const ZipfSampler& popularity, Rng& rng);

}  // namespace simrank::loadgen

#endif  // SIMRANK_LOADGEN_WORKLOAD_H_
