#ifndef SIMRANK_SIMRANK_BOUNDS_H_
#define SIMRANK_SIMRANK_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/traversal.h"
#include "simrank/params.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace simrank {

/// Distance-only upper bound on the SimRank score (§6, opening): two
/// coupled walkers one step apart per step can close at most distance 2 per
/// step, so the first-meeting time is at least ceil(d/2) and
/// s(u,v) <= c^(ceil(d/2)) where d is the undirected distance.
///
/// Note: the paper states s(u,v) <= c^d, which fails on e.g. the length-2
/// path (s = c while c^2 < c); the ceil(d/2) form is the tight version of
/// the same idea and is what this library prunes with. EXPERIMENTS.md
/// discusses the deviation.
double DistanceBound(double decay, uint32_t distance);

/// --- L2 bound (§6.2, Algorithm 3; preprocess) ---
///
/// gamma(u,t) = || sqrt(D) P^t e_u ||_2. By Cauchy-Schwarz (Prop. 6),
///   s^(T)(u,v) <= sum_t c^t gamma(u,t) gamma(v,t).
/// The table stores gamma for every vertex and step: n * T floats, built
/// once in the preprocess phase by Monte-Carlo simulation (R walks per
/// vertex). Most effective for high-degree query vertices, whose walk
/// distribution spreads fast (§6.3).
class GammaTable {
 public:
  /// Monte-Carlo build (Algorithm 3). `pool` may be null (serial).
  static GammaTable BuildMonteCarlo(const DirectedGraph& graph,
                                    const SimRankParams& params,
                                    const std::vector<double>& diagonal,
                                    uint32_t num_walks, uint64_t seed,
                                    ThreadPool* pool = nullptr);

  /// Exact build by sparse propagation of P^t e_u; O(T m) per vertex. Used
  /// as the test oracle and for small graphs.
  static GammaTable BuildExact(const DirectedGraph& graph,
                               const SimRankParams& params,
                               const std::vector<double>& diagonal,
                               ThreadPool* pool = nullptr);

  /// Reassembles a table from previously stored values (serialization
  /// path); `values` must have num_vertices * num_steps entries.
  static GammaTable FromData(Vertex num_vertices, uint32_t num_steps,
                             double decay, std::vector<float> values);

  uint32_t num_steps() const { return num_steps_; }
  Vertex num_vertices() const { return num_vertices_; }
  double decay() const { return decay_; }
  /// Raw row-major values (vertex-major, step-minor); for serialization.
  const std::vector<float>& values() const { return values_; }

  float Gamma(Vertex u, uint32_t t) const {
    return values_[static_cast<size_t>(u) * num_steps_ + t];
  }

  /// The L2 upper bound sum_t c^t gamma(u,t) gamma(v,t) (Prop. 6,
  /// verbatim). Note that its t = 0 term is sqrt(D_uu D_vv) ~ (1-c)
  /// regardless of the pair, so the verbatim bound never prunes below that
  /// value; prefer BoundAtDistance at query time.
  double Bound(Vertex u, Vertex v) const { return BoundAtDistance(u, v, 0); }

  /// Distance-sharpened L2 bound: terms with 2t < d are dropped because the
  /// walk distributions P^t e_u and P^t e_v have disjoint supports there
  /// (each lives in the undirected radius-t ball of its endpoint, and the
  /// balls cannot intersect while 2t < d(u,v)), making those inner products
  /// exactly zero. Strictly tighter than Prop. 6 and still a valid upper
  /// bound on s^(T)(u,v); this is what Algorithm 5 prunes with. Any lower
  /// bound on d(u,v) keeps it valid (fewer terms are dropped);
  /// kInfiniteDistance (no path) gives 0.
  double BoundAtDistance(Vertex u, Vertex v, uint32_t distance) const;

  uint64_t MemoryBytes() const { return values_.capacity() * sizeof(float); }

 private:
  GammaTable(Vertex num_vertices, uint32_t num_steps, double decay)
      : num_vertices_(num_vertices),
        num_steps_(num_steps),
        decay_(decay),
        values_(static_cast<size_t>(num_vertices) * num_steps, 0.0f) {}

  Vertex num_vertices_;
  uint32_t num_steps_;
  double decay_;
  std::vector<float> values_;
};

/// --- L1 bound (§6.1, Algorithm 2; query time) ---
///
/// For a query vertex u with undirected distances d(u, .):
///   alpha(u,d,t) = max_{w: d(u,w)=d} D_ww P{u^(t)=w}        (Eq. 17)
///   beta(u,d)    = sum_t c^t max_{|d'-d|<=t} alpha(u,d',t)  (Eq. 18)
/// and s^(T)(u,v) <= beta(u, d(u,v)) (Prop. 4). Most effective for
/// low-degree query vertices whose walk distribution stays sparse (§6.3).
///
/// `distances` is an undirected BfsWorkspace run from u, which may have
/// stopped at its horizon or edge budget. Walk positions are filed at their
/// DistanceLowerBound, min(d, F) with F the run's frontier_distance(). The
/// clamp moves no two vertices further apart, so a vertex where u's and v's
/// walks meet at step t still lies within t buckets of v's, and
/// s^(T)(u,v) <= beta(u, DistanceLowerBound(v)). Walk positions at step t
/// lie within distance t, so beta(d) is the full-BFS value for every d < F.
/// Returns beta indexed by distance d = 0 .. max_distance. `arena`, when
/// given, backs the walk scratch (the dominant allocation at the usual
/// R = 10000); the call marks and rewinds it, so the caller's arena is
/// returned untouched.
std::vector<double> ComputeL1Beta(const DirectedGraph& graph,
                                  const SimRankParams& params,
                                  const std::vector<double>& diagonal,
                                  Vertex query, uint32_t num_walks,
                                  const BfsWorkspace& distances,
                                  uint32_t max_distance, Rng& rng,
                                  Arena* arena = nullptr);

/// Exact variant of ComputeL1Beta via deterministic propagation of P^t e_u
/// (the test oracle; also usable at query time on small graphs).
std::vector<double> ComputeL1BetaExact(const DirectedGraph& graph,
                                       const SimRankParams& params,
                                       const std::vector<double>& diagonal,
                                       Vertex query,
                                       const BfsWorkspace& distances,
                                       uint32_t max_distance);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_BOUNDS_H_
