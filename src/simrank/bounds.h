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
/// Built once in the preprocess phase by Monte-Carlo simulation (R walks
/// per vertex). Most effective for high-degree query vertices, whose walk
/// distribution spreads fast (§6.3).
///
/// Storage is 2 n (T-1) bytes. P^t e_u is a sub-probability vector, so
/// every gamma is at most the table's scale sqrt(max_w D_ww). Steps
/// t = 1..T-1 are stored as 16-bit codes of one table-wide step,
/// scale / 65535, rounded up: a decoded gamma is at least the value the
/// build computed and less than one step above it, so every bound below
/// stays a valid upper bound. Step 0, gamma(u,0) = sqrt(D_uu), is not
/// stored because no query reads it (every candidate has d >= 1);
/// Gamma(u, 0) returns the scale instead, which is exact under the uniform
/// D ~ (1-c)I and an upper bound otherwise.
class GammaTable {
 public:
  /// The largest code; it decodes to at least the scale.
  static constexpr uint32_t kMaxCode = 65535;

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

  /// Reassembles a table from stored codes (serialization path). The step
  /// is recomputed from `diagonal`, which must be the diagonal the table
  /// was built with; `codes` must have diagonal.size() * (num_steps - 1)
  /// entries.
  static GammaTable FromCodes(const std::vector<double>& diagonal,
                              uint32_t num_steps, double decay,
                              std::vector<uint16_t> codes);

  /// The smallest code whose decoded value code * step is >= gamma, capped
  /// at kMaxCode; the decoded value is thus less than one step above
  /// gamma. Zero, negative and NaN gammas encode to 0.
  static uint16_t Encode(double gamma, double step);

  uint32_t num_steps() const { return num_steps_; }
  Vertex num_vertices() const { return num_vertices_; }
  double decay() const { return decay_; }
  /// sqrt(max_w D_ww): an upper bound on every gamma, returned for step 0.
  double scale() const { return scale_; }
  /// One code unit, the smallest double with kMaxCode * step >= scale.
  double step() const { return step_; }
  /// Raw codes, vertex-major over steps 1..T-1; for serialization.
  const std::vector<uint16_t>& codes() const { return codes_; }

  double Gamma(Vertex u, uint32_t t) const {
    return t == 0 ? scale_ : codes_[Row(u) + t - 1] * step_;
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
  /// kInfiniteDistance (no path) gives 0. Sums products of integer codes
  /// and scales the sum once by step^2.
  double BoundAtDistance(Vertex u, Vertex v, uint32_t distance) const;

  uint64_t MemoryBytes() const {
    return codes_.capacity() * sizeof(uint16_t);
  }

 private:
  GammaTable(const std::vector<double>& diagonal, uint32_t num_steps,
             double decay);

  /// Offset of u's codes: steps 1..T-1 at Row(u) + t - 1.
  size_t Row(Vertex u) const {
    return static_cast<size_t>(u) * (num_steps_ - 1);
  }

  Vertex num_vertices_;
  uint32_t num_steps_;
  double decay_;
  double scale_ = 0.0;
  double step_ = 0.0;
  std::vector<uint16_t> codes_;
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
