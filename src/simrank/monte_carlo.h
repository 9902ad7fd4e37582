#ifndef SIMRANK_SIMRANK_MONTE_CARLO_H_
#define SIMRANK_SIMRANK_MONTE_CARLO_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "simrank/params.h"
#include "util/arena.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {

/// A set of R in-link random walks advancing in lock-step. Walks that reach
/// a vertex without in-links die (position kNoVertex) — their P-column is
/// zero.
///
/// Advance runs on the walk kernel (simrank/walk_kernel.h): dead walks
/// are swap-compacted behind the live prefix, so stepping and scoring loop
/// over live() and never rescan tombstones.
class WalkSet {
 public:
  /// Starts `num_walks` walks at `origin`. With an arena, the position
  /// array lives in it (per-query workspace recycling — see util/arena.h);
  /// without one it comes from the heap.
  WalkSet(const DirectedGraph& graph, Vertex origin, uint32_t num_walks,
          Arena* arena = nullptr);

  /// Advances every live walk one step (uniform random in-neighbor).
  void Advance(Rng& rng);

  /// Advance, then tally every surviving position into `counter` with
  /// AddAllPresized (counts and ForEach order exactly as
  /// counter.AddAll(live())). `counter` must be presized for at least the
  /// pre-step live_count() distinct keys. Returns the new live count.
  uint32_t AdvanceCounted(Rng& rng, WalkCounter& counter);

  /// Current positions; dead walks report kNoVertex. Live walks occupy the
  /// prefix [0, live_count()); dead slots are compacted to the tail.
  std::span<const Vertex> positions() const {
    return {positions_.data(), positions_.size()};
  }

  /// The live walks only (contiguous prefix). Walk order within the span is
  /// not meaningful — compaction reorders it.
  std::span<const Vertex> live() const {
    return {positions_.data(), live_count_};
  }

  uint32_t num_walks() const {
    return static_cast<uint32_t>(positions_.size());
  }

  uint32_t live_count() const { return live_count_; }

  /// True once every walk has died.
  bool AllDead() const { return live_count_ == 0; }

 private:
  const DirectedGraph& graph_;
  ArenaVector<Vertex> positions_;
  uint32_t live_count_;
};

/// Position histogram of one endpoint's walks at every step t = 0..T-1:
/// the empirical measure approximating P^t e_u. Building it costs O(T R);
/// once built, any candidate v can be scored against it with its own walks
/// (Algorithm 1's inner product (14)), which is how the query phase shares
/// the query vertex's walks across all candidates.
class WalkProfile {
 public:
  /// Runs `num_walks` walks of `params.num_steps` steps from `origin`.
  /// With an arena, every per-step counter table and the walk positions
  /// draw from it; the profile must then not outlive the arena generation
  /// (it is the per-query object the workspace arena exists for).
  WalkProfile(const DirectedGraph& graph, const SimRankParams& params,
              Vertex origin, uint32_t num_walks, Rng& rng,
              Arena* arena = nullptr);

  uint32_t num_walks() const { return num_walks_; }
  uint32_t num_steps() const { return num_steps_; }
  Vertex origin() const { return origin_; }

  /// First step at which every walk had died: steps [empty_from(),
  /// num_steps()) have all-zero measures and are not materialized, so a
  /// profile whose walks die early allocates nothing for the dead tail.
  /// Equal to num_steps() when some walk survives the whole horizon.
  uint32_t empty_from() const { return empty_from_; }

  /// Number of the profile's walks located at `w` after `t` steps.
  uint32_t CountAt(uint32_t t, Vertex w) const {
    SIMRANK_CHECK_LT(t, num_steps_);
    return t < empty_from_ ? steps_[t].Count(w) : 0;
  }

  /// Direct access to step t's measure, for loops that look up many
  /// vertices at one step (hoists CountAt's per-call bounds branches out
  /// of the estimator's inner loop). Requires t < empty_from().
  const WalkCounter& MeasureAt(uint32_t t) const {
    SIMRANK_CHECK_LT(t, empty_from_);
    return steps_[t];
  }

  /// Iterates (vertex, count) pairs of step t.
  template <typename Fn>
  void ForEachAt(uint32_t t, Fn&& fn) const {
    SIMRANK_CHECK_LT(t, num_steps_);
    if (t < empty_from_) steps_[t].ForEach(fn);
  }

 private:
  Vertex origin_;
  uint32_t num_walks_;
  uint32_t num_steps_;
  uint32_t empty_from_ = 0;
  std::vector<WalkCounter> steps_;  // size empty_from_, not num_steps_
};

/// Monte-Carlo single-pair SimRank (Algorithm 1): estimates the truncated
/// linear-formulation score (13)
///
///   s^(T)(u,v) = sum_t c^t E[e_{u^(t)}]^T D E[e_{v^(t)}]
///
/// by the product of empirical measures of two *independent* walk sets.
/// O(T R) per pair after O(T R) walk generation — independent of graph
/// size, the key scalability property (§4).
class MonteCarloSimRank {
 public:
  /// `diagonal` is the correction vector D (one entry per vertex).
  MonteCarloSimRank(const DirectedGraph& graph, const SimRankParams& params,
                    std::vector<double> diagonal);

  const SimRankParams& params() const { return params_; }
  const std::vector<double>& diagonal() const { return diagonal_; }

  /// Full Algorithm 1: R walks from u, R walks from v, collision-weighted
  /// sum. Returns an unbiased estimate of s^(T)(u, v) for u != v.
  double SinglePair(Vertex u, Vertex v, uint32_t num_walks, Rng& rng) const;

  /// Builds the query vertex's reusable profile. `arena`, when given, backs
  /// the profile's tables (per-query workspace recycling).
  WalkProfile BuildProfile(Vertex u, uint32_t num_walks, Rng& rng,
                           Arena* arena = nullptr) const {
    return WalkProfile(graph_, params_, u, num_walks, rng, arena);
  }

  /// Scores candidate v against a prebuilt profile using `num_walks` fresh
  /// walks from v. Cost O(T * num_walks). `arena`, when given, backs the
  /// candidate's transient walk set; the call marks and rewinds it, so
  /// per-candidate scratch is reclaimed immediately (the profile, living
  /// below the mark, is untouched).
  double EstimateAgainstProfile(const WalkProfile& profile, Vertex v,
                                uint32_t num_walks, Rng& rng,
                                Arena* arena = nullptr) const;

  /// Sample count for accuracy epsilon with failure probability delta
  /// (Corollary 1): R = 2 (1-c)^2 log(4 n T / delta) / epsilon^2.
  static uint32_t RequiredSamples(const SimRankParams& params, uint64_t n,
                                  double epsilon, double delta);

 private:
  const DirectedGraph& graph_;
  SimRankParams params_;
  std::vector<double> diagonal_;
};

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_MONTE_CARLO_H_
