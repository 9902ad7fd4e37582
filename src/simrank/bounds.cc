#include "simrank/bounds.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "simrank/linear.h"
#include "simrank/monte_carlo.h"
#include "util/counter.h"

namespace simrank {

double DistanceBound(double decay, uint32_t distance) {
  if (distance == kInfiniteDistance) return 0.0;
  return std::pow(decay, (distance + 1) / 2);
}

namespace {

// Rows of the alpha table: walk positions live within undirected distance
// num_steps-1 of the query, but Eq. (18) takes maxima over d' up to
// d + t <= max_distance + num_steps - 1, so allocate enough rows that no
// positive alpha mass is ever dropped (dropping it would make beta
// undershoot, i.e. an invalid upper bound).
uint32_t AlphaRows(const SimRankParams& params, uint32_t max_distance) {
  return max_distance + params.num_steps + 1;
}

// Shared beta assembly from a filled alpha table (Eq. 18):
// beta(d) = sum_t c^t max_{max(0,d-t) <= d' <= d+t} alpha[d'][t].
std::vector<double> AssembleBeta(const std::vector<std::vector<double>>& alpha,
                                 const SimRankParams& params,
                                 uint32_t max_distance) {
  const uint32_t steps = params.num_steps;
  const uint32_t rows = static_cast<uint32_t>(alpha.size());
  std::vector<double> beta(max_distance + 1, 0.0);
  for (uint32_t d = 0; d <= max_distance; ++d) {
    double sum = 0.0;
    double decay_pow = 1.0;
    for (uint32_t t = 0; t < steps; ++t) {
      const uint32_t lo = d > t ? d - t : 0;
      const uint32_t hi = std::min<uint32_t>(rows - 1, d + t);
      double best = 0.0;
      for (uint32_t dp = lo; dp <= hi; ++dp) {
        best = std::max(best, alpha[dp][t]);
      }
      sum += decay_pow * best;
      decay_pow *= params.decay;
    }
    beta[d] = sum;
  }
  return beta;
}

}  // namespace

GammaTable::GammaTable(const std::vector<double>& diagonal,
                       uint32_t num_steps, double decay)
    : num_vertices_(static_cast<Vertex>(diagonal.size())),
      num_steps_(num_steps),
      decay_(decay) {
  SIMRANK_CHECK_GE(num_steps, 1u);
  double max_diagonal = 0.0;
  for (double d : diagonal) max_diagonal = std::max(max_diagonal, d);
  scale_ = std::sqrt(max_diagonal);
  step_ = scale_ / kMaxCode;
  while (step_ * kMaxCode < scale_) step_ = std::nextafter(step_, HUGE_VAL);
  codes_.assign(static_cast<size_t>(num_vertices_) * (num_steps - 1), 0);
}

uint16_t GammaTable::Encode(double gamma, double step) {
  if (!(gamma > 0.0)) return 0;
  const double units = std::ceil(gamma / step);
  // The comparison also sends an infinite or NaN quotient to the top.
  uint32_t code = units < kMaxCode ? static_cast<uint32_t>(units) : kMaxCode;
  // The rounded quotient can be a unit off either way; settle on the
  // smallest code whose decoded value covers gamma.
  while (code < kMaxCode && code * step < gamma) ++code;
  while (code > 0 && (code - 1) * step >= gamma) --code;
  return static_cast<uint16_t>(code);
}

GammaTable GammaTable::BuildMonteCarlo(const DirectedGraph& graph,
                                       const SimRankParams& params,
                                       const std::vector<double>& diagonal,
                                       uint32_t num_walks, uint64_t seed,
                                       ThreadPool* pool) {
  params.Validate();
  SIMRANK_CHECK_EQ(diagonal.size(), graph.NumVertices());
  SIMRANK_CHECK_GE(num_walks, 1u);
  GammaTable table(diagonal, params.num_steps, params.decay);
  const double inv_walks_sq =
      1.0 / (static_cast<double>(num_walks) * num_walks);
  ParallelFor(pool, 0, graph.NumVertices(), [&](size_t u) {
    // Independent stream per vertex so the build is deterministic for any
    // thread count.
    Rng rng(MixSeeds(seed, u));
    WalkSet walks(graph, static_cast<Vertex>(u), num_walks);
    WalkCounter counter(num_walks);
    uint16_t* row = table.codes_.data() + table.Row(static_cast<Vertex>(u));
    // Steps after every walk died keep code 0.
    for (uint32_t t = 1; t < params.num_steps && !walks.AllDead(); ++t) {
      counter.Clear();
      walks.AdvanceCounted(rng, counter);
      // mu = sum_w D_ww (count(w)/R)^2, gamma = sqrt(mu) (Algorithm 3).
      double mu = 0.0;
      counter.ForEach([&](Vertex w, uint32_t count) {
        mu += diagonal[w] * static_cast<double>(count) * count;
      });
      row[t - 1] = Encode(std::sqrt(mu * inv_walks_sq), table.step_);
    }
  });
  return table;
}

GammaTable GammaTable::BuildExact(const DirectedGraph& graph,
                                  const SimRankParams& params,
                                  const std::vector<double>& diagonal,
                                  ThreadPool* pool) {
  params.Validate();
  SIMRANK_CHECK_EQ(diagonal.size(), graph.NumVertices());
  GammaTable table(diagonal, params.num_steps, params.decay);
  const Vertex n = graph.NumVertices();
  ParallelFor(pool, 0, n, [&](size_t u) {
    SparseDistribution current(n), next(n);
    current.SetPoint(static_cast<Vertex>(u));
    uint16_t* row = table.codes_.data() + table.Row(static_cast<Vertex>(u));
    for (uint32_t t = 1; t < params.num_steps && !current.support.empty();
         ++t) {
      PropagateStep(graph, current, next);
      std::swap(current, next);
      double mu = 0.0;
      for (Vertex w : current.support) {
        mu += diagonal[w] * current.value[w] * current.value[w];
      }
      row[t - 1] = Encode(std::sqrt(mu), table.step_);
    }
  });
  return table;
}

GammaTable GammaTable::FromCodes(const std::vector<double>& diagonal,
                                 uint32_t num_steps, double decay,
                                 std::vector<uint16_t> codes) {
  GammaTable table(diagonal, num_steps, decay);
  SIMRANK_CHECK_EQ(codes.size(), table.codes_.size());
  table.codes_ = std::move(codes);
  return table;
}

double GammaTable::BoundAtDistance(Vertex u, Vertex v,
                                   uint32_t distance) const {
  SIMRANK_CHECK_LT(u, num_vertices_);
  SIMRANK_CHECK_LT(v, num_vertices_);
  // No path: the walk distributions never overlap.
  if (distance == kInfiniteDistance) return 0.0;
  // First step whose radius-t balls around u and v can intersect.
  const uint32_t first_step = (distance + 1) / 2;
  if (first_step >= num_steps_) return 0.0;
  const uint16_t* cu = codes_.data() + Row(u);
  const uint16_t* cv = codes_.data() + Row(v);
  const uint32_t first_stored = std::max(first_step, 1u);
  double sum = 0.0;
  double decay_pow = std::pow(decay_, first_stored);
  for (uint32_t t = first_stored; t < num_steps_; ++t) {
    sum += decay_pow * (static_cast<double>(cu[t - 1]) * cv[t - 1]);
    decay_pow *= decay_;
  }
  sum *= step_ * step_;
  // The unstored step 0 counts only at distance 0.
  if (first_step == 0) sum += scale_ * scale_;
  return sum;
}

std::vector<double> ComputeL1Beta(const DirectedGraph& graph,
                                  const SimRankParams& params,
                                  const std::vector<double>& diagonal,
                                  Vertex query, uint32_t num_walks,
                                  const BfsWorkspace& distances,
                                  uint32_t max_distance, Rng& rng,
                                  Arena* arena) {
  params.Validate();
  SIMRANK_CHECK_EQ(diagonal.size(), graph.NumVertices());
  SIMRANK_CHECK_GE(num_walks, 1u);
  const uint32_t steps = params.num_steps;
  const uint32_t rows = AlphaRows(params, max_distance);
  // alpha[d][t] per Eq. (17), estimated from the empirical measure of R
  // walks (Algorithm 2).
  std::vector<std::vector<double>> alpha(rows,
                                         std::vector<double>(steps, 0.0));
  // Walk scratch is scoped to this bound computation: mark/rewind hands the
  // space back before the caller builds its walk profile in the same arena.
  const Arena::Marker marker =
      arena != nullptr ? arena->Mark() : Arena::Marker{};
  WalkSet walks(graph, query, num_walks, arena);
  WalkCounter counter(num_walks, arena);
  const double inv_walks = 1.0 / static_cast<double>(num_walks);
  for (uint32_t t = 0; t < steps; ++t) {
    counter.Clear();
    counter.AddAll(walks.live());
    counter.ForEach([&](Vertex w, uint32_t count) {
      const uint32_t d = distances.DistanceLowerBound(w);
      if (d >= rows) return;  // cannot affect beta(0..max_distance)
      const double mass = diagonal[w] * count * inv_walks;
      alpha[d][t] = std::max(alpha[d][t], mass);
    });
    if (t + 1 < steps) {
      if (walks.AllDead()) break;
      walks.Advance(rng);
    }
  }
  if (arena != nullptr) arena->Rewind(marker);
  return AssembleBeta(alpha, params, max_distance);
}

std::vector<double> ComputeL1BetaExact(const DirectedGraph& graph,
                                       const SimRankParams& params,
                                       const std::vector<double>& diagonal,
                                       Vertex query,
                                       const BfsWorkspace& distances,
                                       uint32_t max_distance) {
  params.Validate();
  SIMRANK_CHECK_EQ(diagonal.size(), graph.NumVertices());
  const uint32_t steps = params.num_steps;
  const uint32_t rows = AlphaRows(params, max_distance);
  const Vertex n = graph.NumVertices();
  std::vector<std::vector<double>> alpha(rows,
                                         std::vector<double>(steps, 0.0));
  SparseDistribution current(n), next(n);
  current.SetPoint(query);
  for (uint32_t t = 0; t < steps; ++t) {
    for (Vertex w : current.support) {
      const uint32_t d = distances.DistanceLowerBound(w);
      if (d >= rows) continue;
      alpha[d][t] = std::max(alpha[d][t], diagonal[w] * current.value[w]);
    }
    if (t + 1 == steps) break;
    PropagateStep(graph, current, next);
    std::swap(current, next);
    if (current.support.empty()) break;
  }
  return AssembleBeta(alpha, params, max_distance);
}

}  // namespace simrank
