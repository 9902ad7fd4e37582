#include "harness/replay.h"

#include <algorithm>

#include "simrank/bounds.h"
#include "util/rng.h"
#include "util/top_k.h"

namespace perfbench {

using simrank::Vertex;

QueryReplayer::QueryReplayer(const simrank::TopKSearcher& searcher)
    : searcher_(searcher),
      estimator_(searcher.graph(), searcher.options().simrank,
                 searcher.diagonal()),
      bfs_(searcher.graph()),
      marks_(searcher.graph().NumVertices(), 0),
      arena_(size_t{16} << 20) {}

simrank::QueryResult QueryReplayer::Replay(Vertex query,
                                           SpanRecorder* recorder,
                                           uint32_t query_id) {
  const simrank::SearchOptions& options = searcher_.options();
  const simrank::SimRankParams& params = options.simrank;
  const simrank::GammaTable* gamma = searcher_.gamma_table();
  const simrank::CandidateIndex* index = searcher_.candidate_index();
  simrank::QueryResult result;
  simrank::QueryStats& stats = result.stats;

  ScopedSpan root(recorder, "query", kNoParent, query_id);
  const uint32_t parent = root.id();
  // The searcher's per-query stream.
  simrank::Rng rng(simrank::MixSeeds(options.seed, 0x9E3779B9ULL + query));
  arena_.Reset();
  {
    ScopedSpan span(recorder, "bfs", parent, query_id);
    bfs_.Run(query, simrank::EdgeDirection::kUndirected,
             std::max(options.max_distance, params.num_steps - 1));
  }
  std::vector<double> beta;
  if (options.use_l1_bound) {
    ScopedSpan span(recorder, "l1", parent, query_id);
    beta = simrank::ComputeL1Beta(searcher_.graph(), params,
                                  searcher_.diagonal(), query,
                                  options.l1_walks, bfs_,
                                  options.max_distance, rng, &arena_);
  }
  const simrank::WalkProfile profile = [&] {
    ScopedSpan span(recorder, "profile", parent, query_id);
    return estimator_.BuildProfile(query, options.profile_walks, rng,
                                   &arena_);
  }();
  candidates_.clear();
  {
    ScopedSpan span(recorder, "enumerate", parent, query_id);
    if (options.use_index && index != nullptr) {
      index->ForEachCandidate(query, marks_, epoch_,
                              [&](Vertex v) { candidates_.push_back(v); });
    } else {
      candidates_ = bfs_.Reached();
    }
  }

  simrank::TopKCollector collector(options.k);
  auto cutoff = [&] {
    return std::max(options.threshold, collector.Threshold());
  };
  ScopedSpan score_span(recorder, "score", parent, query_id);
  const uint32_t score_id = score_span.id();
  for (Vertex v : candidates_) {
    if (v == query) continue;
    ++stats.candidates_enumerated;
    bool pruned = false;
    {
      ScopedSpan span(recorder, "prune", score_id, query_id);
      const uint32_t distance = bfs_.Distance(v);
      if (distance == simrank::kInfiniteDistance ||
          distance > options.max_distance ||
          (options.use_distance_bound &&
           simrank::DistanceBound(params.decay, distance) < cutoff())) {
        ++stats.pruned_by_distance;
        pruned = true;
      } else if (options.use_l1_bound && beta[distance] < cutoff()) {
        ++stats.pruned_by_l1;
        pruned = true;
      } else if (options.use_l2_bound && gamma != nullptr &&
                 gamma->BoundAtDistance(query, v, distance) < cutoff()) {
        ++stats.pruned_by_l2;
        pruned = true;
      }
    }
    if (pruned) continue;
    if (options.adaptive_sampling) {
      ScopedSpan span(recorder, "rough", score_id, query_id);
      ++stats.rough_estimates;
      const double rough = estimator_.EstimateAgainstProfile(
          profile, v, options.estimate_walks, rng, &arena_);
      if (rough < options.adaptive_margin * cutoff()) {
        ++stats.skipped_after_estimate;
        continue;
      }
    }
    ScopedSpan span(recorder, "refine", score_id, query_id);
    ++stats.refined;
    const double score = estimator_.EstimateAgainstProfile(
        profile, v, options.refine_walks, rng, &arena_);
    if (score >= options.threshold) collector.Push(v, score);
  }
  result.top = collector.TakeSorted();
  return result;
}

}  // namespace perfbench
