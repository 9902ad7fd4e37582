#ifndef PERFBENCH_HARNESS_REPLAY_H_
#define PERFBENCH_HARNESS_REPLAY_H_

// Layer-by-layer replay of a Monte-Carlo top-k query through public
// calls only, in the order TopKSearcher::Query makes them: BFS, L1
// bound, walk profile, candidate enumeration, then bound pruning and the
// rough and refine estimates per candidate. Each call gets a span.
//
// The replay mirrors the searcher's serial candidate path as of this
// benchmark's writing. When the searcher's internals change, the replay
// keeps running; its rankings may then differ from Query's, which the
// traced run reports as trace.replay_match_frac instead of failing.

#include <cstdint>
#include <vector>

#include "graph/traversal.h"
#include "harness/trace.h"
#include "simrank/monte_carlo.h"
#include "simrank/top_k_searcher.h"
#include "util/arena.h"

namespace perfbench {

class QueryReplayer {
 public:
  /// The searcher must have its index built and outlive the replayer.
  explicit QueryReplayer(const simrank::TopKSearcher& searcher);

  /// Replays one query. With a recorder, every phase call is a span under
  /// one root span named "query" tagged `query_id`; with null, the same
  /// calls run untraced.
  simrank::QueryResult Replay(simrank::Vertex query, SpanRecorder* recorder,
                              uint32_t query_id);

  /// Vertices reached by the last replay's BFS.
  size_t last_reached() const { return bfs_.Reached().size(); }

 private:
  const simrank::TopKSearcher& searcher_;
  simrank::MonteCarloSimRank estimator_;
  simrank::BfsWorkspace bfs_;
  std::vector<uint32_t> marks_;
  uint32_t epoch_ = 0;
  std::vector<simrank::Vertex> candidates_;
  simrank::Arena arena_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPLAY_H_
