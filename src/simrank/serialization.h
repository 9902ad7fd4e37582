#ifndef SIMRANK_SIMRANK_SERIALIZATION_H_
#define SIMRANK_SIMRANK_SERIALIZATION_H_

#include <string>

#include "simrank/top_k_searcher.h"
#include "util/status.h"

namespace simrank {

/// Persists a built searcher's preprocess state — the diagonal correction
/// vector, the gamma table's 16-bit codes (Algorithm 3) and the candidate
/// index (Algorithm 4) — so later processes can answer queries without
/// paying the preprocess again (the paper's preprocess/query phase split
/// made durable).
///
/// The file embeds the graph's vertex/edge counts and the SimRank
/// parameters; loading validates them against the graph and options at
/// hand. The format is a machine-local cache (host byte order), not an
/// interchange format. This is format 2; a format-1 file (float gamma
/// table) is rejected with InvalidArgument and must be rebuilt.
Status SaveSearcherIndex(const TopKSearcher& searcher,
                         const std::string& path);

/// Reconstructs a query-ready searcher from `path`. `graph` must be the
/// same graph the index was built from (vertex and edge counts are
/// checked); `options` must request the same SimRank parameters, and the
/// file must hold every preprocess structure the options enable
/// (use_l2_bound / use_index). Structures the options disable are skipped
/// on load, so the searcher holds what a fresh build would.
Result<TopKSearcher> LoadSearcherIndex(const DirectedGraph& graph,
                                       const SearchOptions& options,
                                       const std::string& path);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_SERIALIZATION_H_
