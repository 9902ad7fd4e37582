#ifndef SIMRANK_SIMRANK_SIMRANK_H_
#define SIMRANK_SIMRANK_SIMRANK_H_

/// Umbrella header: the full public API of the scalable SimRank
/// similarity-search library (Kusumoto, Maehara, Kawarabayashi,
/// SIGMOD 2014).
///
/// Typical use:
///
/// Typical use — the serving engine (validated construction, concurrent
/// queries, result cache, deadlines):
///
///   simrank::DirectedGraph graph = ...;        // graph/ substrates
///   simrank::service::EngineOptions options;   // search + serving knobs
///   auto engine = simrank::service::QueryEngine::Create(graph, options);
///   if (!engine.ok()) { /* bad options: engine.status() says which */ }
///   auto response =
///       (*engine)->Query(simrank::service::QueryRequest::ForVertex(u));
///
/// Or the bare kernel, for single-threaded embedding:
///
///   simrank::SearchOptions options;            // c=0.6, T=11, k=20, ...
///   simrank::TopKSearcher searcher(graph, options);
///   searcher.BuildIndex();                     // O(n) preprocess
///   auto result = searcher.Query(u);           // top-k similar vertices
///
/// Baselines (naive, partial sums, Yu et al., Fogaras-Racz, surfer-pair)
/// are exposed for validation and benchmarking.

#include "simrank/all_pairs.h"       // IWYU pragma: export
#include "simrank/backend_exact.h"   // IWYU pragma: export
#include "simrank/backend_mc.h"      // IWYU pragma: export
#include "simrank/bounds.h"          // IWYU pragma: export
#include "simrank/classic_similarity.h"  // IWYU pragma: export
#include "simrank/dense_matrix.h"    // IWYU pragma: export
#include "simrank/diagonal.h"        // IWYU pragma: export
#include "simrank/fogaras_racz.h"    // IWYU pragma: export
#include "simrank/index.h"           // IWYU pragma: export
#include "simrank/linear.h"          // IWYU pragma: export
#include "simrank/monte_carlo.h"     // IWYU pragma: export
#include "simrank/naive.h"           // IWYU pragma: export
#include "simrank/params.h"          // IWYU pragma: export
#include "simrank/partial_sums.h"    // IWYU pragma: export
#include "simrank/searcher_backend.h"  // IWYU pragma: export
#include "simrank/serialization.h"   // IWYU pragma: export
#include "service/query_engine.h"    // IWYU pragma: export
#include "service/result_cache.h"    // IWYU pragma: export
#include "simrank/surfer_pair.h"     // IWYU pragma: export
#include "simrank/top_k_searcher.h"  // IWYU pragma: export
#include "simrank/walk_kernel.h"     // IWYU pragma: export
#include "simrank/yu_all_pairs.h"    // IWYU pragma: export

#endif  // SIMRANK_SIMRANK_SIMRANK_H_
