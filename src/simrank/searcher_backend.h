#ifndef SIMRANK_SIMRANK_SEARCHER_BACKEND_H_
#define SIMRANK_SIMRANK_SEARCHER_BACKEND_H_

// The pluggable query-serving backend contract.
//
// A backend answers one question, single-source top-k ("vertices most
// similar to u under truncated SimRank, scores > 0 and >= threshold"),
// with its own space/time/accuracy tradeoff: the paper's Monte-Carlo
// walks + bound pruning (simrank/backend_mc.h) or the exact
// linear-formulation oracle (simrank/backend_exact.h). What is composed
// from that query exists once, outside the backends: group voting,
// caching, deadlines and concurrency in service::QueryEngine, the
// all-vertices sweep in simrank/all_pairs.h. SelectBackend() is the
// size-driven default choosing among them (overridable per engine and per
// request at the service layer).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.h"
#include "graph/stats.h"
#include "simrank/top_k_searcher.h"
#include "util/thread_pool.h"

namespace simrank {

/// Identity of a concrete backend implementation. The numeric values are
/// stable wire values: they participate in the result-cache key, the
/// per-query event records and the `service.backend.primary` gauge.
/// Value 1 is retired and never reused.
enum class BackendKind : uint8_t {
  kMonteCarlo = 0,  ///< the paper's MC walks + L1/L2 bound pruning
  kExact = 2,       ///< exact linear-formulation oracle (small graphs)
};

/// Extent of arrays indexed by a BackendKind value: one past the largest
/// wire value. The retired slot stays empty.
inline constexpr size_t kBackendSlots = 3;

/// Stable short name ("mc", "exact"): metric suffixes, JSON fields and
/// the CLI --backend grammar all use these tokens.
std::string_view BackendKindName(BackendKind kind);

/// Parses a BackendKindName token; nullopt for anything else.
std::optional<BackendKind> ParseBackendKind(std::string_view name);

/// True for the kinds MakeBackend constructs. Values arriving from
/// callers (engine options, per-request overrides) must pass this before
/// they index a backend slot: the retired value 1 is in range but names
/// no backend.
bool IsRegisteredBackend(BackendKind kind);

/// A backend request: one concrete kind, or automatic size-driven
/// selection (SelectBackend over the graph's ComputeGraphStats summary).
/// The concrete values mirror BackendKind so the two convert by cast.
enum class BackendChoice : uint8_t {
  kMonteCarlo = 0,
  kExact = 2,
  kAuto = 255,
};

/// "mc" / "exact" / "auto" — the CLI --backend grammar.
std::string_view BackendChoiceName(BackendChoice choice);

/// Parses a BackendChoiceName token; nullopt for anything else.
std::optional<BackendChoice> ParseBackendChoice(std::string_view name);

/// One query-serving algorithm over a fixed graph. Implementations are
/// constructed unbuilt, preprocess in Build() (idempotent), and must
/// answer Query concurrently from any number of threads once built. The
/// graph must outlive the backend.
class SearcherBackend {
 public:
  virtual ~SearcherBackend() = default;

  virtual BackendKind kind() const = 0;
  std::string_view name() const { return BackendKindName(kind()); }

  /// Runs the preprocess phase. `pool` may be null (serial). Idempotent.
  virtual void Build(ThreadPool* pool = nullptr) = 0;
  virtual bool built() const = 0;

  /// Seconds spent in the last Build() call.
  virtual double preprocess_seconds() const = 0;

  /// Bytes held by the backend's preprocess structures (0 when none).
  virtual uint64_t MemoryBytes() const = 0;

  /// Best-first top-k ranking of `query` (scores > 0 and >= threshold).
  /// Requires built(). Thread-safe. `overrides` applies the per-request
  /// runtime knobs; backends ignore overrides they have no analog for
  /// (refine_walks on the exact backend).
  virtual QueryResult Query(Vertex query,
                            const QueryOverrides& overrides = {}) const = 0;

  virtual const DirectedGraph& graph() const = 0;
  virtual const SearchOptions& options() const = 0;
};

/// Constructs an unbuilt backend of `kind`. `options` must already be
/// validated (engine entry points do; direct callers should call
/// options.Validate() first). The graph must outlive the backend.
std::unique_ptr<SearcherBackend> MakeBackend(BackendKind kind,
                                             const DirectedGraph& graph,
                                             const SearchOptions& options);

/// Every backend kind the build registers, in BackendKind value order —
/// the iteration surface for the parameterized contract tests and the
/// backend-vs-backend benches.
std::span<const BackendKind> RegisteredBackends();

/// The backend an "auto" engine serves with: exact iff n + m <= 65,536,
/// otherwise Monte-Carlo. An exact query costs about T * (n + m) while a
/// Monte-Carlo query's cost is nearly flat in graph size; bench_backends
/// measures the crossover (EXPERIMENTS.md, "Backend matrix").
BackendKind SelectBackend(const GraphStats& stats);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_SEARCHER_BACKEND_H_
