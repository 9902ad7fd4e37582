#include "simrank/searcher_backend.h"

#include <algorithm>
#include <array>
#include <memory>

#include "simrank/backend_exact.h"
#include "simrank/backend_mc.h"

namespace simrank {

namespace {

constexpr std::array<BackendKind, 2> kRegisteredBackends = {
    BackendKind::kMonteCarlo,
    BackendKind::kExact,
};

}  // namespace

std::string_view BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kMonteCarlo:
      return "mc";
    case BackendKind::kExact:
      return "exact";
  }
  return "unknown";
}

std::optional<BackendKind> ParseBackendKind(std::string_view name) {
  for (BackendKind kind : kRegisteredBackends) {
    if (name == BackendKindName(kind)) return kind;
  }
  return std::nullopt;
}

bool IsRegisteredBackend(BackendKind kind) {
  return std::ranges::find(kRegisteredBackends, kind) !=
         kRegisteredBackends.end();
}

std::string_view BackendChoiceName(BackendChoice choice) {
  if (choice == BackendChoice::kAuto) return "auto";
  return BackendKindName(static_cast<BackendKind>(choice));
}

std::optional<BackendChoice> ParseBackendChoice(std::string_view name) {
  if (name == "auto") return BackendChoice::kAuto;
  if (std::optional<BackendKind> kind = ParseBackendKind(name);
      kind.has_value()) {
    return static_cast<BackendChoice>(*kind);
  }
  return std::nullopt;
}

std::unique_ptr<SearcherBackend> MakeBackend(BackendKind kind,
                                             const DirectedGraph& graph,
                                             const SearchOptions& options) {
  switch (kind) {
    case BackendKind::kMonteCarlo:
      return std::make_unique<MonteCarloBackend>(graph, options);
    case BackendKind::kExact:
      return std::make_unique<ExactBackend>(graph, options);
  }
  return nullptr;
}

std::span<const BackendKind> RegisteredBackends() {
  return kRegisteredBackends;
}

BackendKind SelectBackend(const GraphStats& stats) {
  constexpr uint64_t kExactMaxSize = 65'536;  // n + m, inclusive
  return stats.num_vertices + stats.num_edges <= kExactMaxSize
             ? BackendKind::kExact
             : BackendKind::kMonteCarlo;
}

}  // namespace simrank
