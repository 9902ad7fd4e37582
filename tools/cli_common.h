#ifndef SIMRANK_TOOLS_CLI_COMMON_H_
#define SIMRANK_TOOLS_CLI_COMMON_H_

// Plumbing shared by the command-line tools (simrank_cli,
// simrank_loadgen): the tiny --key=value flag parser, the documented
// Status -> exit-code mapping, the graph loader, the --family, --backend
// and --slo grammars, and the closing --obs-json / --events-json
// reports. Header-only so each tool stays a single translation unit.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "eval/datasets.h"
#include "graph/io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "simrank/searcher_backend.h"
#include "util/status.h"

namespace simrank::tools {

// --------- tiny flag parser ---------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "true";
      } else {
        values_[std::string(arg + 2, eq)] = eq + 1;
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    return it != values_.end() && it->second != "false";
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// The documented exit-code mapping (see each tool's header comment).
// Argument-shaped codes collapse to the usage code: whether
// "--vertex=9999999" is caught by flag validation or deep in the
// library, the caller sees the same 2.
inline int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return 2;
    case StatusCode::kIoError:
      return 3;
    case StatusCode::kCorruption:
      return 4;
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kUnavailable:
      return 5;
    default:
      return 1;
  }
}

// Graph files are the library's binary format when the path ends in .bin,
// otherwise a whitespace edge list (SNAP format).
inline bool IsBinaryGraphPath(const std::string& path) {
  return path.size() > 4 && path.substr(path.size() - 4) == ".bin";
}

inline Result<DirectedGraph> LoadGraph(const std::string& path) {
  return IsBinaryGraphPath(path) ? LoadBinary(path) : LoadEdgeListText(path);
}

// The --family names of the synthetic graph generators; nullopt for an
// unknown name (each tool words its own error).
inline std::optional<eval::DatasetFamily> ParseFamily(const std::string& name) {
  if (name == "collab") return eval::DatasetFamily::kCollaboration;
  if (name == "social") return eval::DatasetFamily::kSocial;
  if (name == "web") return eval::DatasetFamily::kWeb;
  if (name == "citation") return eval::DatasetFamily::kCitation;
  return std::nullopt;
}

// The --backend grammar. The default is the paper's Monte-Carlo engine so
// flagless invocations behave exactly as they did before backends existed;
// --backend=auto opts into SelectBackend's size rule.
inline Result<BackendChoice> BackendFromFlags(const Flags& flags) {
  const std::string name = flags.GetString("backend", "mc");
  const std::optional<BackendChoice> choice = ParseBackendChoice(name);
  if (!choice.has_value()) {
    return Status::InvalidArgument(
        "--backend: expected auto, mc or exact; got '" + name + "'");
  }
  return *choice;
}

// Writes the reports a tool offers once its run is over, even when the
// run failed: --obs-json (metrics snapshot, simrank-obs-v1), then
// --events-json (simrank-events-v2). Prints each failure; returns the
// exit code of the first, 0 when none failed.
inline int WriteReports(const Flags& flags) {
  int code = 0;
  const auto note = [&code](const Status& status) {
    if (status.ok()) return;
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    if (code == 0) code = ExitCodeFor(status);
  };
  const std::string obs_json = flags.GetString("obs-json");
  if (!obs_json.empty()) {
    note(obs::WriteJson(obs_json, obs::MetricsRegistry::Default().Snapshot()));
  }
  const std::string events_json = flags.GetString("events-json");
  if (!events_json.empty()) {
    note(obs::WriteEventsJson(events_json, obs::CollectDefaultEventsReport()));
  }
  return code;
}

// Parses the --slo grammar: comma-separated `objective:threshold` clauses
// where objective is p50 | p95 | p99 (seconds) or error_rate | shed_rate |
// degraded_rate (fraction), e.g. "p99:0.05,error_rate:0.01". The objective
// token doubles as the SLO name (gauges service.slo.p99.* etc.).
inline Status ParseSlos(const std::string& spec,
                        std::vector<obs::SloSpec>* slos) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;
    const size_t colon = clause.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= clause.size()) {
      return Status::InvalidArgument(
          "--slo: expected objective:threshold, got '" + clause + "'");
    }
    obs::SloSpec slo;
    slo.name = clause.substr(0, colon);
    if (slo.name == "p50") {
      slo.objective = obs::SloSpec::Objective::kLatencyP50;
    } else if (slo.name == "p95") {
      slo.objective = obs::SloSpec::Objective::kLatencyP95;
    } else if (slo.name == "p99") {
      slo.objective = obs::SloSpec::Objective::kLatencyP99;
    } else if (slo.name == "error_rate") {
      slo.objective = obs::SloSpec::Objective::kErrorRate;
    } else if (slo.name == "shed_rate") {
      slo.objective = obs::SloSpec::Objective::kShedRate;
    } else if (slo.name == "degraded_rate") {
      slo.objective = obs::SloSpec::Objective::kDegradedRate;
    } else {
      return Status::InvalidArgument("--slo: unknown objective '" +
                                     slo.name + "'");
    }
    char* end = nullptr;
    slo.threshold = std::strtod(clause.c_str() + colon + 1, &end);
    if (end != clause.c_str() + clause.size()) {
      return Status::InvalidArgument("--slo: bad threshold in '" + clause +
                                     "'");
    }
    slos->push_back(std::move(slo));
  }
  return Status::OK();
}

}  // namespace simrank::tools

#endif  // SIMRANK_TOOLS_CLI_COMMON_H_
