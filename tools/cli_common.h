#ifndef SIMRANK_TOOLS_CLI_COMMON_H_
#define SIMRANK_TOOLS_CLI_COMMON_H_

// Plumbing shared by the command-line tools (simrank_cli,
// simrank_loadgen): the documented Status -> exit-code mapping (Fail),
// the graph loader, the --family, --backend and --slo grammars, and the
// closing --obs-json / --events-json reports. Flags are parsed by
// simrank::Flags (util/parse.h), the grammar the benches share.
// Header-only so each tool stays a single translation unit.

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "eval/datasets.h"
#include "graph/io.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "simrank/searcher_backend.h"
#include "util/parse.h"
#include "util/status.h"

namespace simrank::tools {

// Prints a failed Status and returns its exit code, by the documented
// mapping (see each tool's header comment). Argument-shaped codes
// collapse to the usage code: whether "--vertex=9999999" is caught by
// flag validation or deep in the library, the caller sees the same 2.
inline int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
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

// A usage error no Status describes: exit 2.
inline int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
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
    const int failed = Fail(status);
    if (code == 0) code = failed;
  };
  const std::string obs_json = flags.GetString("obs-json");
  if (!obs_json.empty()) {
    // A short run never rolls a window bucket: evaluate the SLOs now, or
    // their gauges hold the vacuous values SetSlos published.
    obs::RollingWindow::Default().UpdateGauges(obs::RollingWindow::NowSecond());
    note(obs::WriteJson(obs_json, obs::MetricsRegistry::Default().Snapshot()));
  }
  const std::string events_json = flags.GetString("events-json");
  if (!events_json.empty()) {
    note(obs::WriteEventsJson(events_json, obs::CollectDefaultEventsReport()));
  }
  return code;
}

// Sets the SLOs of the rolling window this process owns from --slo:
// comma-separated `objective:threshold` clauses where objective is p50 |
// p95 | p99 (seconds) or error_rate | shed_rate | degraded_rate
// (fraction), e.g. "p99:0.05,error_rate:0.01". The objective token
// doubles as the SLO name (gauges service.slo.p99.* etc.).
inline Status ConfigureSlos(const Flags& flags) {
  const std::string spec = flags.GetString("slo");
  std::vector<obs::SloSpec> slos;
  for (const std::string_view clause : Split(spec, ",")) {
    if (clause.empty()) continue;
    const std::vector<std::string_view> fields = Split(clause, ":");
    if (fields.size() != 2 || fields[0].empty() || fields[1].empty()) {
      return Status::InvalidArgument(
          "--slo: expected objective:threshold, got '" + std::string(clause) +
          "'");
    }
    obs::SloSpec slo;
    slo.name = fields[0];
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
    const std::optional<double> threshold = ParseNumber<double>(fields[1]);
    if (!threshold.has_value()) {
      return Status::InvalidArgument("--slo: bad threshold in '" +
                                     std::string(clause) + "'");
    }
    slo.threshold = *threshold;
    slos.push_back(std::move(slo));
  }
  return obs::RollingWindow::Default().SetSlos(std::move(slos));
}

}  // namespace simrank::tools

#endif  // SIMRANK_TOOLS_CLI_COMMON_H_
