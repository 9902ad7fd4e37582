#ifndef SIMRANK_TOOLS_CLI_COMMON_H_
#define SIMRANK_TOOLS_CLI_COMMON_H_

// Plumbing shared by the command-line tools (simrank_cli,
// simrank_loadgen): the tiny --key=value flag parser, which refuses
// flags a tool does not define and malformed numbers, the documented
// Status -> exit-code mapping (Fail), the graph loader, the --family,
// --backend and --slo grammars, and the closing --obs-json /
// --events-json reports. Header-only so each tool stays a single
// translation unit.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <ranges>
#include <string>
#include <string_view>
#include <system_error>
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

// The flags a tool defines: space-separated names per value grammar.
// Numeric values must parse completely: "3x" is not an integer and "O.5"
// is not a number.
struct FlagSpec {
  std::string_view strings, bools, uints, doubles;
};

// True when the space-separated `names` include `name`.
inline bool Lists(std::string_view names, std::string_view name) {
  return std::ranges::any_of(std::views::split(names, ' '), [&](auto word) {
    return std::string_view(word.begin(), word.end()) == name;
  });
}

// `text` as a T (uint64_t or double) when all of it parses.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

class Flags {
 public:
  // Parses argv[first, argc): `--name=value`, `--name` (the value
  // "true"), anything else positional. A name `spec` does not list, or a
  // numeric value that does not parse completely, is InvalidArgument
  // naming the flag, so a tool refuses it before it does any work.
  static Result<Flags> Parse(int argc, char** argv, int first,
                             const FlagSpec& spec) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        flags.positional_.emplace_back(arg);
        continue;
      }
      const size_t eq = arg.find('=');
      const std::string name(arg.substr(2, eq - 2));
      const std::string value(eq == arg.npos ? "true" : arg.substr(eq + 1));
      const bool uint = Lists(spec.uints, name);
      const bool number = uint || Lists(spec.doubles, name);
      if (!number && !Lists(spec.bools, name) && !Lists(spec.strings, name)) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      if (number && !(uint ? ParseNumber<uint64_t>(value).has_value()
                           : ParseNumber<double>(value).has_value())) {
        return Status::InvalidArgument(
            "--" + name + ": expected " +
            (uint ? "a non-negative integer" : "a number") + ", got '" +
            value + "'");
      }
      flags.values_[name] = value;
    }
    return flags;
  }

  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // The numeric getters read values Parse checked; a flag read with the
  // wrong getter throws std::bad_optional_access.
  uint64_t GetInt(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseNumber<uint64_t>(it->second).value();
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback
                               : ParseNumber<double>(it->second).value();
  }
  bool GetBool(const std::string& key) const {
    auto it = values_.find(key);
    return it != values_.end() && it->second != "false";
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  Flags() = default;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

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
    const std::optional<double> threshold =
        ParseNumber<double>(std::string_view(clause).substr(colon + 1));
    if (!threshold.has_value()) {
      return Status::InvalidArgument("--slo: bad threshold in '" + clause +
                                     "'");
    }
    slo.threshold = *threshold;
    slos.push_back(std::move(slo));
  }
  return obs::RollingWindow::Default().SetSlos(std::move(slos));
}

}  // namespace simrank::tools

#endif  // SIMRANK_TOOLS_CLI_COMMON_H_
