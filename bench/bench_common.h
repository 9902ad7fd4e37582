#ifndef SIMRANK_BENCH_BENCH_COMMON_H_
#define SIMRANK_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench accepts:
//   --scale=<float>   multiply every dataset size (default 1.0; the same
//                     knob as eval::DatasetRegistry; in (0, 1e6])
//   --full            include the largest datasets / configurations
//   --queries=<int>   override the per-dataset query count (at most 1e9)
//   --json=<path>     additionally write a machine-readable
//                     "simrank-bench-v1" JSON document (wall times per
//                     case + full obs metrics snapshot) to <path>
// and prints aligned tables in the layout of the corresponding paper
// artifact. EXPERIMENTS.md records paper-vs-measured numbers. Flags use
// the tools' grammar (util/parse.h); a malformed or out-of-range value or
// an empty --json exits 2, and --help prints the usage and exits 0.
//
// Scale precedence is explicit: the SIMRANK_BENCH_SCALE environment
// variable is a forced override (CI pins one corpus size across every
// bench invocation without touching each command line), so when both are
// given, the environment wins over --scale — even over an explicit
// --scale=1.0 — and a notice is printed. Malformed values in either
// place are an error, never a silent 1.0.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/status.h"

namespace simrank::bench {

struct BenchArgs {
  double scale = 1.0;
  bool full = false;
  int queries = 0;  // 0 = bench default
  std::string json_path;  // empty = no JSON output
};

/// The flags every bench defines.
inline constexpr FlagSpec kBenchFlags = {
    .strings = "json",
    .bools = "full help",
    .uints = "queries",
    .doubles = "scale",
};

/// Parses the common bench flags, exiting as the header comment says.
inline BenchArgs ParseArgs(int argc, char** argv) {
  const auto fail = [](const std::string& message) {
    std::fprintf(stderr, "error: %s (try --help)\n", message.c_str());
    std::exit(2);
  };
  const Result<Flags> flags = Flags::Parse(argc, argv, 1, kBenchFlags);
  if (!flags.ok()) fail(flags.status().message());
  if (flags->GetBool("help")) {
    std::printf(
        "usage: %s [--scale=F] [--full] [--queries=N] [--json=PATH]\n"
        "  --scale=F     dataset size multiplier, F > 0 (default 1.0)\n"
        "  --full        include the largest datasets\n"
        "  --queries=N   per-dataset query count override\n"
        "  --json=PATH   write simrank-bench-v1 JSON results to PATH\n"
        "env: SIMRANK_BENCH_SCALE forcibly overrides --scale when set\n",
        argv[0]);
    std::exit(0);
  }
  // A scale from --scale or the environment; NaN fails both comparisons.
  const auto scale = [&fail](const std::string& what, std::string_view text) {
    const std::optional<double> value = ParseNumber<double>(text);
    if (!value.has_value() || !(*value > 0.0 && *value <= 1e6)) {
      fail(what + ": expected a number in (0, 1e6], got '" +
           std::string(text) + "'");
    }
    return *value;
  };
  BenchArgs args;
  const std::string scale_flag = flags->GetString("scale");
  if (!scale_flag.empty()) args.scale = scale("--scale", scale_flag);
  args.full = flags->GetBool("full");
  const uint64_t queries = flags->GetInt("queries", 0);
  if (queries > 1000000000) fail("--queries: expected at most 1000000000");
  args.queries = static_cast<int>(queries);
  // The fallback tells an empty --json= from no --json at all.
  if (flags->GetString("json", "unset").empty()) fail("--json: empty path");
  args.json_path = flags->GetString("json");
  const char* env = std::getenv("SIMRANK_BENCH_SCALE");
  if (env != nullptr && env[0] != '\0') {
    const double env_scale = scale("SIMRANK_BENCH_SCALE", env);
    if (!scale_flag.empty() && env_scale != args.scale) {
      std::fprintf(stderr,
                   "note: SIMRANK_BENCH_SCALE=%s overrides --scale=%g\n", env,
                   args.scale);
    }
    args.scale = env_scale;
  }
  return args;
}

/// Samples `count` query vertices that have at least one in-link (walks
/// from isolated vertices die immediately, which is uninteresting to
/// benchmark). Deterministic in `seed`.
inline std::vector<Vertex> SampleQueryVertices(const DirectedGraph& graph,
                                               int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vertex> queries;
  queries.reserve(count);
  int guard = 0;
  while (static_cast<int>(queries.size()) < count && guard < count * 100) {
    const Vertex v = rng.UniformIndex(graph.NumVertices());
    if (graph.InDegree(v) > 0) queries.push_back(v);
    ++guard;
  }
  return queries;
}

/// Memory budget used to decide when a baseline "fails to allocate" — the
/// reproduction of the paper's omitted (—) Table 4 entries on our smaller
/// machine. 2 GB keeps the single-core bench suite fast while leaving the
/// crossover points (who fails first, and in which order) intact.
inline constexpr uint64_t kBaselineMemoryBudget = 2ull << 30;

/// Prints a standard bench header.
inline void PrintHeader(const char* title, const BenchArgs& args) {
  std::printf("=== %s ===\n", title);
  std::printf("(scale=%.3g%s; see EXPERIMENTS.md for paper-vs-measured)\n\n",
              args.scale, args.full ? ", full" : "");
}

/// Accumulates per-case wall times during a bench run and, when --json
/// was given, writes the "simrank-bench-v1" document (cases + a full
/// obs::MetricsRegistry snapshot + git rev) on Finish(). With no
/// --json path, Finish() is a no-op, so every bench can use one
/// unconditionally.
class BenchJsonReporter {
 public:
  BenchJsonReporter(const char* bench_name, const BenchArgs& args)
      : args_(args) {
    report_.bench = bench_name;
    report_.args["scale"] = FormatDouble(args.scale);
    report_.args["full"] = args.full ? "true" : "false";
    report_.args["queries"] = std::to_string(args.queries);
  }

  /// Records one finished case.
  void AddCase(std::string name, double wall_seconds,
               std::map<std::string, double> values = {}) {
    obs::BenchCase bench_case;
    bench_case.name = std::move(name);
    bench_case.wall_seconds = wall_seconds;
    bench_case.values = std::move(values);
    report_.cases.push_back(std::move(bench_case));
  }

  /// Writes the JSON document if --json was given. Returns false (after
  /// printing a diagnostic) on IO failure.
  bool Finish() {
    if (args_.json_path.empty()) return true;
    const Status status = obs::WriteJson(
        args_.json_path, report_, obs::MetricsRegistry::Default().Snapshot());
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return false;
    }
    std::printf("\nwrote %s\n", args_.json_path.c_str());
    return true;
  }

 private:
  static std::string FormatDouble(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
  }

  BenchArgs args_;
  obs::BenchReport report_;
};

}  // namespace simrank::bench

#endif  // SIMRANK_BENCH_BENCH_COMMON_H_
