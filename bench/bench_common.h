#ifndef SIMRANK_BENCH_BENCH_COMMON_H_
#define SIMRANK_BENCH_BENCH_COMMON_H_

// Shared plumbing for the table/figure reproduction binaries.
//
// Every bench accepts:
//   --scale=<float>   multiply every dataset size (default 1.0; the same
//                     knob as eval::DatasetRegistry; must be > 0)
//   --full            include the largest datasets / configurations
//   --queries=<int>   override the per-dataset query count
//   --json=<path>     additionally write a machine-readable
//                     "simrank-bench-v1" JSON document (wall times per
//                     case + full obs metrics snapshot) to <path>
// and prints aligned tables in the layout of the corresponding paper
// artifact. EXPERIMENTS.md records paper-vs-measured numbers.
//
// Scale precedence is explicit: the SIMRANK_BENCH_SCALE environment
// variable is a forced override (CI pins one corpus size across every
// bench invocation without touching each command line), so when both are
// given, the environment wins over --scale — even over an explicit
// --scale=1.0 — and a notice is printed. Malformed values in either
// place are an error, never a silent 1.0.

#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/status.h"

namespace simrank::bench {

struct BenchArgs {
  double scale = 1.0;
  bool full = false;
  int queries = 0;  // 0 = bench default
  std::string json_path;  // empty = no JSON output
};

namespace internal {

[[noreturn]] inline void ArgError(const char* what, const char* value) {
  std::fprintf(stderr, "error: invalid %s '%s'\n", what, value);
  std::exit(2);
}

/// strtod with full-consumption and positivity checks; exits with a
/// diagnostic on junk, overflow, zero, or negative input (atof's silent
/// 0.0-then-clamped-to-1.0 behaviour is exactly the bug this replaces).
inline double ParseScaleOrDie(const char* text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) ArgError(what, text);
  if (!(value > 0.0) || value > 1e6) ArgError(what, text);
  return value;
}

inline int ParseIntOrDie(const char* text, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) ArgError(what, text);
  if (value < 0 || value > 1000000000L) ArgError(what, text);
  return static_cast<int>(value);
}

}  // namespace internal

/// Parses the common bench flags. Unknown `--flags` are an error unless
/// `allow_unknown` is set (bench_micro shares argv with google-benchmark,
/// whose flags must pass through).
inline BenchArgs ParseArgs(int argc, char** argv,
                           bool allow_unknown = false) {
  BenchArgs args;
  bool scale_from_flag = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      args.scale = internal::ParseScaleOrDie(arg + 8, "--scale");
      scale_from_flag = true;
    } else if (std::strcmp(arg, "--full") == 0) {
      args.full = true;
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      args.queries = internal::ParseIntOrDie(arg + 10, "--queries");
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.json_path = arg + 7;
      if (args.json_path.empty()) internal::ArgError("--json", arg);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: %s [--scale=F] [--full] [--queries=N] [--json=PATH]\n"
          "  --scale=F     dataset size multiplier, F > 0 (default 1.0)\n"
          "  --full        include the largest datasets\n"
          "  --queries=N   per-dataset query count override\n"
          "  --json=PATH   write simrank-bench-v1 JSON results to PATH\n"
          "env: SIMRANK_BENCH_SCALE forcibly overrides --scale when set\n",
          argv[0]);
      std::exit(0);
    } else if (!allow_unknown && std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s' (try --help)\n", arg);
      std::exit(2);
    }
  }
  const char* env = std::getenv("SIMRANK_BENCH_SCALE");
  if (env != nullptr && env[0] != '\0') {
    const double env_scale =
        internal::ParseScaleOrDie(env, "SIMRANK_BENCH_SCALE");
    if (scale_from_flag && env_scale != args.scale) {
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
