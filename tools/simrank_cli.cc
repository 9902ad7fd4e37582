// simrank_cli: command-line front end to the library.
//
//   simrank_cli generate --family=web --n=65536 --m=600000 --out=g.bin
//   simrank_cli stats g.bin
//   simrank_cli preprocess g.bin --index=g.idx [--estimate-diagonal]
//   simrank_cli query g.bin --index=g.idx --vertex=12 [--k=20]
//   simrank_cli pair g.bin --u=12 --v=99 [--walks=100]
//   simrank_cli exact g.bin --vertex=12 [--k=20]
//
// Graphs are loaded from the library binary format when the path ends in
// .bin, otherwise parsed as a whitespace edge list (SNAP format).
//
// Flags are `--name=value` (a bare `--name` is true). An undefined flag
// (--thresold), a number that does not parse completely (--k=3x) or a
// boolean other than true, false, 1 or 0 (--resume=no) exits 2.
//
// Exit codes (stable; scripts may branch on them):
//   0  success
//   1  internal/unclassified error
//   2  usage error (bad flags, unknown command, invalid/missing argument)
//   3  IO error (file missing, unwritable, disk trouble)
//   4  corruption (file exists but fails validation)
//   5  deadline exceeded / degraded service
// Every failure also prints the full Status to stderr.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_common.h"
#include "eval/datasets.h"
#include "graph/io.h"
#include "graph/stats.h"
#include "graph/traversal.h"
#include "obs/postmortem.h"
#include "obs/slow_log.h"
#include "simrank/simrank.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace simrank;
using tools::BackendFromFlags;
using tools::Fail;
using tools::LoadGraph;

// Every flag simrank_cli defines, across its commands.
constexpr FlagSpec kFlags = {
    .strings = "backend events-json family index obs-json out postmortem slo",
    .bools = "estimate-diagonal keep-checkpoint resume",
    .uints = "checkpoint-interval k m n partition partitions repeat seed "
             "slow-log-capacity steps threads u v vertex walks",
    .doubles = "decay slow-log threshold",
};

int Usage() {
  std::fprintf(stderr,
               "usage: simrank_cli <command> [args]\n"
               "commands:\n"
               "  generate --family=collab|social|web|citation --n=N --m=M\n"
               "           [--seed=S] --out=PATH[.bin]\n"
               "  stats      GRAPH\n"
               "  preprocess GRAPH --index=PATH [--estimate-diagonal]\n"
               "             [--decay=0.6] [--steps=11]\n"
               "  query      GRAPH --vertex=V [--index=PATH] [--k=20]\n"
               "             [--threshold=0.01] [--estimate-diagonal]\n"
               "             [--backend=auto|mc|exact]\n"
               "             [--repeat=N] [--slow-log=SECONDS]\n"
               "             [--slow-log-capacity=16]\n"
               "             [--slo=p99:0.05,error_rate:0.01,...]\n"
               "  pair       GRAPH --u=U --v=V [--walks=100]\n"
               "  exact      GRAPH --vertex=V [--k=20]  (deterministic "
               "oracle)\n"
               "  allpairs   GRAPH --out=PATH.tsv [--index=PATH]\n"
               "             [--partition=I --partitions=M] [--threads=T]\n"
               "             [--resume] [--checkpoint-interval=Q]\n"
               "             [--keep-checkpoint]\n"
               "global flags:\n"
               "  --obs-json=PATH  write an obs metrics snapshot (JSON,\n"
               "                   simrank-obs-v1) after the command runs,\n"
               "                   even when it fails\n"
               "  --events-json=PATH  write the per-query event report\n"
               "                   (JSON, simrank-events-v2: flight\n"
               "                   recorder, slow-query log, SLO window)\n"
               "                   after the command runs, even on failure\n"
               "  --postmortem=PATH  arm crash dumps: a SIMRANK_CHECK\n"
               "                   failure writes a simrank-events-v2\n"
               "                   document to PATH before aborting\n"
               "exit codes: 0 ok, 1 internal, 2 usage, 3 io, 4 corruption,\n"
               "            5 deadline/degraded/overload-shed\n");
  return 2;
}

SearchOptions OptionsFromFlags(const Flags& flags) {
  SearchOptions options;
  options.simrank.decay = flags.GetDouble("decay", options.simrank.decay);
  options.simrank.num_steps = static_cast<uint32_t>(
      flags.GetInt("steps", options.simrank.num_steps));
  options.k = static_cast<uint32_t>(flags.GetInt("k", options.k));
  options.threshold = flags.GetDouble("threshold", options.threshold);
  options.seed = flags.GetInt("seed", options.seed);
  options.estimate_diagonal = flags.GetBool("estimate-diagonal");
  return options;
}

void PrintRanking(const std::vector<ScoredVertex>& ranking) {
  TablePrinter table({"rank", "vertex", "score"});
  int rank = 1;
  for (const ScoredVertex& entry : ranking) {
    table.AddRow({std::to_string(rank++), std::to_string(entry.vertex),
                  FormatDouble(entry.score)});
  }
  table.Print();
}

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail("--out is required");
  const std::string family_name = flags.GetString("family", "web");
  const std::optional<eval::DatasetFamily> family =
      tools::ParseFamily(family_name);
  if (!family.has_value()) return Fail("unknown family " + family_name);
  eval::DatasetSpec spec;
  spec.name = "cli";
  spec.family = *family;
  spec.target_vertices = static_cast<Vertex>(flags.GetInt("n", 65536));
  spec.target_edges = flags.GetInt("m", spec.target_vertices * 8ull);
  spec.seed = flags.GetInt("seed", 1);
  const DirectedGraph graph = eval::Generate(spec);
  const Status status = tools::IsBinaryGraphPath(out)
                            ? SaveBinary(graph, out)
                            : SaveEdgeListText(graph, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s: %s\n", out.c_str(),
              ToString(ComputeGraphStats(graph)).c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  std::printf("%s\n", ToString(ComputeGraphStats(*graph)).c_str());
  const ComponentStats cc = WeaklyConnectedComponents(*graph);
  std::printf("components=%llu largest=%llu\n",
              static_cast<unsigned long long>(cc.num_components),
              static_cast<unsigned long long>(cc.largest_size));
  Rng rng(7);
  std::printf("avg distance (sampled) = %.3f\n",
              EstimateAverageDistance(*graph, 16, rng));
  return 0;
}

int CmdPreprocess(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  const std::string index_path = flags.GetString("index");
  if (index_path.empty()) return Fail("--index is required");
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  const SearchOptions options = OptionsFromFlags(flags);
  const Status valid = options.Validate();
  if (!valid.ok()) return Fail(valid);
  TopKSearcher searcher(*graph, options);
  WallTimer timer;
  searcher.BuildIndex();
  std::printf("preprocess [mc]: %s (index %s)\n",
              FormatDuration(timer.ElapsedSeconds()).c_str(),
              FormatBytes(searcher.PreprocessBytes()).c_str());
  const Status status = SaveSearcherIndex(searcher, index_path);
  if (!status.ok()) return Fail(status);
  std::printf("index written to %s\n", index_path.c_str());
  return 0;
}

// Stands up the serving engine over a graph, either adopting the
// Monte-Carlo index restored from --index or building the preprocess from
// scratch. Invalid flag combinations come back as a Status, never an
// abort.
Result<std::unique_ptr<service::QueryEngine>> MakeEngine(
    const DirectedGraph& graph, const Flags& flags,
    service::EngineOptions options) {
  auto backend = BackendFromFlags(flags);
  if (!backend.ok()) return backend.status();
  options.backend = *backend;
  options.search = OptionsFromFlags(flags);
  options.num_threads =
      static_cast<uint32_t>(flags.GetInt("threads", options.num_threads));
  const std::string index_path = flags.GetString("index");
  if (!index_path.empty()) {
    // Only the Monte-Carlo backend persists an index, so --index implies
    // mc and rules out auto-selection.
    if (*backend != BackendChoice::kMonteCarlo) {
      return Status::InvalidArgument(
          "--index holds a Monte-Carlo index; it cannot serve --backend=" +
          std::string(BackendChoiceName(*backend)));
    }
    auto loaded = LoadSearcherIndex(graph, options.search, index_path);
    if (!loaded.ok()) return loaded.status();
    return service::QueryEngine::AdoptBackend(
        std::make_unique<MonteCarloBackend>(std::move(*loaded)),
        std::move(options));
  }
  return service::QueryEngine::Create(graph, std::move(options));
}

int CmdQuery(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  // The process-wide sinks the engine records into are this process's
  // to configure.
  const Status slow_log_status = obs::SlowQueryLog::Default().Configure(
      flags.GetDouble("slow-log", 0.0),
      flags.GetInt("slow-log-capacity", obs::SlowQueryLog::kDefaultCapacity));
  if (!slow_log_status.ok()) return Fail(slow_log_status);
  const Status slo_status = tools::ConfigureSlos(flags);
  if (!slo_status.ok()) return Fail(slo_status);
  auto engine = MakeEngine(*graph, flags, service::EngineOptions());
  if (!engine.ok()) return Fail(engine.status());
  const Vertex vertex = static_cast<Vertex>(flags.GetInt("vertex", 0));
  const uint64_t repeat = flags.GetInt("repeat", 1);
  if (repeat < 1) return Fail("--repeat must be >= 1");
  auto response =
      (*engine)->Query(service::QueryRequest::ForVertex(vertex));
  if (!response.ok()) return Fail(response.status());
  PrintRanking(response->top);
  std::printf(
      "%.2f ms, %llu candidates, %llu refined (backend=%s)\n",
      response->engine_seconds * 1e3,
      static_cast<unsigned long long>(response->stats.candidates_enumerated),
      static_cast<unsigned long long>(response->stats.refined),
      std::string(BackendKindName(response->backend)).c_str());
  // Repeats walk the vertex space from --vertex so every request is a
  // distinct query — traffic for the event telemetry (--events-json,
  // --slo, --slow-log) rather than N cache hits on one key.
  for (uint64_t i = 1; i < repeat; ++i) {
    const Vertex v = static_cast<Vertex>((vertex + i) % graph->NumVertices());
    auto r = (*engine)->Query(service::QueryRequest::ForVertex(v));
    if (!r.ok()) return Fail(r.status());
  }
  if (repeat > 1) {
    std::printf("ran %llu queries\n",
                static_cast<unsigned long long>(repeat));
  }
  return 0;
}

int CmdPair(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  const Vertex u = static_cast<Vertex>(flags.GetInt("u", 0));
  const Vertex v = static_cast<Vertex>(flags.GetInt("v", 0));
  if (u >= graph->NumVertices() || v >= graph->NumVertices()) {
    return Fail("--u/--v out of range");
  }
  SimRankParams params;
  params.decay = flags.GetDouble("decay", params.decay);
  params.num_steps =
      static_cast<uint32_t>(flags.GetInt("steps", params.num_steps));
  const uint32_t walks = static_cast<uint32_t>(flags.GetInt("walks", 100));
  const std::vector<double> diagonal =
      UniformDiagonal(graph->NumVertices(), params.decay);
  Rng rng(flags.GetInt("seed", 42));
  const MonteCarloSimRank mc(*graph, params, diagonal);
  const LinearSimRank linear(*graph, params, diagonal);
  std::printf("monte-carlo (R=%u): %s\n", walks,
              FormatDouble(mc.SinglePair(u, v, walks, rng)).c_str());
  std::printf("deterministic     : %s\n",
              FormatDouble(linear.SinglePair(u, v)).c_str());
  std::printf("surfer-pair model : %s\n",
              FormatDouble(SurferPairSimRank(*graph, u, v, params,
                                             walks * 10, rng))
                  .c_str());
  return 0;
}

int CmdExact(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  const Vertex vertex = static_cast<Vertex>(flags.GetInt("vertex", 0));
  if (vertex >= graph->NumVertices()) return Fail("--vertex out of range");
  const uint32_t k = static_cast<uint32_t>(flags.GetInt("k", 20));
  SimRankParams params;
  params.decay = flags.GetDouble("decay", params.decay);
  params.num_steps =
      static_cast<uint32_t>(flags.GetInt("steps", params.num_steps));
  const LinearSimRank linear(
      *graph, params, UniformDiagonal(graph->NumVertices(), params.decay));
  const std::vector<double> row = linear.SingleSource(vertex);
  TopKCollector collector(k);
  for (size_t w = 0; w < row.size(); ++w) {
    if (w != vertex && row[w] > 0.0) {
      collector.Push(static_cast<Vertex>(w), row[w]);
    }
  }
  PrintRanking(collector.TakeSorted());
  return 0;
}

int CmdAllPairs(const Flags& flags) {
  if (flags.positional().empty()) return Usage();
  const std::string out = flags.GetString("out");
  if (out.empty()) return Fail("--out is required");
  auto backend = BackendFromFlags(flags);
  if (!backend.ok()) return Fail(backend.status());
  if (*backend != BackendChoice::kMonteCarlo) {
    return Fail(
        "allpairs requires --backend=mc: the checkpointed all-pairs runner "
        "is tied to the Monte-Carlo kernel");
  }
  auto graph = LoadGraph(flags.positional()[0]);
  if (!graph.ok()) return Fail(graph.status());
  service::EngineOptions engine_options;
  engine_options.num_threads = 1;  // --threads overrides inside MakeEngine
  engine_options.cache_capacity = 0;  // every vertex queried exactly once
  auto engine = MakeEngine(*graph, flags, std::move(engine_options));
  if (!engine.ok()) return Fail(engine.status());
  AllPairsFileOptions all;
  all.run.partition = static_cast<uint32_t>(flags.GetInt("partition", 0));
  all.run.num_partitions =
      static_cast<uint32_t>(flags.GetInt("partitions", 1));
  all.run.progress = [](uint64_t done) {
    std::fprintf(stderr, "\r%llu queries done",
                 static_cast<unsigned long long>(done));
  };
  all.checkpoint_queries =
      flags.GetInt("checkpoint-interval", all.checkpoint_queries);
  all.resume = flags.GetBool("resume");
  all.keep_checkpoint = flags.GetBool("keep-checkpoint");
  auto report = (*engine)->RunAllPairsToFile(all, out);
  if (!report.ok()) return Fail(report.status());
  std::fprintf(stderr, "\n");
  std::printf("partition %u/%u: %llu queries (%llu resumed) in %s -> %s\n",
              all.run.partition, all.run.num_partitions,
              static_cast<unsigned long long>(report->queries),
              static_cast<unsigned long long>(report->resumed_queries),
              FormatDuration(report->seconds).c_str(), out.c_str());
  return 0;
}

int RunCommand(const std::string& command, const Flags& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "preprocess") return CmdPreprocess(flags);
  if (command == "query") return CmdQuery(flags);
  if (command == "pair") return CmdPair(flags);
  if (command == "exact") return CmdExact(flags);
  if (command == "allpairs") return CmdAllPairs(flags);
  std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Result<Flags> flags = Flags::Parse(argc, argv, 2, kFlags);
  if (!flags.ok()) return Fail(flags.status());
  // Arm crash dumps before any work runs so a CHECK failure anywhere in
  // the command leaves an artifact.
  const std::string postmortem = flags->GetString("postmortem");
  if (!postmortem.empty()) obs::SetPostmortemPath(postmortem);
  const int code = RunCommand(command, *flags);
  // The reports are written even on failure: chaos tests read faults.*
  // counters and event records from runs that (deliberately) errored out.
  const int report_code = tools::WriteReports(*flags);
  return code != 0 ? code : report_code;
}
