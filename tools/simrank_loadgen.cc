// simrank_loadgen: open-loop load generator for the query engine
// (docs/SERVING.md).
//
//   simrank_loadgen g.bin --qps=200 --duration=10 --out=BENCH_serving.json
//   simrank_loadgen --family=web --n=2000 --m=12000 --qps=100
//       --burst=4:2:4 --slo=p99:0.05,shed_rate:0.5
//   simrank_loadgen g.bin --find-max --step-duration=2 --max-steps=6
//
// With a positional graph path the graph is loaded (binary or edge
// list, like simrank_cli); without one a synthetic graph is generated
// in memory from --family/--n/--m/--graph-seed.
//
// Workload: --qps --duration --burst=start:dur:mult[,start:dur:mult...]
//   --zipf --universe --mix=topk:pair:group:background --group-size
//   --clients --seed --prewarm --deadline (interactive, seconds)
// Engine:   --threads --k --threshold --walks-estimate --walks-refine
//   --backend=mc|exact|auto --cache-capacity --slo=<spec>
// Admission: --interactive-queue --batch-queue --degrade-watermark
//   --client-rate --client-burst --target-p99 --breach-steps
//   --recover-steps
// Mode:     --find-max --step-duration --max-steps --max-shed-rate
// Output:   --out=PATH (simrank-serving-v1 JSON) --events-json=PATH
//   --obs-json=PATH (metrics snapshot; includes the faults.* counters)
//
// Fault injection composes through the environment: run under
// SIMRANK_FAULTS=service.query.exec=error@K to exercise chaos under
// load (tools/chaos_test.cmake does).
//
// Flags follow simrank_cli's grammar; a --burst clause must hold exactly
// 3 numbers and --mix exactly 4, or the tool exits 2.
//
// Exit codes match simrank_cli: 0 ok, 1 internal, 2 usage, 3 io,
// 4 corruption, 5 deadline/degraded/overload-shed.

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "eval/datasets.h"
#include "loadgen/loadgen.h"
#include "obs/export.h"
#include "service/query_engine.h"

namespace {

using namespace simrank;
using tools::Fail;

// Every flag simrank_loadgen defines.
constexpr FlagSpec kFlags = {
    .strings = "backend burst events-json family mix obs-json out slo",
    .bools = "find-max help",
    .uints = "batch-queue breach-steps cache-capacity clients "
             "degrade-watermark graph-seed group-size interactive-queue k m "
             "max-steps n prewarm recover-steps seed threads universe "
             "walks-estimate walks-refine",
    .doubles = "client-burst client-rate deadline duration max-shed-rate qps "
               "step-duration target-p99 threshold zipf",
};

Result<DirectedGraph> BuildGraph(const Flags& flags) {
  if (!flags.positional().empty()) {
    return tools::LoadGraph(flags.positional().front());
  }
  const std::string family_name = flags.GetString("family", "web");
  const std::optional<eval::DatasetFamily> family =
      tools::ParseFamily(family_name);
  if (!family.has_value()) {
    return Status::InvalidArgument("unknown family " + family_name);
  }
  eval::DatasetSpec spec;
  spec.name = "loadgen";
  spec.family = *family;
  spec.target_vertices = static_cast<Vertex>(flags.GetInt("n", 2000));
  spec.target_edges = flags.GetInt("m", 12000);
  spec.seed = flags.GetInt("graph-seed", 42);
  return eval::Generate(spec);
}

// The colon-separated numbers of `text`; none when one does not parse.
std::vector<double> ParseColonNumbers(std::string_view text) {
  std::vector<double> numbers;
  for (const std::string_view field : Split(text, ":")) {
    const std::optional<double> number = ParseNumber<double>(field);
    if (!number.has_value()) return {};
    numbers.push_back(*number);
  }
  return numbers;
}

// --burst grammar: comma-separated start:duration:multiplier clauses.
Status ParseBursts(const std::string& spec,
                   std::vector<loadgen::BurstPhase>* bursts) {
  for (const std::string_view clause : Split(spec, ",")) {
    if (clause.empty()) continue;
    const std::vector<double> b = ParseColonNumbers(clause);
    if (b.size() != 3) {
      return Status::InvalidArgument(
          "--burst: expected start:duration:multiplier, got '" +
          std::string(clause) + "'");
    }
    bursts->push_back(loadgen::BurstPhase{b[0], b[1], b[2]});
  }
  return Status::OK();
}

// --mix grammar: topk:pair:group:background weights.
Status ParseMix(const std::string& spec, loadgen::WorkloadOptions* workload) {
  const std::vector<double> w = ParseColonNumbers(spec);
  if (w.size() != 4) {
    return Status::InvalidArgument(
        "--mix: expected topk:pair:group:background, got '" + spec + "'");
  }
  workload->topk_weight = w[0];
  workload->pair_weight = w[1];
  workload->group_weight = w[2];
  workload->background_weight = w[3];
  return Status::OK();
}

void WriteClassJson(obs::JsonWriter& json, const loadgen::ClassReport& cls) {
  json.BeginObject();
  json.Key("sent").Uint(cls.sent);
  json.Key("completed").Uint(cls.completed);
  json.Key("degraded").Uint(cls.degraded);
  json.Key("shed").Uint(cls.shed);
  json.Key("deadline").Uint(cls.deadline);
  json.Key("rejected").Uint(cls.rejected);
  json.Key("cache_hits").Uint(cls.cache_hits);
  json.Key("p50_seconds").Double(cls.p50_seconds);
  json.Key("p99_seconds").Double(cls.p99_seconds);
  json.Key("p999_seconds").Double(cls.p999_seconds);
  json.Key("max_seconds").Double(cls.max_seconds);
  json.EndObject();
}

void WriteRunJson(obs::JsonWriter& json, const loadgen::LoadReport& report) {
  json.BeginObject();
  json.Key("offered_qps").Double(report.offered_qps);
  json.Key("achieved_qps").Double(report.achieved_qps);
  json.Key("wall_seconds").Double(report.wall_seconds);
  json.Key("arrivals").Uint(report.arrivals);
  const uint64_t sent = report.interactive.sent + report.batch.sent;
  const uint64_t shed = report.interactive.shed + report.batch.shed;
  const uint64_t degraded =
      report.interactive.degraded + report.batch.degraded;
  json.Key("shed_rate").Double(
      sent > 0 ? static_cast<double>(shed) / static_cast<double>(sent) : 0.0);
  json.Key("degraded_rate")
      .Double(sent > 0 ? static_cast<double>(degraded) /
                             static_cast<double>(sent)
                       : 0.0);
  json.Key("interactive");
  WriteClassJson(json, report.interactive);
  json.Key("batch");
  WriteClassJson(json, report.batch);
  json.Key("slos_ok").Bool(report.slos_ok);
  json.Key("slos").BeginArray();
  for (const obs::SloResult& slo : report.slos) {
    json.BeginObject();
    json.Key("name").String(slo.spec.name);
    json.Key("objective").String(obs::SloObjectiveName(slo.spec.objective));
    json.Key("threshold").Double(slo.spec.threshold);
    json.Key("value").Double(slo.value);
    json.Key("ok").Bool(slo.ok);
    json.Key("samples").Uint(slo.samples);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string ServingJson(const loadgen::LoadGenOptions& options,
                        const loadgen::LoadReport& report,
                        const loadgen::SustainableQps* sustainable) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("simrank-serving-v1");
  json.Key("git_rev").String(obs::BuildGitRevision());
  json.Key("seed").Uint(options.seed);
  json.Key("workload").BeginObject();
  json.Key("rate_qps").Double(options.workload.rate_qps);
  json.Key("duration_seconds").Double(options.workload.duration_seconds);
  json.Key("zipf_exponent").Double(options.workload.zipf_exponent);
  json.Key("group_size").Uint(options.workload.group_size);
  json.Key("num_clients").Uint(options.workload.num_clients);
  json.Key("bursts").Uint(options.workload.bursts.size());
  json.Key("prewarm").Uint(options.prewarm);
  json.EndObject();
  json.Key("max_sustainable_qps")
      .Double(sustainable != nullptr ? sustainable->max_qps : 0.0);
  json.Key("steps").BeginArray();
  if (sustainable != nullptr) {
    for (const loadgen::SustainableQps::Step& step : sustainable->steps) {
      json.BeginObject();
      json.Key("qps").Double(step.qps);
      json.Key("sustainable").Bool(step.sustainable);
      json.Key("p99_seconds").Double(step.p99_seconds);
      json.Key("shed_rate").Double(step.shed_rate);
      json.EndObject();
    }
  }
  json.EndArray();
  json.Key("run");
  WriteRunJson(json, report);
  json.EndObject();
  return json.TakeString();
}

void PrintClass(const char* name, const loadgen::ClassReport& cls) {
  std::printf(
      "%-12s sent=%llu ok=%llu shed=%llu degraded=%llu deadline=%llu "
      "cache=%llu p50=%.3fms p99=%.3fms p999=%.3fms\n",
      name, static_cast<unsigned long long>(cls.sent),
      static_cast<unsigned long long>(cls.completed),
      static_cast<unsigned long long>(cls.shed),
      static_cast<unsigned long long>(cls.degraded),
      static_cast<unsigned long long>(cls.deadline),
      static_cast<unsigned long long>(cls.cache_hits),
      cls.p50_seconds * 1e3, cls.p99_seconds * 1e3, cls.p999_seconds * 1e3);
}

int Run(int argc, char** argv) {
  const Result<Flags> parsed = Flags::Parse(argc, argv, 1, kFlags);
  if (!parsed.ok()) return Fail(parsed.status());
  const Flags& flags = *parsed;
  if (flags.GetBool("help")) {
    std::fprintf(stderr, "usage: simrank_loadgen [graph] [--flags]\n"
                         "see the header of tools/simrank_loadgen.cc\n");
    return 2;
  }

  Result<DirectedGraph> graph = BuildGraph(flags);
  if (!graph.ok()) return Fail(graph.status());

  service::EngineOptions engine_options;
  engine_options.search.k =
      static_cast<uint32_t>(flags.GetInt("k", engine_options.search.k));
  engine_options.search.threshold =
      flags.GetDouble("threshold", engine_options.search.threshold);
  engine_options.search.estimate_walks = static_cast<uint32_t>(flags.GetInt(
      "walks-estimate", engine_options.search.estimate_walks));
  engine_options.search.refine_walks = static_cast<uint32_t>(
      flags.GetInt("walks-refine", engine_options.search.refine_walks));
  engine_options.num_threads =
      static_cast<uint32_t>(flags.GetInt("threads", 0));
  engine_options.cache_capacity = flags.GetInt("cache-capacity", 4096);
  const Result<BackendChoice> backend = tools::BackendFromFlags(flags);
  if (!backend.ok()) return Fail(backend.status().message());
  engine_options.backend = *backend;
  if (const Status status = tools::ConfigureSlos(flags); !status.ok()) {
    return Fail(status);
  }
  service::AdmissionOptions& admission = engine_options.admission;
  admission.interactive_queue_limit = flags.GetInt("interactive-queue", 0);
  admission.batch_queue_limit = flags.GetInt("batch-queue", 0);
  admission.degrade_watermark = flags.GetInt("degrade-watermark", 0);
  admission.client_rate = flags.GetDouble("client-rate", 0.0);
  admission.client_burst = flags.GetDouble("client-burst", 0.0);
  admission.target_p99_seconds = flags.GetDouble("target-p99", 0.0);
  admission.breach_steps =
      static_cast<uint32_t>(flags.GetInt("breach-steps", 2));
  admission.recover_steps =
      static_cast<uint32_t>(flags.GetInt("recover-steps", 5));

  loadgen::LoadGenOptions options;
  options.workload.rate_qps = flags.GetDouble("qps", 100.0);
  options.workload.duration_seconds = flags.GetDouble("duration", 5.0);
  options.workload.zipf_exponent = flags.GetDouble("zipf", 0.8);
  options.workload.popularity_universe =
      static_cast<uint32_t>(flags.GetInt("universe", 0));
  options.workload.group_size =
      static_cast<uint32_t>(flags.GetInt("group-size", 4));
  options.workload.num_clients =
      static_cast<uint32_t>(flags.GetInt("clients", 8));
  options.seed = flags.GetInt("seed", 1);
  options.prewarm = flags.GetInt("prewarm", 0);
  options.interactive_deadline_seconds = flags.GetDouble("deadline", 0.0);
  const std::string burst_spec = flags.GetString("burst");
  if (!burst_spec.empty()) {
    const Status status = ParseBursts(burst_spec, &options.workload.bursts);
    if (!status.ok()) return Fail(status);
  }
  const std::string mix_spec = flags.GetString("mix");
  if (!mix_spec.empty()) {
    const Status status = ParseMix(mix_spec, &options.workload);
    if (!status.ok()) return Fail(status);
  }
  {
    const Status status = options.Validate();
    if (!status.ok()) return Fail(status);
  }

  Result<std::unique_ptr<service::QueryEngine>> engine =
      service::QueryEngine::Create(graph.value(), engine_options);
  if (!engine.ok()) return Fail(engine.status());

  loadgen::LoadReport report;
  loadgen::SustainableQps sustainable;
  const bool find_max = flags.GetBool("find-max");
  if (find_max) {
    Result<loadgen::SustainableQps> ramp = loadgen::FindMaxSustainableQps(
        *engine.value(), options, flags.GetDouble("target-p99", 0.05),
        flags.GetDouble("max-shed-rate", 0.5),
        flags.GetDouble("step-duration", 2.0),
        static_cast<int>(flags.GetInt("max-steps", 5)));
    if (!ramp.ok()) return Fail(ramp.status());
    sustainable = std::move(ramp.value());
    report = sustainable.at_max;
    std::printf("max_sustainable_qps %.1f (%zu steps)\n",
                sustainable.max_qps, sustainable.steps.size());
  } else {
    loadgen::LoadGenerator generator(*engine.value(), options);
    Result<loadgen::LoadReport> run = generator.Run();
    if (!run.ok()) return Fail(run.status());
    report = std::move(run.value());
  }

  std::printf("offered %.1f qps, achieved %.1f qps over %.2fs (%llu "
              "arrivals)\n",
              report.offered_qps, report.achieved_qps, report.wall_seconds,
              static_cast<unsigned long long>(report.arrivals));
  PrintClass("interactive", report.interactive);
  PrintClass("batch", report.batch);
  for (const obs::SloResult& slo : report.slos) {
    std::printf("slo %-14s %s (value %.6f, threshold %.6f)\n",
                slo.spec.name.c_str(), slo.ok ? "ok" : "BREACHED", slo.value,
                slo.spec.threshold);
  }

  int code = 0;
  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const Status status = obs::WriteJsonFile(
        out, ServingJson(options, report, find_max ? &sustainable : nullptr));
    if (!status.ok()) code = Fail(status);
  }
  const int report_code = tools::WriteReports(flags);
  return code != 0 ? code : report_code;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
