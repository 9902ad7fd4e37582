#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "obs/build_info.h"
#include "util/atomic_file.h"
#include "util/check.h"
#include "util/fault_injection.h"

namespace simrank::obs {

// --- JsonWriter ------------------------------------------------------------

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) Append(",");
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  Append("{");
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  SIMRANK_CHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  Append("}");
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  Append("[");
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  SIMRANK_CHECK(!needs_comma_.empty());
  needs_comma_.pop_back();
  Append("]");
  return *this;
}

namespace {

void AppendEscaped(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

JsonWriter& JsonWriter::Key(std::string_view key) {
  SIMRANK_CHECK(!needs_comma_.empty());
  SIMRANK_CHECK(!after_key_);
  if (needs_comma_.back()) Append(",");
  needs_comma_.back() = true;
  AppendEscaped(out_, key);
  Append(":");
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendEscaped(out_, value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    Append("null");
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  Append(value ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  Append("null");
  return *this;
}

std::string JsonWriter::TakeString() {
  SIMRANK_CHECK(needs_comma_.empty());
  SIMRANK_CHECK(!after_key_);
  return std::move(out_);
}

const char* BuildGitRevision() { return SIMRANK_GIT_REVISION; }

// --- JSON ------------------------------------------------------------------

namespace {

void WriteSnapshotFields(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.Key("counters").BeginObject();
  for (const auto& [name, value] : snapshot.counters) {
    json.Key(name).Uint(value);
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, value] : snapshot.gauges) {
    json.Key(name).Int(value);
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, h] : snapshot.histograms) {
    json.Key(name).BeginObject();
    json.Key("count").Uint(h.count);
    json.Key("sum").Uint(h.sum);
    json.Key("max").Uint(h.max);
    json.Key("mean").Double(h.mean);
    json.Key("p50").Double(h.p50);
    json.Key("p95").Double(h.p95);
    json.Key("p99").Double(h.p99);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

std::string MetricsToJson(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("simrank-obs-v1");
  json.Key("git_rev").String(BuildGitRevision());
  WriteSnapshotFields(json, snapshot);
  json.EndObject();
  return json.TakeString();
}

std::string BenchReportToJson(const BenchReport& report,
                              const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("simrank-bench-v1");
  json.Key("bench").String(report.bench);
  json.Key("git_rev").String(BuildGitRevision());
  json.Key("args").BeginObject();
  for (const auto& [key, value] : report.args) {
    json.Key(key).String(value);
  }
  json.EndObject();
  json.Key("cases").BeginArray();
  for (const BenchCase& bench_case : report.cases) {
    json.BeginObject();
    json.Key("name").String(bench_case.name);
    json.Key("wall_seconds").Double(bench_case.wall_seconds);
    json.Key("values").BeginObject();
    for (const auto& [key, value] : bench_case.values) {
      json.Key(key).Double(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics").BeginObject();
  WriteSnapshotFields(json, snapshot);
  json.EndObject();
  json.EndObject();
  return json.TakeString();
}

namespace {

// Stable names of simrank::BackendKind, duplicated here because obs is a
// base layer the simrank target links against (it cannot include
// simrank/searcher_backend.h). Kept in sync by the backend-selection
// tests, which assert the exported tag round-trips through this table.
// Value 1 is retired.
const char* BackendTagName(uint8_t backend) {
  switch (backend) {
    case 0:
      return "mc";
    case 2:
      return "exact";
    default:
      return "unknown";
  }
}

// Stable names of service::PriorityClass / service::AdmissionDecision,
// duplicated for the same layering reason as BackendTagName (obs cannot
// include service headers). Kept in sync by the admission tests, which
// assert the exported tags round-trip through these tables.
const char* PriorityTagName(uint8_t priority) {
  switch (priority) {
    case 0:
      return "interactive";
    case 1:
      return "batch";
    default:
      return "unknown";
  }
}

const char* DecisionTagName(uint8_t decision) {
  switch (decision) {
    case 0:
      return "admitted";
    case 1:
      return "degraded";
    case 2:
      return "shed_queue_full";
    case 3:
      return "shed_rate_limited";
    case 4:
      return "shed_overload";
    default:
      return "unknown";
  }
}

void WriteQueryEvent(JsonWriter& json, const QueryEvent& event) {
  json.BeginObject();
  json.Key("id").Uint(event.query_id);
  json.Key("start_ns").Uint(event.start_ns);
  json.Key("duration_ns").Uint(event.duration_ns);
  json.Key("queue_wait_ns").Uint(event.queue_wait_ns);
  json.Key("walks").Uint(event.walks);
  json.Key("vertex").Uint(event.vertex);
  json.Key("k").Uint(event.k);
  json.Key("group_size").Uint(event.group_size);
  json.Key("mode").String(event.mode == QueryEventMode::kGroup ? "group"
                                                               : "vertex");
  json.Key("backend").String(BackendTagName(event.backend));
  json.Key("status").String(
      StatusCodeName(static_cast<StatusCode>(event.status)));
  // Admission-control context (PR 9): why this query was admitted,
  // degraded or shed, which priority class it ran as, and a stable hash
  // of the client it was accounted to — the postmortem's "why was this
  // query degraded" record.
  json.Key("priority").String(PriorityTagName(event.priority));
  json.Key("decision").String(DecisionTagName(event.decision));
  json.Key("client").Uint(event.client_hash);
  json.Key("cache_hit").Bool((event.flags & kEventCacheHit) != 0);
  json.Key("degraded").Bool((event.flags & kEventDegraded) != 0);
  json.Key("shed").Bool((event.flags & kEventShed) != 0);
  json.Key("submitted").Bool((event.flags & kEventSubmitted) != 0);
  json.Key("phases").BeginObject();
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    json.Key(kQueryPhaseNames[i]).Uint(event.phases.ns[i]);
  }
  json.EndObject();
  json.EndObject();
}

void WriteWindowSnapshot(JsonWriter& json, const WindowSnapshot& window) {
  json.BeginObject();
  json.Key("now_second").Uint(window.now_second);
  json.Key("bucket_seconds").Uint(window.bucket_seconds);
  json.Key("num_buckets").Uint(window.num_buckets);
  json.Key("count").Uint(window.count);
  json.Key("errors").Uint(window.errors);
  json.Key("shed").Uint(window.shed);
  json.Key("degraded").Uint(window.degraded);
  json.Key("cache_hits").Uint(window.cache_hits);
  json.Key("latency_sum_ns").Uint(window.latency_sum_ns);
  json.Key("latency_max_ns").Uint(window.latency_max_ns);
  json.Key("latency_p50_ns").Double(window.latency_p50_ns);
  json.Key("latency_p95_ns").Double(window.latency_p95_ns);
  json.Key("latency_p99_ns").Double(window.latency_p99_ns);
  json.Key("buckets").BeginArray();
  for (const WindowBucket& bucket : window.buckets) {
    json.BeginObject();
    json.Key("second").Uint(bucket.second);
    json.Key("count").Uint(bucket.count);
    json.Key("errors").Uint(bucket.errors);
    json.Key("shed").Uint(bucket.shed);
    json.Key("degraded").Uint(bucket.degraded);
    json.Key("cache_hits").Uint(bucket.cache_hits);
    json.Key("latency_sum_ns").Uint(bucket.latency_sum_ns);
    json.Key("latency_max_ns").Uint(bucket.latency_max_ns);
    json.EndObject();
  }
  json.EndArray();
  json.Key("slo").BeginArray();
  for (const SloResult& result : window.slos) {
    json.BeginObject();
    json.Key("name").String(result.spec.name);
    json.Key("objective").String(SloObjectiveName(result.spec.objective));
    json.Key("threshold").Double(result.spec.threshold);
    json.Key("value").Double(result.value);
    json.Key("ok").Bool(result.ok);
    json.Key("samples").Uint(result.samples);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace

EventsReport CollectDefaultEventsReport() {
  EventsReport report;
  report.events = EventLog::Default().Snapshot();
  report.slow = SlowQueryLog::Default().Snapshot();
  report.window = RollingWindow::Default().Snapshot(RollingWindow::NowSecond());
  return report;
}

std::string EventsToJson(const EventsReport& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("schema").String("simrank-events-v2");
  json.Key("git_rev").String(BuildGitRevision());
  json.Key("events").BeginArray();
  for (const QueryEvent& event : report.events) {
    WriteQueryEvent(json, event);
  }
  json.EndArray();
  json.Key("slow").BeginArray();
  for (const SlowQueryRecord& record : report.slow) {
    json.BeginObject();
    json.Key("event");
    WriteQueryEvent(json, record.event);
    json.Key("vertices").BeginArray();
    for (const uint32_t vertex : record.vertices) json.Uint(vertex);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("window");
  WriteWindowSnapshot(json, report.window);
  if (report.has_postmortem) {
    json.Key("postmortem").BeginObject();
    json.Key("reason").String(report.postmortem.reason);
    json.Key("span_path").String(report.postmortem.span_path);
    json.EndObject();
  }
  json.EndObject();
  return json.TakeString();
}

Status WriteEventsJson(const std::string& path, const EventsReport& report) {
  return WriteJsonFile(path, EventsToJson(report));
}

Status WriteJsonFile(const std::string& path, std::string_view json) {
  // Atomic replace, like every other artifact writer: CI and dashboards
  // read these JSON files, and a crash or ENOSPC mid-write must never
  // leave a truncated document (or clobber a good previous one) at the
  // final path. Surfaced by simrank_lint rule R1 — this was the last raw
  // write-mode fopen outside AtomicFileWriter.
  SIMRANK_FAULT_POINT("obs.export.write");
  AtomicFileWriter writer(path);
  writer.Append(json);
  writer.Append("\n");
  return writer.Commit();
}

Status WriteJson(const std::string& path, const MetricsSnapshot& snapshot) {
  return WriteJsonFile(path, MetricsToJson(snapshot));
}

Status WriteJson(const std::string& path, const BenchReport& report,
                 const MetricsSnapshot& snapshot) {
  return WriteJsonFile(path, BenchReportToJson(report, snapshot));
}

}  // namespace simrank::obs
