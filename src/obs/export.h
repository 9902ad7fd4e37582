#ifndef SIMRANK_OBS_EXPORT_H_
#define SIMRANK_OBS_EXPORT_H_

// Exporters for the obs subsystem: stable-schema JSON. The schemas are
// versioned ("simrank-obs-v1" / "simrank-bench-v1" / "simrank-events-v2")
// and documented in docs/OBSERVABILITY.md; CI checks them (see
// .github/workflows/ci.yml), so schema changes must bump the version
// string.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/rolling.h"
#include "obs/slow_log.h"
#include "util/status.h"

namespace simrank::obs {

/// Minimal streaming JSON writer: explicit Begin/End nesting, automatic
/// commas, full string escaping, locale-independent number formatting.
/// Non-finite doubles serialize as null (JSON has no NaN/Inf).
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Emits an object key; the next value call is its value.
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Uint(uint64_t value);
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  /// The finished document. All opened scopes must be closed.
  std::string TakeString();

 private:
  void BeforeValue();
  void Append(std::string_view text) { out_.append(text); }

  std::string out_;
  /// One entry per open scope: true => a value was already emitted there
  /// (a comma is due before the next one).
  std::vector<bool> needs_comma_;
  bool after_key_ = false;
};

/// Git revision the binary was configured from ("unknown" outside a git
/// checkout). Captured at CMake configure time.
const char* BuildGitRevision();

// --- JSON ------------------------------------------------------------------

/// Serializes a snapshot as a "simrank-obs-v1" document.
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// One timed case of a bench run (a reproduced table row, one
/// google-benchmark case, ...). `values` carries additional per-case
/// numbers keyed by metric-style names.
struct BenchCase {
  std::string name;
  double wall_seconds = 0.0;
  std::map<std::string, double> values;
};

/// A machine-comparable bench result document ("simrank-bench-v1"):
/// bench name, stringified args, per-case wall times, and a full metrics
/// snapshot — everything BENCH_*.json trajectory comparisons need.
struct BenchReport {
  std::string bench;
  std::map<std::string, std::string> args;
  std::vector<BenchCase> cases;
};

std::string BenchReportToJson(const BenchReport& report,
                              const MetricsSnapshot& snapshot);

/// Crash context attached to an events document written from the
/// SIMRANK_CHECK abort hook (absent from ordinary exports).
struct PostmortemInfo {
  std::string reason;     ///< "CHECK failed at file:line: expr"
  std::string span_path;  ///< phase of the failing thread ("" if none)
};

/// Everything a "simrank-events-v2" document serializes: the flight
/// recorder contents, the slow-query reservoir, the rolling-window
/// snapshot with its evaluated SLOs, and (crash dumps only) the failure
/// context.
struct EventsReport {
  std::vector<QueryEvent> events;
  std::vector<SlowQueryRecord> slow;
  WindowSnapshot window;
  bool has_postmortem = false;
  PostmortemInfo postmortem;
};

/// Snapshots the process-wide defaults (EventLog / SlowQueryLog /
/// RollingWindow) into one report, as of now.
EventsReport CollectDefaultEventsReport();

/// Serializes a report as a "simrank-events-v2" document.
std::string EventsToJson(const EventsReport& report);

/// Convenience: events document straight to a file.
Status WriteEventsJson(const std::string& path, const EventsReport& report);

/// Writes a serialized JSON document to `path`.
Status WriteJsonFile(const std::string& path, std::string_view json);

/// Convenience: snapshot document straight to a file.
Status WriteJson(const std::string& path, const MetricsSnapshot& snapshot);

/// Convenience: bench document straight to a file.
Status WriteJson(const std::string& path, const BenchReport& report,
                 const MetricsSnapshot& snapshot);

}  // namespace simrank::obs

#endif  // SIMRANK_OBS_EXPORT_H_
