// Tests for the JSON exporters: JsonWriter output is verified with a
// minimal in-test recursive-descent parser (round-trip), and the
// simrank-obs-v1 / simrank-bench-v1 documents are checked for their
// schema-stable fields (CI validates the same fields on the real
// bench_micro output).

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "json_test_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/fault_injection.h"

namespace simrank::obs {
namespace {

// The shared in-test JSON model + parser lives in json_test_util.h
// (also used by test_obs_events.cc).
using testjson::JsonParser;
using testjson::JsonValue;
using testjson::ParseOrFail;

// ---------- JsonWriter ----------

TEST(JsonWriterTest, NestedStructuresRoundTrip) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").String("simrank");
  json.Key("count").Uint(42);
  json.Key("delta").Int(-7);
  json.Key("ratio").Double(0.125);
  json.Key("on").Bool(true);
  json.Key("off").Bool(false);
  json.Key("nothing").Null();
  json.Key("list").BeginArray();
  json.Uint(1).Uint(2).Uint(3);
  json.EndArray();
  json.Key("nested").BeginObject().Key("inner").String("x").EndObject();
  json.EndObject();

  const JsonValue doc = ParseOrFail(json.TakeString());
  EXPECT_EQ(doc.At("name").string, "simrank");
  EXPECT_EQ(doc.At("count").number, 42.0);
  EXPECT_EQ(doc.At("delta").number, -7.0);
  EXPECT_EQ(doc.At("ratio").number, 0.125);
  EXPECT_TRUE(doc.At("on").boolean);
  EXPECT_FALSE(doc.At("off").boolean);
  EXPECT_EQ(doc.At("nothing").kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.At("list").array.size(), 3u);
  EXPECT_EQ(doc.At("list").array[2].number, 3.0);
  EXPECT_EQ(doc.At("nested").At("inner").string, "x");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  JsonWriter json;
  json.BeginObject();
  json.Key("text").String("a\"b\\c\nd\te\x01" "f");
  json.EndObject();
  const std::string raw = json.TakeString();
  EXPECT_NE(raw.find("\\\""), std::string::npos);
  EXPECT_NE(raw.find("\\\\"), std::string::npos);
  EXPECT_NE(raw.find("\\n"), std::string::npos);
  EXPECT_NE(raw.find("\\u0001"), std::string::npos);
  const JsonValue doc = ParseOrFail(raw);
  EXPECT_EQ(doc.At("text").string, "a\"b\\c\nd\te\x01" "f");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.BeginArray();
  json.Double(std::nan(""));
  json.Double(1.0 / 0.0);
  json.Double(1.5);
  json.EndArray();
  const JsonValue doc = ParseOrFail(json.TakeString());
  ASSERT_EQ(doc.array.size(), 3u);
  EXPECT_EQ(doc.array[0].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.array[1].kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.array[2].number, 1.5);
}

TEST(JsonWriterTest, DoubleSurvivesRoundTripExactly) {
  // %.17g is enough digits to reconstruct any double bit-exactly.
  const double value = 0.1 + 0.2;
  JsonWriter json;
  json.BeginArray().Double(value).EndArray();
  const JsonValue doc = ParseOrFail(json.TakeString());
  EXPECT_EQ(doc.array[0].number, value);
}

// ---------- schema documents ----------

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("query.count").Add(12);
  registry.GetGauge("index.bytes").Set(4096);
  Histogram& h = registry.GetHistogram("query.latency_ns");
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v * 1000);
  return registry.Snapshot();
}

TEST(MetricsToJsonTest, ObsV1Schema) {
  const JsonValue doc = ParseOrFail(MetricsToJson(SampleSnapshot()));
  EXPECT_EQ(doc.At("schema").string, "simrank-obs-v1");
  EXPECT_FALSE(doc.At("git_rev").string.empty());
  EXPECT_EQ(doc.At("counters").At("query.count").number, 12.0);
  EXPECT_EQ(doc.At("gauges").At("index.bytes").number, 4096.0);
  const JsonValue& histogram =
      doc.At("histograms").At("query.latency_ns");
  EXPECT_EQ(histogram.At("count").number, 100.0);
  EXPECT_GT(histogram.At("p95").number, histogram.At("p50").number);
  // Percentiles are bucket midpoints, so p99 may exceed the exact max by
  // up to the quantization error (~6.25%).
  EXPECT_GE(histogram.At("max").number * 1.07,
            histogram.At("p99").number);
}

TEST(BenchReportToJsonTest, BenchV1Schema) {
  BenchReport report;
  report.bench = "bench_micro";
  report.args["scale"] = "0.05";
  BenchCase bench_case;
  bench_case.name = "BM_TopKQuery";
  bench_case.wall_seconds = 0.25;
  bench_case.values["iterations"] = 100.0;
  report.cases.push_back(bench_case);

  const JsonValue doc =
      ParseOrFail(BenchReportToJson(report, SampleSnapshot()));
  EXPECT_EQ(doc.At("schema").string, "simrank-bench-v1");
  EXPECT_EQ(doc.At("bench").string, "bench_micro");
  EXPECT_FALSE(doc.At("git_rev").string.empty());
  EXPECT_EQ(doc.At("args").At("scale").string, "0.05");
  ASSERT_EQ(doc.At("cases").array.size(), 1u);
  const JsonValue& c = doc.At("cases").array[0];
  EXPECT_EQ(c.At("name").string, "BM_TopKQuery");
  EXPECT_EQ(c.At("wall_seconds").number, 0.25);
  EXPECT_EQ(c.At("values").At("iterations").number, 100.0);
  EXPECT_EQ(doc.At("metrics").At("counters").At("query.count").number, 12.0);
}

TEST(WriteJsonTest, FileRoundTrip) {
  const std::string path = testing::ScratchPath("obs_snapshot.json");
  const Status status = WriteJson(path, SampleSnapshot());
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  std::remove(path.c_str());
  const JsonValue doc = ParseOrFail(text);
  EXPECT_EQ(doc.At("schema").string, "simrank-obs-v1");
}

TEST(WriteJsonTest, UnwritablePathReturnsError) {
  const Status status =
      WriteJson("/nonexistent-dir-xyz/out.json", SampleSnapshot());
  EXPECT_FALSE(status.ok());
}

// Arms a fault at a site a fault-injection-off build compiles out.
#ifdef SIMRANK_FAULT_INJECTION
namespace {

std::string SlurpFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return {};
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  std::fclose(file);
  return text;
}

}  // namespace

// Regression test for the latent defect surfaced by the static-analysis
// pass: WriteJsonFile used a raw fopen(path, "wb"), so a write that
// failed partway destroyed the previous good document at the final path.
// Now it stages through AtomicFileWriter: a failed write must leave the
// prior contents byte-for-byte intact and no temp file behind.
TEST(WriteJsonTest, FailedWritePreservesPreviousFile) {
  const std::string path = testing::ScratchPath("obs_atomic.json");
  ASSERT_TRUE(WriteJson(path, SampleSnapshot()).ok());
  const std::string before = SlurpFile(path);
  ASSERT_FALSE(before.empty());

  // Probability 1.0 (not on_hit) so every open attempt fails even through
  // AtomicFileWriter's retry loop.
  fault::SiteConfig config;
  config.action = fault::Action::kError;
  config.probability = 1.0;
  fault::FaultInjector::Default().Arm("io.atomic.open", config);

  MetricsSnapshot changed = SampleSnapshot();
  changed.counters["query.count"] = 999;
  const Status status = WriteJson(path, changed);
  fault::FaultInjector::Default().Clear();

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(SlurpFile(path), before);
  // No orphaned staging file next to the target.
  const std::string tmp = path + ".tmp";
  std::FILE* leftover = std::fopen(tmp.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "staging file left behind: " << tmp;
  if (leftover != nullptr) std::fclose(leftover);
  std::remove(path.c_str());
}
#endif  // SIMRANK_FAULT_INJECTION

}  // namespace
}  // namespace simrank::obs
