// Tests for Status/Result, TopKCollector, WalkCounter, TablePrinter,
// ThreadPool and the input parsers (ParseNumber, Split, Flags).

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/counter.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/top_k.h"

namespace simrank {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(st.message(), "disk on fire");
  EXPECT_EQ(st.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kIoError, StatusCode::kOutOfRange, StatusCode::kCorruption,
        StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeName(code), "");
  }
}

Status FailingStep() { return Status::NotFound("missing"); }
Status Chained() {
  SIMRANK_RETURN_IF_ERROR(FailingStep());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(Chained().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::InvalidArgument("nope");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  const std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// ---------- TopKCollector ----------

TEST(TopKCollectorTest, KeepsBestK) {
  TopKCollector collector(3);
  for (uint32_t v = 0; v < 10; ++v) {
    collector.Push(v, static_cast<double>(v));
  }
  const auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].vertex, 9u);
  EXPECT_EQ(top[1].vertex, 8u);
  EXPECT_EQ(top[2].vertex, 7u);
}

TEST(TopKCollectorTest, ThresholdTracksKthScore) {
  TopKCollector collector(2);
  EXPECT_EQ(collector.Threshold(), -std::numeric_limits<double>::infinity());
  collector.Push(1, 0.5);
  EXPECT_EQ(collector.Threshold(), -std::numeric_limits<double>::infinity());
  collector.Push(2, 0.9);
  EXPECT_DOUBLE_EQ(collector.Threshold(), 0.5);
  collector.Push(3, 0.7);
  EXPECT_DOUBLE_EQ(collector.Threshold(), 0.7);
}

TEST(TopKCollectorTest, TiesBreakByVertexId) {
  TopKCollector collector(2);
  collector.Push(5, 1.0);
  collector.Push(3, 1.0);
  collector.Push(4, 1.0);
  const auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].vertex, 3u);
  EXPECT_EQ(top[1].vertex, 4u);
}

TEST(TopKCollectorTest, ZeroKCollectsNothing) {
  TopKCollector collector(0);
  collector.Push(1, 1.0);
  EXPECT_TRUE(collector.TakeSorted().empty());
}

TEST(TopKCollectorTest, FewerCandidatesThanK) {
  TopKCollector collector(10);
  collector.Push(1, 0.3);
  collector.Push(2, 0.8);
  const auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].vertex, 2u);
}

TEST(TopKCollectorTest, ManyPushesStressOrdering) {
  TopKCollector collector(16);
  // Deterministic pseudo-random pushes.
  uint64_t state = 99;
  std::vector<ScoredVertex> all;
  for (uint32_t i = 0; i < 5000; ++i) {
    const double score =
        static_cast<double>(SplitMix64(state) % 100000) / 100000.0;
    collector.Push(i, score);
    all.push_back({i, score});
  }
  std::sort(all.begin(), all.end(), ScoredVertexGreater);
  const auto top = collector.TakeSorted();
  ASSERT_EQ(top.size(), 16u);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].vertex, all[i].vertex);
    EXPECT_DOUBLE_EQ(top[i].score, all[i].score);
  }
}

// ---------- WalkCounter ----------

TEST(WalkCounterTest, CountsOccurrences) {
  WalkCounter counter(8);
  counter.Add(5);
  counter.Add(5);
  counter.Add(7);
  EXPECT_EQ(counter.Count(5), 2u);
  EXPECT_EQ(counter.Count(7), 1u);
  EXPECT_EQ(counter.Count(6), 0u);
  EXPECT_EQ(counter.DistinctKeys(), 2u);
}

TEST(WalkCounterTest, ClearResets) {
  WalkCounter counter(8);
  counter.Add(1);
  counter.Add(2);
  counter.Clear();
  EXPECT_EQ(counter.Count(1), 0u);
  EXPECT_EQ(counter.DistinctKeys(), 0u);
  counter.Add(1);
  EXPECT_EQ(counter.Count(1), 1u);
}

TEST(WalkCounterTest, GrowsBeyondInitialCapacity) {
  WalkCounter counter(2);
  for (uint32_t key = 0; key < 1000; ++key) counter.Add(key);
  for (uint32_t key = 0; key < 1000; ++key) {
    ASSERT_EQ(counter.Count(key), 1u) << key;
  }
  EXPECT_EQ(counter.DistinctKeys(), 1000u);
}

TEST(WalkCounterTest, ForEachVisitsAllDistinctKeys) {
  WalkCounter counter(8);
  counter.Add(10);
  counter.Add(20);
  counter.Add(10);
  uint32_t total = 0;
  size_t distinct = 0;
  counter.ForEach([&](uint32_t key, uint32_t count) {
    total += key * count;
    ++distinct;
  });
  EXPECT_EQ(distinct, 2u);
  EXPECT_EQ(total, 10u * 2 + 20u);
}

TEST(WalkCounterTest, MatchesReferenceOnRandomStream) {
  WalkCounter counter(4);
  std::vector<uint32_t> reference(50, 0);
  uint64_t state = 17;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t key = SplitMix64(state) % 50;
    counter.Add(key);
    ++reference[key];
  }
  for (uint32_t key = 0; key < 50; ++key) {
    EXPECT_EQ(counter.Count(key), reference[key]) << key;
  }
}

// ---------- TablePrinter & formatting ----------

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"long-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(FormatTest, Duration) {
  EXPECT_EQ(FormatDuration(0.0000005), "0 us");
  EXPECT_EQ(FormatDuration(0.000153), "153 us");
  EXPECT_EQ(FormatDuration(0.0123), "12.30 ms");
  EXPECT_EQ(FormatDuration(4.56), "4.56 s");
  EXPECT_EQ(FormatDuration(300.0), "5.0 min");
  EXPECT_EQ(FormatDuration(7200.0), "2.0 h");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KB");
  EXPECT_EQ(FormatBytes(3ull << 20), "3.0 MB");
  EXPECT_EQ(FormatBytes(5ull << 30), "5.00 GB");
}

TEST(FormatTest, Count) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 0, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::vector<int> hits(50, 0);
  ParallelFor(nullptr, 10, 40, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], (i >= 10 && i < 40) ? 1 : 0);
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ---------- ParseNumber / Split / Flags ----------

TEST(ParseNumberTest, TakesTheWholeTextOrNothing) {
  EXPECT_EQ(ParseNumber<uint64_t>("42"), 42u);
  EXPECT_EQ(ParseNumber<double>("2.5"), 2.5);
  EXPECT_EQ(ParseNumber<double>("1e-3"), 1e-3);
  for (const char* bad : {"", "-1", "+4", " 12", "12 ", "12x", "0x10"}) {
    EXPECT_FALSE(ParseNumber<uint64_t>(bad).has_value()) << bad;
  }
  for (const char* bad : {"", "+1", "0.307junk", "O.5", " 1"}) {
    EXPECT_FALSE(ParseNumber<double>(bad).has_value()) << bad;
  }
}

TEST(ParseNumberTest, RefusesOverflow) {
  EXPECT_EQ(ParseNumber<uint64_t>("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(ParseNumber<uint64_t>("18446744073709551616").has_value());
  EXPECT_EQ(ParseNumber<uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(ParseNumber<uint32_t>("4294967296").has_value());
  EXPECT_FALSE(ParseNumber<double>("1e999").has_value());
}

TEST(ParseNumberTest, ReadsIntegersInABase) {
  EXPECT_EQ(ParseNumber<uint64_t>("deadbeefcafef00d", 16),
            0xdeadbeefcafef00dULL);
  EXPECT_EQ(ParseNumber<uint64_t>("00000000000000ff", 16), 255u);
  EXPECT_FALSE(ParseNumber<uint64_t>("0xff", 16).has_value());
  EXPECT_FALSE(ParseNumber<uint64_t>("ff").has_value());
}

TEST(SplitTest, KeepsEmptyFields) {
  using Fields = std::vector<std::string_view>;
  EXPECT_EQ(Split("1::0:0", ":"), (Fields{"1", "", "0", "0"}));
  EXPECT_EQ(Split("", ","), (Fields{""}));
  EXPECT_EQ(Split("a,", ","), (Fields{"a", ""}));
  EXPECT_EQ(Split("1 2\t\t3", " \t"), (Fields{"1", "2", "", "3"}));
}

// Parses `args` (no program name) against a spec with one flag of each
// grammar.
Result<Flags> ParseFlags(std::vector<std::string> args) {
  constexpr FlagSpec kSpec = {
      .strings = "out",
      .bools = "resume",
      .uints = "k",
      .doubles = "threshold",
  };
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return Flags::Parse(static_cast<int>(argv.size()), argv.data(), 0, kSpec);
}

// Parse refuses `arg` with InvalidArgument naming its flag.
void ExpectRefused(const std::string& arg) {
  const Result<Flags> flags = ParseFlags({arg});
  ASSERT_FALSE(flags.ok()) << arg;
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument) << arg;
  const std::string name = arg.substr(0, arg.find('='));
  EXPECT_NE(flags.status().message().find(name), std::string::npos)
      << arg << ": " << flags.status().message();
}

TEST(FlagsTest, BoolsAreTrueFalseOneOrZero) {
  for (const char* arg : {"--resume", "--resume=true", "--resume=1"}) {
    const Result<Flags> flags = ParseFlags({arg});
    ASSERT_TRUE(flags.ok()) << arg;
    EXPECT_TRUE(flags->GetBool("resume")) << arg;
  }
  for (const char* arg : {"--resume=false", "--resume=0"}) {
    const Result<Flags> flags = ParseFlags({arg});
    ASSERT_TRUE(flags.ok()) << arg;
    EXPECT_FALSE(flags->GetBool("resume")) << arg;
  }
  EXPECT_FALSE(ParseFlags({}).value().GetBool("resume"));
  for (const char* arg : {"--resume=no", "--resume=yes", "--resume=TRUE",
                          "--resume="}) {
    ExpectRefused(arg);
  }
}

TEST(FlagsTest, RefusesUnknownFlagsAndMalformedNumbers) {
  for (const char* arg : {"--thresold=0.5", "--k=3x", "--k=-1", "--k",
                          "--threshold=O.5", "--threshold="}) {
    ExpectRefused(arg);
  }
}

TEST(FlagsTest, ReadsValuesAndPositionals) {
  const Result<Flags> flags =
      ParseFlags({"g.bin", "--k=7", "--threshold=0.25", "--out=x.tsv"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->GetInt("k", 1), 7u);
  EXPECT_EQ(flags->GetDouble("threshold", 0.0), 0.25);
  EXPECT_EQ(flags->GetString("out"), "x.tsv");
  EXPECT_EQ(flags->GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags->positional(), std::vector<std::string>{"g.bin"});
}

}  // namespace
}  // namespace simrank
