// Tests for per-query phase timings (obs/phase.h): the phase clock, the
// CHECK-failure context it names, and the phases the Monte-Carlo and
// exact backends report through QueryStats and the query.phase.<name>_ns
// histograms.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "json_test_util.h"
#include "obs/metrics.h"
#include "obs/phase.h"
#include "obs/postmortem.h"
#include "simrank/backend_exact.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"
#include "util/check.h"

namespace simrank {
namespace {

using obs::PhaseClock;
using obs::PhaseTimes;
using obs::QueryPhase;

constexpr QueryPhase kMcPhases[] = {QueryPhase::kBfs, QueryPhase::kL1,
                                    QueryPhase::kProfile,
                                    QueryPhase::kCandidates};
constexpr QueryPhase kExactPhases[] = {QueryPhase::kExactForward,
                                       QueryPhase::kExactBackward};

const char* Name(QueryPhase phase) {
  return obs::kQueryPhaseNames[static_cast<size_t>(phase)];
}

// Spins until the steady clock has moved, so a phase is never empty.
void Spin() {
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - start <
         std::chrono::microseconds(20)) {
  }
}

// The phases tile the query: their sum is at most stats.seconds (to the
// nanosecond the double conversion may round off).
void ExpectPhasesWithinSeconds(const QueryStats& stats) {
  EXPECT_LE(static_cast<double>(stats.phases.Sum()),
            stats.seconds * 1e9 + 1.0);
}

std::string CheckContext() {
  internal::CheckContextFn provider =
      internal::CheckContextProvider().load(std::memory_order_acquire);
  if (provider == nullptr) return "";
  char buffer[256];
  std::memset(buffer, 'x', sizeof(buffer));
  provider(buffer, sizeof(buffer));
  return buffer;
}

uint64_t HistogramCount(QueryPhase phase) {
  return obs::MetricsRegistry::Default()
      .GetHistogram(std::string("query.phase.") + Name(phase) + "_ns")
      .Count();
}

uint64_t QueryCount() {
  return obs::MetricsRegistry::Default().GetCounter("query.count").Value();
}

// --- PhaseTimes / PhaseClock ------------------------------------------------

TEST(PhaseTimesTest, NamesAreStableAndDistinct) {
  EXPECT_STREQ(Name(QueryPhase::kBfs), "bfs");
  EXPECT_STREQ(Name(QueryPhase::kL1), "l1");
  EXPECT_STREQ(Name(QueryPhase::kProfile), "profile");
  EXPECT_STREQ(Name(QueryPhase::kCandidates), "candidates");
  EXPECT_STREQ(Name(QueryPhase::kExactForward), "exact_forward");
  EXPECT_STREQ(Name(QueryPhase::kExactBackward), "exact_backward");
}

TEST(PhaseTimesTest, PlusEqualsAddsPerPhase) {
  PhaseTimes a, b;
  for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
    a.ns[i] = i + 1;
    b.ns[i] = 10 * (i + 1);
  }
  a += b;
  for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
    EXPECT_EQ(a.ns[i], 11 * (i + 1)) << Name(static_cast<QueryPhase>(i));
  }
  EXPECT_EQ(a.Sum(), 11u * (1 + 2 + 3 + 4 + 5 + 6));
}

TEST(PhaseClockTest, PhasesTileTheClockInterval) {
  PhaseTimes times;
  PhaseClock clock(times, QueryPhase::kBfs);
  Spin();
  clock.Enter(QueryPhase::kProfile);
  Spin();
  clock.Enter(QueryPhase::kCandidates);
  Spin();
  const std::chrono::nanoseconds total = clock.Stop();
  EXPECT_GT(times[QueryPhase::kBfs], 0u);
  EXPECT_GT(times[QueryPhase::kProfile], 0u);
  EXPECT_GT(times[QueryPhase::kCandidates], 0u);
  EXPECT_EQ(times[QueryPhase::kL1], 0u);  // never entered
  EXPECT_EQ(times.Sum(), static_cast<uint64_t>(total.count()));
}

TEST(PhaseClockTest, AddsToTheTimesItIsGiven) {
  PhaseTimes times;
  times[QueryPhase::kExactForward] = 1'000'000'000;
  PhaseClock clock(times, QueryPhase::kExactForward);
  Spin();
  clock.Stop();
  EXPECT_GT(times[QueryPhase::kExactForward], 1'000'000'000u);
}

// --- CHECK context ----------------------------------------------------------

TEST(CheckContextTest, ProviderReportsTheRunningPhase) {
  PhaseTimes times;
  PhaseClock clock(times, QueryPhase::kBfs);  // registers the provider
  EXPECT_EQ(CheckContext(), "bfs");
  clock.Enter(QueryPhase::kCandidates);
  EXPECT_EQ(CheckContext(), "candidates");
  clock.Stop();
}

TEST(CheckContextTest, ProviderEmptyOutsidePhases) {
  { obs::ScopedPhaseName name("engine_query"); }  // registers the provider
  EXPECT_EQ(CheckContext(), "");
}

TEST(CheckContextTest, ScopesRestoreTheEnclosingPhase) {
  obs::ScopedPhaseName engine("engine_query");
  {
    PhaseTimes times;
    PhaseClock clock(times, QueryPhase::kProfile);
    EXPECT_EQ(CheckContext(), "profile");
    clock.Stop();
  }
  EXPECT_EQ(CheckContext(), "engine_query");
}

// --- the instrumented backends ----------------------------------------------

TEST(QueryPhasesTest, McQueryFillsItsFourPhases) {
  const DirectedGraph graph = testing::SmallRandomGraph(300, 77, 200);
  TopKSearcher searcher(graph, SearchOptions{});  // L1 bound on
  searcher.BuildIndex();
  QueryWorkspace workspace(searcher);
  QueryStats total;
  for (Vertex v = 0; v < 5; ++v) {
    const QueryResult result = searcher.Query(v, workspace);
    const QueryStats& stats = result.stats;
    for (QueryPhase phase : kMcPhases) {
      EXPECT_GT(stats.phases[phase], 0u) << Name(phase) << " of " << v;
    }
    for (QueryPhase phase : kExactPhases) {
      EXPECT_EQ(stats.phases[phase], 0u) << Name(phase) << " of " << v;
    }
    ExpectPhasesWithinSeconds(stats);
    total += stats;
  }
  ExpectPhasesWithinSeconds(total);
}

TEST(QueryPhasesTest, L1PhaseStaysZeroWithoutTheBound) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 78, 100);
  SearchOptions options;
  options.use_l1_bound = false;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  const QueryStats stats = searcher.Query(3).stats;
  EXPECT_EQ(stats.phases[QueryPhase::kL1], 0u);
  EXPECT_GT(stats.phases[QueryPhase::kBfs], 0u);
  EXPECT_GT(stats.phases[QueryPhase::kProfile], 0u);
  EXPECT_GT(stats.phases[QueryPhase::kCandidates], 0u);
  ExpectPhasesWithinSeconds(stats);
}

TEST(QueryPhasesTest, ExactQueryFillsOnlyTheExactPhases) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 79, 100);
  ExactBackend backend(graph, SearchOptions{});
  backend.Build();
  const QueryStats stats = backend.Query(4).stats;
  for (QueryPhase phase : kExactPhases) {
    EXPECT_GT(stats.phases[phase], 0u) << Name(phase);
  }
  for (QueryPhase phase : kMcPhases) {
    EXPECT_EQ(stats.phases[phase], 0u) << Name(phase);
  }
  ExpectPhasesWithinSeconds(stats);
  EXPECT_EQ(stats.walks, 0u);  // nothing sampled
}

TEST(QueryPhasesTest, OracleCallsWithoutPhasesAnswerTheSame) {
  const DirectedGraph graph = testing::SmallRandomGraph(120, 80, 60);
  const LinearSimRank oracle(
      graph, SimRankParams{},
      UniformDiagonal(graph.NumVertices(), SimRankParams{}.decay));
  PhaseTimes phases;
  EXPECT_EQ(oracle.SingleSource(7), oracle.SingleSource(7, &phases));
  EXPECT_GT(phases[QueryPhase::kExactForward], 0u);
  EXPECT_GT(phases[QueryPhase::kExactBackward], 0u);
}

TEST(QueryPhasesTest, HistogramCountsEqualQueryCountForPhasesThatRan) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 81, 100);
  TopKSearcher searcher(graph, SearchOptions{});
  searcher.BuildIndex();
  ExactBackend exact(graph, SearchOptions{});
  exact.Build();

  uint64_t queries = QueryCount();
  uint64_t mc_before[4], exact_before[2];
  for (size_t i = 0; i < 4; ++i) mc_before[i] = HistogramCount(kMcPhases[i]);
  for (size_t i = 0; i < 2; ++i) {
    exact_before[i] = HistogramCount(kExactPhases[i]);
  }
  for (Vertex v = 0; v < 6; ++v) searcher.Query(v);
  const uint64_t mc_queries = QueryCount() - queries;
  EXPECT_EQ(mc_queries, 6u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(HistogramCount(kMcPhases[i]) - mc_before[i], mc_queries)
        << Name(kMcPhases[i]);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(HistogramCount(kExactPhases[i]), exact_before[i]);
  }

  queries = QueryCount();
  for (size_t i = 0; i < 4; ++i) mc_before[i] = HistogramCount(kMcPhases[i]);
  for (Vertex v = 0; v < 3; ++v) exact.Query(v);
  const uint64_t exact_queries = QueryCount() - queries;
  EXPECT_EQ(exact_queries, 3u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(HistogramCount(kExactPhases[i]) - exact_before[i],
              exact_queries)
        << Name(kExactPhases[i]);
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(HistogramCount(kMcPhases[i]), mc_before[i]);
  }
}

// --- walks ------------------------------------------------------------------

TEST(QueryWalksTest, StatsCountTheScoringWalksDrawn) {
  const DirectedGraph graph = testing::SmallRandomGraph(200, 82, 100);
  SearchOptions options;
  options.profile_walks = 64;
  options.estimate_walks = 8;
  options.refine_walks = 32;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  const QueryStats full = searcher.Query(5).stats;
  ASSERT_GT(full.refined, 0u);
  EXPECT_EQ(full.walks, 64 + full.rough_estimates * 8 + full.refined * 32);

  // The degraded pass refines with the rough sample count.
  QueryOverrides rough_refine;
  rough_refine.refine_walks = 8;
  const QueryStats degraded = searcher.Query(5, rough_refine).stats;
  ASSERT_GT(degraded.refined, 0u);
  EXPECT_EQ(degraded.walks,
            64 + (degraded.rough_estimates + degraded.refined) * 8);
}

// --- CHECK failures inside a query -------------------------------------------

TEST(QueryPhasesDeathTest, CheckFailureInsideAQueryNamesItsPhase) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = testing::ScratchPath("phase_pm_check.json");
  std::remove(path.c_str());
  // An L1 pass of zero walks is a programming error the searcher only
  // catches inside the pass (SearchOptions::Validate rejects it, but the
  // searcher constructor does not re-check it). No slow log is armed.
  EXPECT_DEATH(
      {
        const DirectedGraph graph = testing::SmallRandomGraph(100, 83, 50);
        SearchOptions options;
        options.l1_walks = 0;
        TopKSearcher searcher(graph, options);
        searcher.BuildIndex();
        obs::SetPostmortemPath(path);
        searcher.Query(0);
      },
      "CHECK failed.*\\(in phase l1\\)");

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr) << "postmortem dump missing: " << path;
  std::string text;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  std::fclose(file);
  const testjson::JsonValue doc = testjson::ParseOrFail(text);
  EXPECT_EQ(doc.At("postmortem").At("span_path").string, "l1");
}

}  // namespace
}  // namespace simrank
