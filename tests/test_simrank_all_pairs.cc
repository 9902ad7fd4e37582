// Tests for the partitioned all-pairs runner (the paper's "top-k for all
// vertices" mode and its M-machine distribution property).

#include "simrank/all_pairs.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace simrank {
namespace {

SearchOptions Options() {
  SearchOptions options;
  options.k = 5;
  options.threshold = 0.01;
  options.seed = 7;
  return options;
}

class AllPairsTest : public ::testing::Test {
 protected:
  AllPairsTest() : graph_(testing::SmallRandomGraph(90, 811, 50)) {
    searcher_ = std::make_unique<TopKSearcher>(graph_, Options());
    searcher_->BuildIndex();
  }
  DirectedGraph graph_;
  std::unique_ptr<TopKSearcher> searcher_;
};

TEST_F(AllPairsTest, SinglePartitionCoversEveryVertex) {
  const AllPairsShard shard = RunAllPairs(*searcher_);
  EXPECT_EQ(shard.rankings.size(), graph_.NumVertices());
  EXPECT_GT(shard.seconds, 0.0);
  for (size_t i = 0; i < shard.rankings.size(); ++i) {
    EXPECT_EQ(shard.VertexAt(i), i);
  }
}

TEST_F(AllPairsTest, PartitionsTileTheVertexSetExactly) {
  constexpr uint32_t kPartitions = 4;
  std::set<Vertex> covered;
  size_t total = 0;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    AllPairsOptions options;
    options.partition = p;
    options.num_partitions = kPartitions;
    const AllPairsShard shard = RunAllPairs(*searcher_, options);
    total += shard.rankings.size();
    for (size_t i = 0; i < shard.rankings.size(); ++i) {
      const Vertex v = shard.VertexAt(i);
      EXPECT_LT(v, graph_.NumVertices());
      EXPECT_TRUE(covered.insert(v).second) << "vertex " << v << " twice";
    }
  }
  EXPECT_EQ(total, graph_.NumVertices());
  EXPECT_EQ(covered.size(), graph_.NumVertices());
}

TEST_F(AllPairsTest, PartitionedRunsMatchSinglePartition) {
  const AllPairsShard full = RunAllPairs(*searcher_);
  AllPairsOptions options;
  options.partition = 1;
  options.num_partitions = 3;
  const AllPairsShard shard = RunAllPairs(*searcher_, options);
  for (size_t i = 0; i < shard.rankings.size(); ++i) {
    const Vertex v = shard.VertexAt(i);
    const auto& expected = full.rankings[v];
    const auto& actual = shard.rankings[i];
    ASSERT_EQ(actual.size(), expected.size()) << v;
    for (size_t j = 0; j < actual.size(); ++j) {
      EXPECT_EQ(actual[j].vertex, expected[j].vertex) << v;
      EXPECT_DOUBLE_EQ(actual[j].score, expected[j].score) << v;
    }
  }
}

TEST_F(AllPairsTest, ParallelMatchesSerial) {
  const AllPairsShard serial = RunAllPairs(*searcher_);
  ThreadPool pool(3);
  AllPairsOptions options;
  options.pool = &pool;
  const AllPairsShard parallel = RunAllPairs(*searcher_, options);
  ASSERT_EQ(serial.rankings.size(), parallel.rankings.size());
  for (size_t i = 0; i < serial.rankings.size(); ++i) {
    ASSERT_EQ(serial.rankings[i].size(), parallel.rankings[i].size()) << i;
    for (size_t j = 0; j < serial.rankings[i].size(); ++j) {
      EXPECT_EQ(serial.rankings[i][j].vertex, parallel.rankings[i][j].vertex);
      EXPECT_DOUBLE_EQ(serial.rankings[i][j].score,
                       parallel.rankings[i][j].score);
    }
  }
}

TEST_F(AllPairsTest, SharedPoolWaitsOnlyForItsOwnWork) {
  // One worker is held by an unrelated task; the run must finish on the
  // other three instead of waiting for the whole pool to drain.
  ThreadPool pool(4);
  std::latch release(1);
  pool.Submit([&release] { release.wait(); });
  AllPairsOptions options;
  options.pool = &pool;
  std::promise<size_t> done;
  std::future<size_t> rankings = done.get_future();
  std::thread runner([&] {
    done.set_value(RunAllPairs(*searcher_, options).rankings.size());
  });
  const bool returned = rankings.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  release.count_down();
  runner.join();
  EXPECT_TRUE(returned) << "RunAllPairs waited on an unrelated pool task";
  EXPECT_EQ(rankings.get(), graph_.NumVertices());
}

TEST_F(AllPairsTest, ProgressCallbackFires) {
  std::atomic<uint64_t> last{0};
  AllPairsOptions options;
  options.progress_interval = 16;
  options.progress = [&last](uint64_t done) { last = done; };
  RunAllPairs(*searcher_, options);
  EXPECT_GE(last.load(), 64u);
}

TEST_F(AllPairsTest, TsvWriterRoundTrips) {
  const AllPairsShard shard = RunAllPairs(*searcher_);
  const std::string path = testing::ScratchPath("shard.tsv");
  ASSERT_TRUE(WriteShardTsv(shard, path).ok());
  // Parse back and compare a few lines.
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  uint64_t lines = 0;
  char buffer[256];
  uint32_t query = 0, vertex = 0;
  double score = 0.0;
  while (std::fgets(buffer, sizeof(buffer), file) != nullptr) {
    ASSERT_EQ(std::sscanf(buffer, "%u\t%u\t%lf", &query, &vertex, &score), 3);
    ASSERT_LT(query, graph_.NumVertices());
    ASSERT_LT(vertex, graph_.NumVertices());
    ASSERT_GT(score, 0.0);
    ++lines;
  }
  std::fclose(file);
  uint64_t expected_lines = 0;
  for (const auto& ranking : shard.rankings) {
    expected_lines += ranking.size();
  }
  EXPECT_EQ(lines, expected_lines);
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST_F(AllPairsTest, TsvWriterFailsOnBadPath) {
  const AllPairsShard shard = RunAllPairs(*searcher_);
  EXPECT_EQ(WriteShardTsv(shard, "/nonexistent/dir/x.tsv").code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace simrank
