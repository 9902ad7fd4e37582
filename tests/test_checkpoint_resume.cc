// Checkpoint/resume of the streaming all-pairs runner: manifest format,
// fingerprint invalidation, byte-identical resume after injected crashes
// (the in-process half; the real kill-the-process half lives in
// tools/chaos_test.cmake), and the progress exactly-once contract.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "simrank/all_pairs.h"
#include "simrank/checkpoint.h"
#include "test_helpers.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"

namespace simrank {
namespace {

SearchOptions Options() {
  SearchOptions options;
  options.k = 5;
  options.threshold = 0.01;
  options.seed = 7;
  return options;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool Exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  CheckpointResumeTest() : graph_(testing::SmallRandomGraph(90, 811, 50)) {
    searcher_ = std::make_unique<TopKSearcher>(graph_, Options());
    searcher_->BuildIndex();
  }
  void TearDown() override { fault::FaultInjector::Default().Clear(); }

  std::string Path(const std::string& name) {
    return testing::ScratchPath(name);
  }

  DirectedGraph graph_;
  std::unique_ptr<TopKSearcher> searcher_;
};

// ---------- fingerprint ----------

TEST_F(CheckpointResumeTest, FingerprintIsStableAndSensitive) {
  const SearchOptions base = Options();
  EXPECT_EQ(FingerprintOptions(base), FingerprintOptions(base));
  SearchOptions changed = base;
  changed.seed = base.seed + 1;
  EXPECT_NE(FingerprintOptions(base), FingerprintOptions(changed));
  changed = base;
  changed.k = base.k + 1;
  EXPECT_NE(FingerprintOptions(base), FingerprintOptions(changed));
  changed = base;
  changed.simrank.decay += 0.01;
  EXPECT_NE(FingerprintOptions(base), FingerprintOptions(changed));
  changed = base;
  changed.use_l2_bound = !base.use_l2_bound;
  EXPECT_NE(FingerprintOptions(base), FingerprintOptions(changed));
}

// ---------- manifest read/write ----------

AllPairsCheckpoint SampleCheckpoint() {
  AllPairsCheckpoint ckpt;
  ckpt.graph_n = 90;
  ckpt.graph_m = 811;
  ckpt.options_fingerprint = 0xdeadbeefcafef00dULL;
  ckpt.partition = 1;
  ckpt.num_partitions = 3;
  ckpt.chunk_queries = 8;
  ckpt.next_index = 16;
  ckpt.chunks.push_back({"chunk_00000000.tsv", 123});
  ckpt.chunks.push_back({"chunk_00000001.tsv", 456});
  ckpt.stats.candidates_enumerated = 42;
  ckpt.stats.refined = 7;
  ckpt.stats.seconds = 1.25;
  ckpt.seconds = 3.5;
  return ckpt;
}

TEST_F(CheckpointResumeTest, ManifestRoundTrips) {
  const std::string dir = Path("ckpt_roundtrip");
  ::mkdir(dir.c_str(), 0777);
  const AllPairsCheckpoint written = SampleCheckpoint();
  ASSERT_TRUE(WriteCheckpoint(written, dir).ok());
  Result<AllPairsCheckpoint> read = ReadCheckpoint(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->graph_n, written.graph_n);
  EXPECT_EQ(read->graph_m, written.graph_m);
  EXPECT_EQ(read->options_fingerprint, written.options_fingerprint);
  EXPECT_EQ(read->partition, written.partition);
  EXPECT_EQ(read->num_partitions, written.num_partitions);
  EXPECT_EQ(read->chunk_queries, written.chunk_queries);
  EXPECT_EQ(read->next_index, written.next_index);
  EXPECT_DOUBLE_EQ(read->seconds, written.seconds);
  ASSERT_EQ(read->chunks.size(), 2u);
  EXPECT_EQ(read->chunks[0].file, "chunk_00000000.tsv");
  EXPECT_EQ(read->chunks[1].bytes, 456u);
  EXPECT_EQ(read->stats.candidates_enumerated, 42u);
  EXPECT_EQ(read->stats.refined, 7u);
  EXPECT_DOUBLE_EQ(read->stats.seconds, 1.25);
  RemoveCheckpoint(written, dir);
  EXPECT_FALSE(Exists(dir + "/MANIFEST"));
}

TEST_F(CheckpointResumeTest, MissingManifestIsIoError) {
  EXPECT_EQ(ReadCheckpoint(Path("no_such_ckpt_dir")).status().code(),
            StatusCode::kIoError);
}

TEST_F(CheckpointResumeTest, MalformedManifestsAreCorruption) {
  const std::string dir = Path("ckpt_malformed");
  ::mkdir(dir.c_str(), 0777);
  const std::string manifest = dir + "/MANIFEST";
  const std::vector<std::string> bad_manifests = {
      // Wrong tag.
      "some-other-format-v9\ngraph_n=1\n",
      // Unknown key (v1 readers must refuse, not guess).
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_m=1\nfingerprint=0\n"
      "partition=0\nnum_partitions=1\nnext_index=0\nwombat=3\n",
      // Duplicate key.
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_n=2\ngraph_m=1\n"
      "fingerprint=0\npartition=0\nnum_partitions=1\nnext_index=0\n",
      // Missing required key (no fingerprint).
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_m=1\n"
      "partition=0\nnum_partitions=1\nnext_index=0\n",
      // Chunk path escaping the checkpoint directory.
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_m=1\nfingerprint=0\n"
      "partition=0\nnum_partitions=1\nnext_index=0\nchunk=../evil 12\n",
      // Unparseable number.
      "simrank-allpairs-ckpt-v1\ngraph_n=banana\ngraph_m=1\nfingerprint=0\n"
      "partition=0\nnum_partitions=1\nnext_index=0\n",
      // A signed number, which strtoull would have negated to 2^64 - 1.
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_m=1\nfingerprint=0\n"
      "partition=0\nnum_partitions=1\nnext_index=-1\n",
      // Trailing text after the stats line's last number.
      "simrank-allpairs-ckpt-v1\ngraph_n=1\ngraph_m=1\nfingerprint=0\n"
      "partition=0\nnum_partitions=1\nnext_index=0\n"
      "stats=0 0 0 0 0 0 0 0.307junk\n",
  };
  for (const std::string& text : bad_manifests) {
    ASSERT_TRUE(AtomicWriteFile(manifest, text).ok());
    const Result<AllPairsCheckpoint> read = ReadCheckpoint(dir);
    ASSERT_FALSE(read.ok()) << text;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << text;
  }
  std::remove(manifest.c_str());
}

TEST_F(CheckpointResumeTest, ValidateRejectsEveryMismatch) {
  const std::string dir = Path("ckpt_validate");
  ::mkdir(dir.c_str(), 0777);
  AllPairsCheckpoint ckpt;
  ckpt.graph_n = graph_.NumVertices();
  ckpt.graph_m = graph_.NumEdges();
  ckpt.options_fingerprint = FingerprintOptions(searcher_->options());
  ckpt.partition = 0;
  ckpt.num_partitions = 1;
  EXPECT_TRUE(ValidateCheckpoint(ckpt, *searcher_, 0, 1, dir).ok());

  AllPairsCheckpoint wrong = ckpt;
  wrong.graph_n += 1;
  EXPECT_EQ(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).code(),
            StatusCode::kInvalidArgument);
  wrong = ckpt;
  wrong.options_fingerprint ^= 1;
  EXPECT_EQ(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateCheckpoint(ckpt, *searcher_, 0, 2, dir).code(),
            StatusCode::kInvalidArgument);

  // A resume point past the end of the shard would skip queries.
  wrong = ckpt;
  wrong.next_index = graph_.NumVertices();
  EXPECT_TRUE(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).ok());
  wrong.next_index += 1;
  EXPECT_EQ(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).code(),
            StatusCode::kCorruption);

  // A manifest-listed chunk that is missing or short is corruption.
  wrong = ckpt;
  wrong.chunks.push_back({"chunk_00000000.tsv", 10});
  EXPECT_EQ(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).code(),
            StatusCode::kCorruption);
  ASSERT_TRUE(AtomicWriteFile(dir + "/chunk_00000000.tsv", "short").ok());
  EXPECT_EQ(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).code(),
            StatusCode::kCorruption);
  wrong.chunks[0].bytes = 5;
  EXPECT_TRUE(ValidateCheckpoint(wrong, *searcher_, 0, 1, dir).ok());
  std::remove((dir + "/chunk_00000000.tsv").c_str());
}

// ---------- the streaming runner ----------

TEST_F(CheckpointResumeTest, StreamedFileMatchesBufferedShardByteForByte) {
  const AllPairsShard shard = RunAllPairs(*searcher_);
  const std::string golden_path = Path("stream_golden.tsv");
  ASSERT_TRUE(WriteShardTsv(shard, golden_path).ok());

  const std::string streamed_path = Path("stream_streamed.tsv");
  AllPairsFileOptions options;
  options.checkpoint_queries = 7;  // deliberately not a divisor of 90
  Result<AllPairsFileReport> report =
      RunAllPairsToFile(*searcher_, options, streamed_path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->queries, graph_.NumVertices());
  EXPECT_EQ(report->resumed_queries, 0u);
  EXPECT_EQ(report->chunks, (graph_.NumVertices() + 6) / 7);
  EXPECT_GT(report->stats.refined, 0u);
  EXPECT_EQ(Slurp(golden_path), Slurp(streamed_path));
  // Success removes the checkpoint directory.
  EXPECT_FALSE(Exists(CheckpointDirFor(streamed_path) + "/MANIFEST"));
  std::remove(golden_path.c_str());
  std::remove(streamed_path.c_str());
}

// Arms a fault at a site a fault-injection-off build compiles out.
#ifdef SIMRANK_FAULT_INJECTION
TEST_F(CheckpointResumeTest, InjectedCrashMidRunResumesByteIdentical) {
  const std::string golden_path = Path("resume_golden.tsv");
  AllPairsFileOptions options;
  options.checkpoint_queries = 16;
  ASSERT_TRUE(RunAllPairsToFile(*searcher_, options, golden_path).ok());

  // First attempt dies (soft error, in-process stand-in for a crash)
  // while writing the third chunk: two chunks are durable.
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  fault::SiteConfig config;
  config.on_hit = 3;
  injector.Arm("ckpt.chunk.write", config);
  const std::string path = Path("resume_out.tsv");
  Result<AllPairsFileReport> crashed =
      RunAllPairsToFile(*searcher_, options, path);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(Exists(path));
  injector.Clear();

  // The interrupted state is resumable and completes to the same bytes.
  AllPairsFileOptions resume = options;
  resume.resume = true;
  Result<AllPairsFileReport> resumed =
      RunAllPairsToFile(*searcher_, resume, path);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_queries, 32u);
  EXPECT_EQ(resumed->queries, graph_.NumVertices() - 32u);
  EXPECT_EQ(Slurp(golden_path), Slurp(path));
  std::remove(golden_path.c_str());
  std::remove(path.c_str());
}
#endif  // SIMRANK_FAULT_INJECTION

TEST_F(CheckpointResumeTest, ResumeRejectsChangedOptions) {
  const std::string path = Path("resume_reject.tsv");
  AllPairsFileOptions options;
  options.checkpoint_queries = 16;
  options.keep_checkpoint = true;
  ASSERT_TRUE(RunAllPairsToFile(*searcher_, options, path).ok());

  SearchOptions other = Options();
  other.seed = 999;
  TopKSearcher other_searcher(graph_, other);
  other_searcher.BuildIndex();
  AllPairsFileOptions resume = options;
  resume.resume = true;
  const Result<AllPairsFileReport> rejected =
      RunAllPairsToFile(other_searcher, resume, path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Same searcher resumes fine (nothing left to do, output re-assembled).
  const Result<AllPairsFileReport> ok_resume =
      RunAllPairsToFile(*searcher_, resume, path);
  ASSERT_TRUE(ok_resume.ok()) << ok_resume.status().ToString();
  EXPECT_EQ(ok_resume->queries, 0u);
  EXPECT_EQ(ok_resume->resumed_queries, graph_.NumVertices());

  const Result<AllPairsCheckpoint> ckpt =
      ReadCheckpoint(CheckpointDirFor(path));
  ASSERT_TRUE(ckpt.ok());
  RemoveCheckpoint(*ckpt, CheckpointDirFor(path));
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, ResumeWithoutCheckpointIsIoError) {
  AllPairsFileOptions options;
  options.resume = true;
  EXPECT_EQ(RunAllPairsToFile(*searcher_, options, Path("never_ran.tsv"))
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST_F(CheckpointResumeTest, FreshRunReplacesStaleCheckpoint) {
  const std::string path = Path("stale.tsv");
  AllPairsFileOptions options;
  options.checkpoint_queries = 16;
  options.keep_checkpoint = true;
  ASSERT_TRUE(RunAllPairsToFile(*searcher_, options, path).ok());
  const std::string golden = Slurp(path);
  // A fresh (non-resume) run must not be confused by the leftover state.
  options.keep_checkpoint = false;
  ASSERT_TRUE(RunAllPairsToFile(*searcher_, options, path).ok());
  EXPECT_EQ(Slurp(path), golden);
  EXPECT_FALSE(Exists(CheckpointDirFor(path) + "/MANIFEST"));
  std::remove(path.c_str());
}

TEST_F(CheckpointResumeTest, InvalidArgumentsAreStatusesNotAborts) {
  AllPairsFileOptions options;
  options.run.num_partitions = 0;
  EXPECT_EQ(RunAllPairsToFile(*searcher_, options, Path("x.tsv"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.run.num_partitions = 2;
  options.run.partition = 2;
  EXPECT_EQ(RunAllPairsToFile(*searcher_, options, Path("x.tsv"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options = {};
  options.checkpoint_queries = 0;
  EXPECT_EQ(RunAllPairsToFile(*searcher_, options, Path("x.tsv"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  TopKSearcher unbuilt(graph_, Options());
  EXPECT_EQ(RunAllPairsToFile(unbuilt, AllPairsFileOptions{}, Path("x.tsv"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// ---------- progress contract ----------

TEST_F(CheckpointResumeTest, ProgressFiresExactlyOncePerBoundaryUnderThreads) {
  ThreadPool pool(4);
  AllPairsOptions options;
  options.pool = &pool;
  options.progress_interval = 8;
  std::mutex mutex;
  std::vector<uint64_t> reported;
  std::atomic<int> concurrent{0};
  std::atomic<bool> overlapped{false};
  options.progress = [&](uint64_t done) {
    if (concurrent.fetch_add(1) != 0) overlapped = true;
    {
      std::lock_guard<std::mutex> lock(mutex);
      reported.push_back(done);
    }
    concurrent.fetch_sub(1);
  };
  RunAllPairs(*searcher_, options);

  // 90 vertices, interval 8: boundaries 8, 16, ..., 88 — each exactly
  // once, in increasing order, never concurrently.
  EXPECT_FALSE(overlapped.load());
  ASSERT_EQ(reported.size(), 11u);
  EXPECT_TRUE(std::is_sorted(reported.begin(), reported.end()));
  for (size_t i = 0; i < reported.size(); ++i) {
    EXPECT_EQ(reported[i], (i + 1) * 8);
  }
}

TEST_F(CheckpointResumeTest, ProgressSpansChunksInStreamingRunner) {
  std::vector<uint64_t> reported;
  AllPairsFileOptions options;
  options.checkpoint_queries = 16;
  options.run.progress_interval = 25;
  options.run.progress = [&](uint64_t done) { reported.push_back(done); };
  const std::string path = Path("progress_stream.tsv");
  ASSERT_TRUE(RunAllPairsToFile(*searcher_, options, path).ok());
  // Boundaries 25, 50, 75 cross chunk borders (16-query chunks) and must
  // still each fire exactly once across the whole run.
  ASSERT_EQ(reported.size(), 3u);
  EXPECT_EQ(reported[0], 25u);
  EXPECT_EQ(reported[1], 50u);
  EXPECT_EQ(reported[2], 75u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simrank
