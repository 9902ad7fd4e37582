#include "simrank/all_pairs.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include <sys/stat.h>
#include <sys/types.h>

#include "simrank/checkpoint.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/mutex.h"
#include "util/serialize.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace simrank {

namespace {

Vertex ShardVertex(uint32_t partition, uint32_t num_partitions, size_t index) {
  return static_cast<Vertex>(partition + index * num_partitions);
}

// Delivers the AllPairsOptions::progress contract: exactly one callback
// per crossed progress_interval boundary, serialized, strictly
// increasing. Every completed-count value is returned by fetch_add to
// exactly one thread, so each boundary has a unique owner; owners can
// reach the mutex out of order, so whichever owner gets it first reports
// every not-yet-reported boundary up to its own count, and late owners
// find nothing left to say.
class ProgressReporter {
 public:
  explicit ProgressReporter(const AllPairsOptions& options)
      : callback_(options.progress), interval_(options.progress_interval) {}

  void OnCompleted() SIMRANK_EXCLUDES(mutex_) {
    const uint64_t done =
        completed_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (callback_ == nullptr || interval_ == 0 || done % interval_ != 0) {
      return;
    }
    MutexLock lock(mutex_);
    while (last_reported_ + interval_ <= done) {
      last_reported_ += interval_;
      callback_(last_reported_);
    }
  }

 private:
  const std::function<void(uint64_t)>& callback_;
  const uint64_t interval_;
  std::atomic<uint64_t> completed_{0};
  Mutex mutex_;
  uint64_t last_reported_ SIMRANK_GUARDED_BY(mutex_) = 0;
};

// Runs queries for shard-local indices [lo, hi), writing the i-th ranking
// to out[i - lo]. `out` must already have hi - lo entries. Queries borrow
// workspaces from the searcher's freelist; ParallelFor waits only on this
// call's chunks, so the pool may be shared with unrelated work.
void RunIndexRange(const TopKSearcher& searcher, uint32_t partition,
                   uint32_t num_partitions, size_t lo, size_t hi,
                   ThreadPool* pool, ProgressReporter& progress,
                   std::vector<std::vector<ScoredVertex>>& out,
                   QueryStats& stats) {
  Mutex stats_mutex;
  ParallelFor(pool, lo, hi, [&](size_t i) {
    QueryResult result =
        searcher.Query(ShardVertex(partition, num_partitions, i));
    out[i - lo] = std::move(result.top);
    {
      MutexLock lock(stats_mutex);
      stats += result.stats;
    }
    progress.OnCompleted();
  });
}

void AppendRankingTsv(AtomicFileWriter& writer, Vertex query,
                      const std::vector<ScoredVertex>& ranking) {
  char line[64];
  for (const ScoredVertex& entry : ranking) {
    const int len = std::snprintf(line, sizeof(line), "%u\t%u\t%.10g\n",
                                  query, entry.vertex, entry.score);
    writer.Append(line, static_cast<size_t>(len));
  }
}

}  // namespace

AllPairsShard RunAllPairs(const TopKSearcher& searcher,
                          const AllPairsOptions& options) {
  SIMRANK_CHECK_GE(options.num_partitions, 1u);
  SIMRANK_CHECK_LT(options.partition, options.num_partitions);
  SIMRANK_CHECK(searcher.index_built());
  WallTimer timer;
  const Vertex n = searcher.graph().NumVertices();
  AllPairsShard shard;
  shard.partition = options.partition;
  shard.num_partitions = options.num_partitions;
  const size_t shard_size =
      ShardSize(n, options.partition, options.num_partitions);
  shard.rankings.resize(shard_size);
  ProgressReporter progress(options);
  RunIndexRange(searcher, options.partition, options.num_partitions, 0,
                shard_size, options.pool, progress, shard.rankings,
                shard.stats);
  shard.seconds = timer.ElapsedSeconds();
  return shard;
}

Status WriteShardTsv(const AllPairsShard& shard, const std::string& path) {
  SIMRANK_FAULT_POINT("io.shard_tsv.write");
  AtomicFileWriter writer(path);
  for (size_t i = 0; i < shard.rankings.size(); ++i) {
    AppendRankingTsv(writer, shard.VertexAt(i), shard.rankings[i]);
  }
  return writer.Commit();
}

Result<AllPairsFileReport> RunAllPairsToFile(const TopKSearcher& searcher,
                                             const AllPairsFileOptions& options,
                                             const std::string& path) {
  const AllPairsOptions& run = options.run;
  if (run.num_partitions < 1) {
    return Status::InvalidArgument("num_partitions must be >= 1");
  }
  if (run.partition >= run.num_partitions) {
    return Status::InvalidArgument("partition must be < num_partitions");
  }
  if (!searcher.index_built()) {
    return Status::InvalidArgument(
        "RunAllPairsToFile needs a preprocessed searcher (call BuildIndex)");
  }
  if (options.checkpoint_queries == 0) {
    return Status::InvalidArgument("checkpoint_queries must be >= 1");
  }

  WallTimer timer;
  const Vertex n = searcher.graph().NumVertices();
  const size_t shard_size = ShardSize(n, run.partition, run.num_partitions);
  const std::string dir = CheckpointDirFor(path);

  AllPairsCheckpoint ckpt;
  AllPairsFileReport report;
  if (options.resume) {
    Result<AllPairsCheckpoint> loaded = ReadCheckpoint(dir);
    if (!loaded.ok()) return loaded.status();
    ckpt = std::move(loaded).value();
    SIMRANK_RETURN_IF_ERROR(ValidateCheckpoint(
        ckpt, searcher, run.partition, run.num_partitions, dir));
    report.resumed_queries = ckpt.next_index;
  } else {
    // A fresh run replaces any stale checkpoint of the same output path.
    Result<AllPairsCheckpoint> stale = ReadCheckpoint(dir);
    RemoveCheckpoint(stale.ok() ? stale.value() : AllPairsCheckpoint{}, dir);
    if (::mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
      return Status::IoError("cannot create checkpoint directory " + dir +
                             ": " + std::strerror(errno));
    }
    ckpt.graph_n = n;
    ckpt.graph_m = searcher.graph().NumEdges();
    ckpt.options_fingerprint = FingerprintOptions(searcher.options());
    ckpt.partition = run.partition;
    ckpt.num_partitions = run.num_partitions;
    ckpt.chunk_queries = options.checkpoint_queries;
    // Durable before the first query: a crash at any later instant finds
    // a valid (possibly empty) manifest and is resumable.
    SIMRANK_RETURN_IF_ERROR(WriteCheckpoint(ckpt, dir));
  }
  const double resumed_seconds = ckpt.seconds;

  ProgressReporter progress(run);
  while (ckpt.next_index < shard_size) {
    const size_t lo = ckpt.next_index;
    const size_t hi = std::min<size_t>(lo + options.checkpoint_queries,
                                       shard_size);
    std::vector<std::vector<ScoredVertex>> rankings(hi - lo);
    QueryStats block_stats;
    RunIndexRange(searcher, run.partition, run.num_partitions, lo, hi,
                  run.pool, progress, rankings, block_stats);
    report.queries += hi - lo;

    SIMRANK_FAULT_POINT("ckpt.chunk.write");
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%08zu.tsv", ckpt.chunks.size());
    AtomicFileWriter chunk_writer(dir + "/" + name);
    for (size_t i = lo; i < hi; ++i) {
      AppendRankingTsv(chunk_writer,
                       ShardVertex(run.partition, run.num_partitions, i),
                       rankings[i - lo]);
    }
    const uint64_t chunk_bytes = chunk_writer.size();
    SIMRANK_RETURN_IF_ERROR(chunk_writer.Commit());

    // The chunk is durable; only now may the manifest reference it.
    ckpt.chunks.push_back(CheckpointChunk{name, chunk_bytes});
    ckpt.next_index = hi;
    ckpt.stats += block_stats;
    ckpt.seconds = resumed_seconds + timer.ElapsedSeconds();
    SIMRANK_RETURN_IF_ERROR(WriteCheckpoint(ckpt, dir));
  }

  SIMRANK_FAULT_POINT("ckpt.finalize");
  // Concatenating the chunks in shard order yields exactly the bytes
  // WriteShardTsv of an uninterrupted run would produce: chunk boundaries
  // fall between lines and every line is formatted identically.
  AtomicFileWriter final_writer(path);
  for (const CheckpointChunk& chunk : ckpt.chunks) {
    SIMRANK_FAULT_POINT("ckpt.chunk.read");
    const Result<std::string> bytes = ReadFile(dir + "/" + chunk.file);
    if (!bytes.ok()) return bytes.status();
    final_writer.Append(*bytes);
  }
  SIMRANK_RETURN_IF_ERROR(final_writer.Commit());
  if (!options.keep_checkpoint) RemoveCheckpoint(ckpt, dir);

  report.chunks = ckpt.chunks.size();
  report.stats = ckpt.stats;
  report.seconds = timer.ElapsedSeconds();
  report.cumulative_seconds = resumed_seconds + report.seconds;
  return report;
}

}  // namespace simrank
