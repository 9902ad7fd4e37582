#ifndef SIMRANK_SIMRANK_ALL_PAIRS_H_
#define SIMRANK_SIMRANK_ALL_PAIRS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simrank/top_k_searcher.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace simrank {

/// Configuration of a (possibly partitioned) all-vertices top-k run — the
/// paper's "top-k search for all vertices" mode (§2.2). The computation is
/// embarrassingly parallel over query vertices; `partition`/
/// `num_partitions` carve the vertex range into M equal slices so that M
/// machines (or M sequential invocations) each produce one shard, which is
/// the paper's "if there are M machines, the running time is O(n^2/M)"
/// deployment.
struct AllPairsOptions {
  /// This run computes queries for vertices v with
  /// v % num_partitions == partition.
  uint32_t partition = 0;
  uint32_t num_partitions = 1;
  /// Thread pool for intra-run parallelism; may be null (serial). The
  /// run waits only on its own tasks, so the pool may be shared.
  ThreadPool* pool = nullptr;
  /// Progress callback. Delivery contract:
  ///  - invoked exactly once for every multiple of `progress_interval`
  ///    completed queries (1024, 2048, ... for the default interval), with
  ///    that multiple as argument;
  ///  - invocations are serialized (an internal mutex guards delivery —
  ///    the callback is never entered concurrently) and their arguments
  ///    are strictly increasing;
  ///  - the invoking thread is whichever worker crossed the boundary (the
  ///    calling thread when `pool` is null), so the callback must not
  ///    block for long and must not re-enter the runner;
  ///  - on a checkpoint resume, counts restart at the first query
  ///    *executed by this process* — already-durable queries are not
  ///    replayed and not reported.
  /// null disables.
  std::function<void(uint64_t)> progress;
  uint64_t progress_interval = 1024;
};

/// Result shard of an all-pairs run.
struct AllPairsShard {
  /// rankings[i] is the top-k list of the i-th vertex of this partition
  /// (vertex id = partition + i * num_partitions).
  std::vector<std::vector<ScoredVertex>> rankings;
  uint32_t partition = 0;
  uint32_t num_partitions = 1;
  /// Wall time of the shard run.
  double seconds = 0.0;
  /// Sum of the per-query stats over the shard (QueryStats::operator+=;
  /// stats.seconds is cumulative query time across worker threads, not
  /// wall time).
  QueryStats stats;

  /// Vertex id of rankings[i].
  Vertex VertexAt(size_t i) const {
    return static_cast<Vertex>(partition + i * num_partitions);
  }
};

/// Runs top-k queries for every vertex of the shard, buffering every
/// ranking in memory. The searcher must be preprocessed (BuildIndex)
/// already. For multi-hour shards prefer RunAllPairsToFile, which streams
/// rankings to disk in checkpointed chunks and can resume after a crash.
AllPairsShard RunAllPairs(const TopKSearcher& searcher,
                          const AllPairsOptions& options = {});

/// Writes a shard as TSV lines "query<TAB>vertex<TAB>score", ranked
/// best-first per query. Queries with no results emit no lines. The file
/// is written atomically (temp + fsync + rename): readers never observe a
/// partial shard at `path`.
Status WriteShardTsv(const AllPairsShard& shard, const std::string& path);

/// Options of the streaming, checkpointed all-pairs runner.
struct AllPairsFileOptions {
  /// Partitioning, pool and progress reporting, as for RunAllPairs.
  AllPairsOptions run;
  /// Queries per durable chunk: each block of this many completed queries
  /// is written to the checkpoint directory and recorded in the manifest
  /// before the next block starts. Smaller values bound the work lost to
  /// a crash; each chunk costs two fsync'd file writes.
  uint64_t checkpoint_queries = 1024;
  /// Continue from the checkpoint left by a previous (crashed) run of the
  /// same output path. The manifest must validate against the current
  /// graph, options and partition config (see docs/ROBUSTNESS.md);
  /// resuming with nothing to resume is an IoError.
  bool resume = false;
  /// Keep the checkpoint directory after a successful run (tests).
  bool keep_checkpoint = false;
};

/// Outcome of a RunAllPairsToFile call.
struct AllPairsFileReport {
  /// Queries executed by this process.
  uint64_t queries = 0;
  /// Queries skipped because a resumed checkpoint already covered them.
  uint64_t resumed_queries = 0;
  /// Durable chunks making up the final file (resumed + new).
  uint64_t chunks = 0;
  /// Stats accumulated over the whole shard, including resumed chunks.
  /// The checkpoint manifest persists the counters and `seconds` only:
  /// after a resume, `walks` and `phases` sum this process's queries.
  QueryStats stats;
  /// Wall time of this process's run.
  double seconds = 0.0;
  /// Wall time including previous crashed runs of the same shard.
  double cumulative_seconds = 0.0;
};

/// The crash-safe all-pairs runner: streams completed rankings to
/// `path`'s checkpoint directory in bounded chunks (never holding more
/// than one chunk of rankings in memory), persists a manifest after every
/// chunk, and atomically assembles the final TSV — byte-identical to
/// WriteShardTsv of an uninterrupted RunAllPairs — once the shard is
/// complete. A run killed at any instant can be continued with
/// `options.resume` from the last durable chunk.
Result<AllPairsFileReport> RunAllPairsToFile(const TopKSearcher& searcher,
                                             const AllPairsFileOptions& options,
                                             const std::string& path);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_ALL_PAIRS_H_
