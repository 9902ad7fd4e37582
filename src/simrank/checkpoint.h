#ifndef SIMRANK_SIMRANK_CHECKPOINT_H_
#define SIMRANK_SIMRANK_CHECKPOINT_H_

// Crash-safe checkpoint state for the all-pairs runner
// (docs/ROBUSTNESS.md).
//
// A checkpointed run of RunAllPairsToFile keeps its durable state in a
// sibling directory `<out>.ckpt/` of the target TSV: one atomically
// written chunk file per block of completed queries plus a MANIFEST
// describing what is durable so far. The manifest is format-versioned and
// records everything a resume needs to decide whether the checkpoint is
// still valid for the current graph/options — a mismatch is an error, not
// a silent restart.
//
// Crash model: every chunk file and every manifest update is written via
// util::AtomicFileWriter (temp + fsync + rename), and the manifest is
// only advanced *after* the chunk it references is durable. A crash at
// any instant therefore leaves a manifest whose chunk list is entirely
// readable; at worst the work since the last manifest update is redone.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simrank/top_k_searcher.h"
#include "util/status.h"

namespace simrank {

/// One durable chunk of completed queries.
struct CheckpointChunk {
  /// File name relative to the checkpoint directory.
  std::string file;
  /// Size in bytes, verified on resume.
  uint64_t bytes = 0;
};

/// The manifest of a checkpointed all-pairs run (format
/// "simrank-allpairs-ckpt-v1"; see docs/ROBUSTNESS.md for the on-disk
/// grammar and the invalidation rules).
struct AllPairsCheckpoint {
  static constexpr const char* kFormatTag = "simrank-allpairs-ckpt-v1";

  /// Identity of the run the checkpoint belongs to. All of these must
  /// match on resume.
  uint64_t graph_n = 0;
  uint64_t graph_m = 0;
  /// Fingerprint of the searcher's SearchOptions (FingerprintOptions):
  /// covers every knob that changes query results, so a checkpoint can
  /// never be resumed into a run that would produce different rankings.
  uint64_t options_fingerprint = 0;
  uint32_t partition = 0;
  uint32_t num_partitions = 1;

  /// Queries per chunk the run was started with (informational; a resume
  /// may continue with a different interval).
  uint64_t chunk_queries = 0;

  /// First shard-local vertex index not yet covered by a durable chunk.
  uint64_t next_index = 0;
  /// Durable chunks, in shard order.
  std::vector<CheckpointChunk> chunks;

  /// Stats accumulated over the durable chunks.
  QueryStats stats;
  /// Wall seconds accumulated over previous (crashed) runs.
  double seconds = 0.0;
};

/// Order-independent fingerprint of every SearchOptions field that affects
/// query results (parameters, pruning toggles, walk counts, seed, ...).
uint64_t FingerprintOptions(const SearchOptions& options);

/// Queries in shard `partition` of `num_partitions` over n vertices: the
/// vertices v < n with v % num_partitions == partition.
size_t ShardSize(Vertex n, uint32_t partition, uint32_t num_partitions);

/// The checkpoint directory of an output path: `<tsv_path>.ckpt`.
std::string CheckpointDirFor(const std::string& tsv_path);

/// Atomically writes `checkpoint` as `<dir>/MANIFEST`.
Status WriteCheckpoint(const AllPairsCheckpoint& checkpoint,
                       const std::string& dir);

/// Parses `<dir>/MANIFEST`. IoError when missing, Corruption when
/// malformed or of an unknown format version.
Result<AllPairsCheckpoint> ReadCheckpoint(const std::string& dir);

/// Validates `checkpoint` against the run about to execute: graph shape,
/// options fingerprint, and partition config must match, `next_index`
/// must lie within the shard, and every listed chunk file must exist in
/// `dir` with its recorded size. Returns InvalidArgument naming the first
/// mismatch, or Corruption for an out-of-shard `next_index` or a
/// missing/short chunk.
Status ValidateCheckpoint(const AllPairsCheckpoint& checkpoint,
                          const TopKSearcher& searcher, uint32_t partition,
                          uint32_t num_partitions, const std::string& dir);

/// Best-effort removal of the checkpoint: deletes the listed chunks, any
/// stale temp files, the manifest, and finally the directory. Never
/// fails the caller — cleanup problems only cost disk, not correctness.
void RemoveCheckpoint(const AllPairsCheckpoint& checkpoint,
                      const std::string& dir);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_CHECKPOINT_H_
