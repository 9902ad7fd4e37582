#include "simrank/checkpoint.h"

#include <cinttypes>
#include <cstdio>
#include <optional>
#include <ranges>
#include <set>
#include <string_view>
#include <type_traits>

#include <sys/stat.h>
#include <unistd.h>

#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/parse.h"
#include "util/serialize.h"

namespace simrank {

namespace {

constexpr const char* kManifestName = "MANIFEST";

// FNV-1a, fed field by field. Every field gets its full byte image, so
// two option sets differing in any query-relevant knob fingerprint
// differently (module padding games, which plain members do not play).
class Fingerprinter {
 public:
  template <typename T>
  void Mix(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(T); ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + kManifestName;
}

// Copies a parsed value into `field`; false when there is none.
template <typename T>
bool Store(const std::optional<T>& value, T& field) {
  if (value.has_value()) field = *value;
  return value.has_value();
}

Status Malformed(const std::string& dir, const std::string& what) {
  return Status::Corruption(ManifestPath(dir) + ": " + what);
}

}  // namespace

uint64_t FingerprintOptions(const SearchOptions& options) {
  Fingerprinter fp;
  fp.Mix(options.simrank.decay);
  fp.Mix(options.simrank.num_steps);
  fp.Mix(options.k);
  fp.Mix(options.threshold);
  fp.Mix(options.max_distance);
  fp.Mix(static_cast<uint8_t>(options.use_distance_bound));
  fp.Mix(static_cast<uint8_t>(options.use_l1_bound));
  fp.Mix(static_cast<uint8_t>(options.use_l2_bound));
  fp.Mix(static_cast<uint8_t>(options.use_index));
  fp.Mix(static_cast<uint8_t>(options.adaptive_sampling));
  fp.Mix(options.estimate_walks);
  fp.Mix(options.refine_walks);
  fp.Mix(options.profile_walks);
  fp.Mix(options.l1_walks);
  fp.Mix(options.gamma_walks);
  fp.Mix(options.adaptive_margin);
  fp.Mix(options.index_params.repetitions);
  fp.Mix(options.index_params.witness_walks);
  fp.Mix(static_cast<uint8_t>(options.estimate_diagonal));
  fp.Mix(options.seed);
  return fp.hash();
}

size_t ShardSize(Vertex n, uint32_t partition, uint32_t num_partitions) {
  return n > partition
             ? (n - partition + num_partitions - 1) / num_partitions
             : 0;
}

std::string CheckpointDirFor(const std::string& tsv_path) {
  return tsv_path + ".ckpt";
}

Status WriteCheckpoint(const AllPairsCheckpoint& checkpoint,
                       const std::string& dir) {
  SIMRANK_FAULT_POINT("ckpt.manifest.write");
  AtomicFileWriter writer(ManifestPath(dir));
  char line[256];
  auto emit = [&](const char* fmt, auto... args) {
    const int len = std::snprintf(line, sizeof(line), fmt, args...);
    writer.Append(line, static_cast<size_t>(len));
  };
  emit("%s\n", AllPairsCheckpoint::kFormatTag);
  emit("graph_n=%" PRIu64 "\n", checkpoint.graph_n);
  emit("graph_m=%" PRIu64 "\n", checkpoint.graph_m);
  emit("fingerprint=%016" PRIx64 "\n", checkpoint.options_fingerprint);
  emit("partition=%u\n", checkpoint.partition);
  emit("num_partitions=%u\n", checkpoint.num_partitions);
  emit("chunk_queries=%" PRIu64 "\n", checkpoint.chunk_queries);
  emit("next_index=%" PRIu64 "\n", checkpoint.next_index);
  emit("seconds=%.17g\n", checkpoint.seconds);
  emit("stats=%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
       " %" PRIu64 " %" PRIu64 " %.17g\n",
       checkpoint.stats.candidates_enumerated,
       checkpoint.stats.pruned_by_distance, checkpoint.stats.pruned_by_l1,
       checkpoint.stats.pruned_by_l2, checkpoint.stats.rough_estimates,
       checkpoint.stats.skipped_after_estimate, checkpoint.stats.refined,
       checkpoint.stats.seconds);
  for (const CheckpointChunk& chunk : checkpoint.chunks) {
    emit("chunk=%s %" PRIu64 "\n", chunk.file.c_str(), chunk.bytes);
  }
  return writer.Commit();
}

Result<AllPairsCheckpoint> ReadCheckpoint(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  SIMRANK_FAULT_POINT("ckpt.manifest.read");
  const Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();

  std::vector<std::string_view> lines = Split(*text, "\n");
  std::erase(lines, std::string_view());
  if (lines.empty() || lines[0] != AllPairsCheckpoint::kFormatTag) {
    return Malformed(dir, "not a " +
                              std::string(AllPairsCheckpoint::kFormatTag) +
                              " manifest");
  }
  AllPairsCheckpoint checkpoint;
  std::set<std::string_view> seen;
  for (const std::string_view line : lines | std::views::drop(1)) {
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Malformed(dir, "malformed line '" + std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    bool parsed = true;
    if (key == "graph_n") {
      parsed = Store(ParseNumber<uint64_t>(value), checkpoint.graph_n);
    } else if (key == "graph_m") {
      parsed = Store(ParseNumber<uint64_t>(value), checkpoint.graph_m);
    } else if (key == "fingerprint") {
      parsed = Store(ParseNumber<uint64_t>(value, 16),
                     checkpoint.options_fingerprint);
    } else if (key == "partition") {
      parsed = Store(ParseNumber<uint32_t>(value), checkpoint.partition);
    } else if (key == "num_partitions") {
      parsed = Store(ParseNumber<uint32_t>(value), checkpoint.num_partitions) &&
               checkpoint.num_partitions >= 1;
    } else if (key == "chunk_queries") {
      parsed = Store(ParseNumber<uint64_t>(value), checkpoint.chunk_queries);
    } else if (key == "next_index") {
      parsed = Store(ParseNumber<uint64_t>(value), checkpoint.next_index);
    } else if (key == "seconds") {
      parsed = Store(ParseNumber<double>(value), checkpoint.seconds);
    } else if (key == "stats") {
      const std::vector<std::string_view> f = Split(value, " ");
      QueryStats& s = checkpoint.stats;
      parsed = f.size() == 8 &&
               Store(ParseNumber<uint64_t>(f[0]), s.candidates_enumerated) &&
               Store(ParseNumber<uint64_t>(f[1]), s.pruned_by_distance) &&
               Store(ParseNumber<uint64_t>(f[2]), s.pruned_by_l1) &&
               Store(ParseNumber<uint64_t>(f[3]), s.pruned_by_l2) &&
               Store(ParseNumber<uint64_t>(f[4]), s.rough_estimates) &&
               Store(ParseNumber<uint64_t>(f[5]), s.skipped_after_estimate) &&
               Store(ParseNumber<uint64_t>(f[6]), s.refined) &&
               Store(ParseNumber<double>(f[7]), s.seconds);
    } else if (key == "chunk") {
      const std::vector<std::string_view> f = Split(value, " ");
      CheckpointChunk& chunk = checkpoint.chunks.emplace_back();
      chunk.file = f[0];  // Split returns at least one field
      parsed = f.size() == 2 && !chunk.file.empty() &&
               chunk.file.find('/') == std::string::npos &&
               Store(ParseNumber<uint64_t>(f[1]), chunk.bytes);
    } else {
      // Unknown keys are a format error: v1 readers refuse rather than
      // guess, and future versions bump the tag.
      parsed = false;
    }
    if (!parsed) {
      return Malformed(dir, "bad value in line '" + std::string(line) + "'");
    }
    if (key != "chunk" && !seen.insert(key).second) {
      return Malformed(dir, "duplicate key '" + std::string(key) + "'");
    }
  }
  for (const char* required :
       {"graph_n", "graph_m", "fingerprint", "partition", "num_partitions",
        "next_index"}) {
    if (!seen.contains(required)) {
      return Malformed(dir, std::string("missing key '") + required + "'");
    }
  }
  return checkpoint;
}

Status ValidateCheckpoint(const AllPairsCheckpoint& checkpoint,
                          const TopKSearcher& searcher, uint32_t partition,
                          uint32_t num_partitions, const std::string& dir) {
  const DirectedGraph& graph = searcher.graph();
  if (checkpoint.graph_n != graph.NumVertices() ||
      checkpoint.graph_m != graph.NumEdges()) {
    return Status::InvalidArgument(
        dir + ": checkpoint was taken on a different graph (n/m mismatch)");
  }
  if (checkpoint.options_fingerprint !=
      FingerprintOptions(searcher.options())) {
    return Status::InvalidArgument(
        dir +
        ": checkpoint was taken with different search options "
        "(fingerprint mismatch)");
  }
  if (checkpoint.partition != partition ||
      checkpoint.num_partitions != num_partitions) {
    return Status::InvalidArgument(
        dir + ": checkpoint covers partition " +
        std::to_string(checkpoint.partition) + "/" +
        std::to_string(checkpoint.num_partitions) + ", not " +
        std::to_string(partition) + "/" + std::to_string(num_partitions));
  }
  const size_t shard_size =
      ShardSize(graph.NumVertices(), partition, num_partitions);
  if (checkpoint.next_index > shard_size) {
    return Status::Corruption(
        dir + ": checkpoint resumes at query " +
        std::to_string(checkpoint.next_index) + " of a " +
        std::to_string(shard_size) + "-query shard");
  }
  for (const CheckpointChunk& chunk : checkpoint.chunks) {
    struct stat st = {};
    const std::string path = dir + "/" + chunk.file;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::Corruption(path + ": checkpointed chunk is missing");
    }
    if (static_cast<uint64_t>(st.st_size) != chunk.bytes) {
      return Status::Corruption(
          path + ": checkpointed chunk has " + std::to_string(st.st_size) +
          " bytes, manifest says " + std::to_string(chunk.bytes));
    }
  }
  return Status::OK();
}

void RemoveCheckpoint(const AllPairsCheckpoint& checkpoint,
                      const std::string& dir) {
  for (const CheckpointChunk& chunk : checkpoint.chunks) {
    const std::string path = dir + "/" + chunk.file;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::remove((ManifestPath(dir) + ".tmp").c_str());
  std::remove(ManifestPath(dir).c_str());
  ::rmdir(dir.c_str());
}

}  // namespace simrank
