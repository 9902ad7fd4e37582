// Corruption fuzzing of every binary loader: for each durable format
// (graph binary, searcher index) take a valid file, then
//   - truncate it at every possible length, and
//   - flip every byte (XOR 0xFF), one at a time,
// and require each load to come back as a clean non-OK Status — never a
// crash, hang, CHECK failure, or giant allocation. Run under asan-ubsan
// (the preset builds these tests too) this is the "no loader trusts a
// length field" guarantee.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/io.h"
#include "simrank/serialization.h"
#include "simrank/top_k_searcher.h"
#include "test_helpers.h"
#include "util/atomic_file.h"

namespace simrank {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Applies `load` (returning its Status) to every truncation and every
// byte-flip of `bytes`, staged at `path`. `load` must return non-OK for
// every strict truncation; flips may legitimately parse (e.g. a flipped
// score bit still decodes) but must never crash, so only sanitizer
// cleanliness is asserted for the OK case.
template <typename LoadFn>
void FuzzFile(const std::string& bytes, const std::string& path, LoadFn load,
              size_t min_rejected_flips) {
  ASSERT_FALSE(bytes.empty());
  // Truncation sweep: every strict prefix must be rejected.
  for (size_t length = 0; length < bytes.size(); ++length) {
    ASSERT_TRUE(AtomicWriteFile(path, bytes.substr(0, length)).ok());
    const Status status = load(path);
    EXPECT_FALSE(status.ok()) << "truncation at " << length << " parsed";
  }
  // Flip sweep: every single-byte corruption loads without crashing. A
  // flip in pure value bytes (a score mantissa) may legitimately parse;
  // flips in structural bytes (magic, counts, lengths) must be caught,
  // which the caller expresses as a floor on rejections.
  size_t rejected = 0;
  for (size_t position = 0; position < bytes.size(); ++position) {
    std::string corrupt = bytes;
    corrupt[position] = static_cast<char>(corrupt[position] ^ 0xFF);
    ASSERT_TRUE(AtomicWriteFile(path, corrupt).ok());
    if (!load(path).ok()) ++rejected;
  }
  EXPECT_GE(rejected, min_rejected_flips);
  std::remove(path.c_str());
}

TEST(CorruptionFuzzTest, GraphBinarySurvivesTruncationAndFlips) {
  const DirectedGraph graph = testing::SmallRandomGraph(24, 96, 3);
  const std::string path = testing::ScratchPath("fuzz_graph.bin");
  ASSERT_TRUE(SaveBinary(graph, path).ok());
  const std::string bytes = Slurp(path);
  FuzzFile(
      bytes, path,
      [](const std::string& p) { return LoadBinary(p).status(); },
      bytes.size() / 2);
}

TEST(CorruptionFuzzTest, SearcherIndexSurvivesTruncationAndFlips) {
  const DirectedGraph graph = testing::SmallRandomGraph(24, 96, 3);
  SearchOptions options;
  options.k = 4;
  options.seed = 5;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  const std::string path = testing::ScratchPath("fuzz_index.idx");
  ASSERT_TRUE(SaveSearcherIndex(searcher, path).ok());
  const std::string bytes = Slurp(path);
  // Value payloads (diagonal doubles, gamma codes) tolerate bit flips;
  // the ~36 structural bytes (magic, n, m, decay, steps) must not.
  FuzzFile(
      bytes, path,
      [&](const std::string& p) {
        return LoadSearcherIndex(graph, options, p).status();
      },
      36);
}

TEST(CorruptionFuzzTest, EdgeListTextRejectsGarbageLines) {
  const std::string path = testing::ScratchPath("fuzz_edges.txt");
  const std::vector<std::string> bad_inputs = {
      "1 notanumber\n",
      "9999999999999999999999 3\n",
      "1\n",
      "-4 2\n",
      "+4 2\n",
  };
  for (const std::string& text : bad_inputs) {
    ASSERT_TRUE(AtomicWriteFile(path, text).ok());
    EXPECT_FALSE(LoadEdgeListText(path).ok()) << text;
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzzTest, ImplausibleVectorLengthIsRejectedWithoutAllocating) {
  // Hand-craft an index header whose vector length claims ~2^60 entries;
  // the reader must reject from the file size alone, not attempt the
  // allocation (which would OOM long before any read).
  const DirectedGraph graph = testing::SmallRandomGraph(24, 96, 3);
  SearchOptions options;
  options.k = 4;
  options.seed = 5;
  TopKSearcher searcher(graph, options);
  searcher.BuildIndex();
  const std::string path = testing::ScratchPath("fuzz_hugelen.idx");
  ASSERT_TRUE(SaveSearcherIndex(searcher, path).ok());
  std::string bytes = Slurp(path);
  // Layout: magic(8) n(8) m(8) decay(8) steps(4) flags(4), then the
  // uint64 length prefix of the diagonal vector at offset 40.
  ASSERT_GT(bytes.size(), 48u);
  const uint64_t huge = 1ULL << 60;
  std::memcpy(&bytes[40], &huge, sizeof(huge));
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  const auto loaded = LoadSearcherIndex(graph, options, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simrank
