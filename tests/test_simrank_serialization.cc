// Tests for index persistence: save/load round trips, compatibility
// validation, and corruption handling.

#include "simrank/serialization.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/serialize.h"

namespace simrank {
namespace {

SearchOptions Options() {
  SearchOptions options;
  options.k = 10;
  options.threshold = 0.01;
  options.seed = 77;
  return options;
}

class SerializationTest : public ::testing::Test {
 protected:
  SerializationTest()
      : graph_(testing::SmallRandomGraph(120, 801, 60)),
        path_(testing::ScratchPath("searcher.idx")) {}
  ~SerializationTest() override { std::remove(path_.c_str()); }

  DirectedGraph graph_;
  std::string path_;
};

TEST_F(SerializationTest, RoundTripPreservesQueryResults) {
  TopKSearcher original(graph_, Options());
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  for (const char* gauge :
       {"index.gamma_bytes", "index.candidate_bytes", "index.bytes"}) {
    registry.GetGauge(gauge).Set(-1);
  }
  auto loaded = LoadSearcherIndex(graph_, Options(), path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->index_built());
  EXPECT_EQ(loaded->PreprocessBytes(), original.PreprocessBytes());
  // The codes travel verbatim and the step is recomputed from the same
  // diagonal.
  ASSERT_NE(loaded->gamma_table(), nullptr);
  EXPECT_EQ(loaded->gamma_table()->codes(), original.gamma_table()->codes());
  EXPECT_EQ(loaded->gamma_table()->step(), original.gamma_table()->step());
  // Loading publishes the same size gauges as a build.
  const auto gauges = registry.Snapshot().gauges;
  EXPECT_EQ(static_cast<uint64_t>(gauges.at("index.gamma_bytes")),
            loaded->gamma_table()->MemoryBytes());
  EXPECT_EQ(static_cast<uint64_t>(gauges.at("index.candidate_bytes")),
            loaded->candidate_index()->MemoryBytes());
  EXPECT_EQ(static_cast<uint64_t>(gauges.at("index.bytes")),
            loaded->PreprocessBytes());
  for (Vertex u = 0; u < graph_.NumVertices(); u += 17) {
    const auto a = original.Query(u).top;
    const auto b = loaded->Query(u).top;
    ASSERT_EQ(a.size(), b.size()) << u;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vertex, b[i].vertex) << u;
      EXPECT_DOUBLE_EQ(a[i].score, b[i].score) << u;
    }
  }
}

TEST_F(SerializationTest, RoundTripWithEstimatedDiagonal) {
  SearchOptions options = Options();
  options.estimate_diagonal = true;
  TopKSearcher original(graph_, options);
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  auto loaded = LoadSearcherIndex(graph_, options, path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The estimated diagonal travels with the file; scores must match
  // without re-estimating.
  EXPECT_EQ(loaded->diagonal(), original.diagonal());
  const auto a = original.Query(3).top;
  const auto b = loaded->Query(3).top;
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST_F(SerializationTest, SaveRequiresBuiltIndex) {
  TopKSearcher searcher(graph_, Options());
  const Status status = SaveSearcherIndex(searcher, path_);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, RejectsDifferentGraph) {
  TopKSearcher original(graph_, Options());
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  const DirectedGraph other = testing::SmallRandomGraph(121, 802, 60);
  const auto loaded = LoadSearcherIndex(other, Options(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, RejectsDifferentParameters) {
  TopKSearcher original(graph_, Options());
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  SearchOptions other = Options();
  other.simrank.decay = 0.8;
  const auto loaded = LoadSearcherIndex(graph_, other, path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, RejectsTruncatedFile) {
  TopKSearcher original(graph_, Options());
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  // Truncate to 60% of its size.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path_.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() * 6 / 10, f);
  std::fclose(f);
  const auto loaded = LoadSearcherIndex(graph_, Options(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SerializationTest, RejectsGarbageFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[128] = "not an index";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  const auto loaded = LoadSearcherIndex(graph_, Options(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(SerializationTest, MissingFileIsIoError) {
  const auto loaded =
      LoadSearcherIndex(graph_, Options(), "/nonexistent/idx.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SerializationTest, IndexFreeConfigurationRoundTrips) {
  SearchOptions options = Options();
  options.use_index = false;  // only the gamma table is persisted
  TopKSearcher original(graph_, options);
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  auto loaded = LoadSearcherIndex(graph_, options, path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->candidate_index(), nullptr);
  EXPECT_NE(loaded->gamma_table(), nullptr);
}

TEST_F(SerializationTest, FileWithoutIndexRejectsIndexOptions) {
  SearchOptions no_index = Options();
  no_index.use_index = false;
  TopKSearcher original(graph_, no_index);
  original.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(original, path_).ok());
  const auto loaded = LoadSearcherIndex(graph_, Options(), path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, LoadSkipsStructuresTheOptionsDisable) {
  // A full index loaded under options without the L2 bound (or without
  // the candidate index) holds exactly what a fresh build under those
  // options holds, and answers identically.
  TopKSearcher full(graph_, Options());
  full.BuildIndex();
  ASSERT_TRUE(SaveSearcherIndex(full, path_).ok());
  SearchOptions no_l2 = Options();
  no_l2.use_l2_bound = false;
  SearchOptions no_index = Options();
  no_index.use_index = false;
  for (const SearchOptions& options : {no_l2, no_index}) {
    TopKSearcher fresh(graph_, options);
    fresh.BuildIndex();
    auto loaded = LoadSearcherIndex(graph_, options, path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->gamma_table() == nullptr, !options.use_l2_bound);
    EXPECT_EQ(loaded->candidate_index() == nullptr, !options.use_index);
    EXPECT_EQ(loaded->PreprocessBytes(), fresh.PreprocessBytes());
    for (Vertex u = 0; u < graph_.NumVertices(); u += 17) {
      const auto a = fresh.Query(u).top;
      const auto b = loaded->Query(u).top;
      ASSERT_EQ(a.size(), b.size()) << u;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].vertex, b[i].vertex) << u;
        EXPECT_EQ(a[i].score, b[i].score) << u;
      }
    }
  }
}

TEST_F(SerializationTest, RejectsFormatOneFileByName) {
  // A format-1 file (magic "SRKIDX01", gamma as n * T floats) is refused
  // with a status naming the format and the fix, not a CHECK failure.
  const Vertex n = graph_.NumVertices();
  const SearchOptions options = Options();
  {
    BinaryWriter writer(path_);
    writer.Write<uint64_t>(0x53524b49'44583031ULL);
    writer.Write<uint64_t>(n);
    writer.Write<uint64_t>(graph_.NumEdges());
    writer.Write<double>(options.simrank.decay);
    writer.Write<uint32_t>(options.simrank.num_steps);
    writer.Write<uint32_t>(1u);  // gamma only
    writer.WriteVector(std::vector<double>(n, 1.0 - options.simrank.decay));
    writer.WriteVector(std::vector<float>(
        static_cast<size_t>(n) * options.simrank.num_steps, 0.5f));
    ASSERT_TRUE(writer.Finish().ok());
  }
  SearchOptions gamma_only = options;
  gamma_only.use_index = false;
  const auto loaded = LoadSearcherIndex(graph_, gamma_only, path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("format-1"), std::string::npos)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("preprocess"), std::string::npos)
      << loaded.status().ToString();
}

// ---------- BinaryWriter / BinaryReader ----------

TEST(BinaryIoTest, RoundTripsScalarsAndVectors) {
  const std::string path = testing::ScratchPath("bin_roundtrip");
  {
    BinaryWriter writer(path);
    writer.Write<uint32_t>(42);
    writer.Write<double>(3.5);
    writer.WriteVector(std::vector<uint16_t>{1, 2, 3});
    writer.WriteVector(std::vector<float>{});
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  uint32_t a = 0;
  double b = 0;
  std::vector<uint16_t> v;
  std::vector<float> empty{1.0f};
  EXPECT_TRUE(reader.Read(a));
  EXPECT_TRUE(reader.Read(b));
  EXPECT_TRUE(reader.ReadVector(v));
  EXPECT_TRUE(reader.ReadVector(empty));
  EXPECT_EQ(a, 42u);
  EXPECT_DOUBLE_EQ(b, 3.5);
  EXPECT_EQ(v, (std::vector<uint16_t>{1, 2, 3}));
  EXPECT_TRUE(empty.empty());
  // Reading past the end fails cleanly.
  uint8_t extra;
  EXPECT_FALSE(reader.Read(extra));
  EXPECT_FALSE(reader.ok());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, SkipVectorConsumesOneVectorUnderTheSameChecks) {
  const std::string path = testing::ScratchPath("bin_skip");
  {
    BinaryWriter writer(path);
    writer.WriteVector(std::vector<uint16_t>{1, 2, 3});
    writer.Write<uint32_t>(7);
    writer.Write<uint64_t>(1000);  // claims more than the file has left
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  uint32_t after = 0;
  EXPECT_TRUE(reader.SkipVector<uint16_t>());
  EXPECT_TRUE(reader.Read(after));
  EXPECT_EQ(after, 7u);
  EXPECT_FALSE(reader.SkipVector<uint16_t>());
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, ImplausibleVectorLengthIsCorruption) {
  const std::string path = testing::ScratchPath("bin_huge");
  {
    BinaryWriter writer(path);
    writer.Write<uint64_t>(~0ull);  // absurd length prefix
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  std::vector<double> v;
  EXPECT_FALSE(reader.ReadVector(v));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, WriterToBadPathFails) {
  BinaryWriter writer("/nonexistent/dir/file.bin");
  writer.Write<int>(1);
  EXPECT_FALSE(writer.Finish().ok());
}

}  // namespace
}  // namespace simrank
