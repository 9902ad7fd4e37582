// Tests for index persistence: save/load round trips, compatibility
// validation, and corruption handling.

#include "simrank/serialization.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

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

  auto loaded = LoadSearcherIndex(graph_, Options(), path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->index_built());
  EXPECT_EQ(loaded->PreprocessBytes(), original.PreprocessBytes());
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
