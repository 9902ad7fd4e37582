// Tests for edge-list text parsing and binary graph snapshots, including
// malformed-input failure paths.

#include "graph/io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace simrank {
namespace {

TEST(ParseEdgeListTest, ParsesSimpleList) {
  const auto result = ParseEdgeListText("0 1\n1 2\n2 0\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumVertices(), 3u);
  EXPECT_EQ(result->NumEdges(), 3u);
  EXPECT_TRUE(result->HasEdge(2, 0));
}

TEST(ParseEdgeListTest, SkipsCommentsAndBlankLines) {
  const auto result =
      ParseEdgeListText("# SNAP header\n% another style\n\n  \n0 1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumEdges(), 1u);
}

TEST(ParseEdgeListTest, HandlesTabsAndPadding) {
  const auto result = ParseEdgeListText("  0\t1 \n\t2   3\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->HasEdge(0, 1));
  EXPECT_TRUE(result->HasEdge(2, 3));
}

TEST(ParseEdgeListTest, SymmetrizeAddsReverseEdges) {
  EdgeListOptions options;
  options.symmetrize = true;
  const auto result = ParseEdgeListText("0 1\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->HasEdge(0, 1));
  EXPECT_TRUE(result->HasEdge(1, 0));
}

TEST(ParseEdgeListTest, DeduplicationIsOptional) {
  EdgeListOptions options;
  options.deduplicate = false;
  const auto result = ParseEdgeListText("0 1\n0 1\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumEdges(), 2u);
}

TEST(ParseEdgeListTest, IgnoresFieldsAfterTheIds) {
  // SNAP files may carry a weight column.
  const auto result = ParseEdgeListText("1 2 0.5\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->NumEdges(), 1u);
  EXPECT_TRUE(result->HasEdge(1, 2));
}

TEST(ParseEdgeListTest, RejectsGarbage) {
  const auto result = ParseEdgeListText("0 1\nfoo bar\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // The error names the offending line.
  EXPECT_NE(result.status().message().find("line 2"), std::string::npos);
}

TEST(ParseEdgeListTest, RejectsMissingTarget) {
  const auto result = ParseEdgeListText("5\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(ParseEdgeListTest, RejectsHugeVertexIds) {
  const auto result = ParseEdgeListText("0 123456789012345\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(LoadEdgeListTest, MissingFileIsIoError) {
  const auto result = LoadEdgeListText("/nonexistent/nope.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(EdgeListRoundTripTest, SaveThenLoadPreservesGraph) {
  Rng rng(77);
  const DirectedGraph original = MakeErdosRenyi(50, 200, rng);
  const std::string path = testing::ScratchPath("roundtrip.txt");
  ASSERT_TRUE(SaveEdgeListText(original, path).ok());
  const auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVertices(), original.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  for (const Edge& e : original.Edges()) {
    EXPECT_TRUE(loaded->HasEdge(e.from, e.to));
  }
  std::remove(path.c_str());
}

TEST(BinaryRoundTripTest, SaveThenLoadPreservesGraph) {
  Rng rng(78);
  const DirectedGraph original = MakeBarabasiAlbert(120, 3, rng);
  const std::string path = testing::ScratchPath("roundtrip.bin");
  ASSERT_TRUE(SaveBinary(original, path).ok());
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->NumVertices(), original.NumVertices());
  EXPECT_EQ(loaded->NumEdges(), original.NumEdges());
  for (const Edge& e : original.Edges()) {
    EXPECT_TRUE(loaded->HasEdge(e.from, e.to));
  }
  std::remove(path.c_str());
}

TEST(BinaryRoundTripTest, EmptyGraph) {
  const DirectedGraph empty(3, {});
  const std::string path = testing::ScratchPath("empty.bin");
  ASSERT_TRUE(SaveBinary(empty, path).ok());
  const auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumVertices(), 3u);
  EXPECT_EQ(loaded->NumEdges(), 0u);
  std::remove(path.c_str());
}

TEST(BinaryLoadTest, RejectsWrongMagic) {
  const std::string path = testing::ScratchPath("bad_magic.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[64] = "this is definitely not a graph";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  const auto loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryLoadTest, RejectsTruncatedFile) {
  Rng rng(79);
  const DirectedGraph graph = MakeErdosRenyi(20, 60, rng);
  const std::string path = testing::ScratchPath("truncated.bin");
  ASSERT_TRUE(SaveBinary(graph, path).ok());
  // Truncate to half size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[4096];
  const size_t got = std::fread(buffer, 1, sizeof(buffer), f);
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(buffer, 1, got / 2, f);
  std::fclose(f);
  const auto loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(BinaryLoadTest, MissingFileIsIoError) {
  const auto loaded = LoadBinary("/nonexistent/nope.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace simrank
