// util::AtomicFileWriter: all-or-nothing visibility at the final path,
// retry of transient (injected) failures, fast-fail on permanent errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"

namespace simrank {
namespace {

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

class AtomicFileTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Default().Clear(); }
};

TEST_F(AtomicFileTest, CommitWritesStagedContent) {
  const std::string path = testing::ScratchPath("atomic_basic.txt");
  std::remove(path.c_str());
  AtomicFileWriter writer(path);
  writer.Append("hello ");
  writer.Append(std::string_view("world"));
  EXPECT_EQ(writer.size(), 11u);
  // Nothing is visible before Commit.
  EXPECT_FALSE(Exists(path));
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "hello world");
  EXPECT_FALSE(Exists(writer.temp_path()));
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, AppendValueWritesRawBytes) {
  const std::string path = testing::ScratchPath("atomic_value.bin");
  AtomicFileWriter writer(path);
  const uint32_t value = 0x01020304;
  writer.AppendValue(value);
  ASSERT_TRUE(writer.Commit().ok());
  const std::string bytes = Slurp(path);
  ASSERT_EQ(bytes.size(), sizeof(value));
  uint32_t round_trip = 0;
  std::memcpy(&round_trip, bytes.data(), sizeof(round_trip));
  EXPECT_EQ(round_trip, value);
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, EmptyCommitCreatesEmptyFile) {
  const std::string path = testing::ScratchPath("atomic_empty.txt");
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(Exists(path));
  EXPECT_EQ(Slurp(path), "");
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, CommitReplacesExistingFileAtomically) {
  const std::string path = testing::ScratchPath("atomic_replace.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old content").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "new").ok());
  EXPECT_EQ(Slurp(path), "new");
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, MissingDirectoryFailsFastWithIoError) {
  AtomicFileWriter::Options options;
  options.max_attempts = 4;
  options.initial_backoff_seconds = 10.0;  // a retry would hang the test
  AtomicFileWriter writer("/nonexistent/dir/file.txt", options);
  writer.Append("x");
  const Status status = writer.Commit();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// These two arm faults at sites a fault-injection-off build compiles out.
#ifdef SIMRANK_FAULT_INJECTION
TEST_F(AtomicFileTest, TransientInjectedFailuresAreRetriedAway) {
  const std::string path = testing::ScratchPath("atomic_retry.txt");
  std::remove(path.c_str());
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  fault::SiteConfig config;
  config.on_hit = 1;  // only the first attempt fails
  injector.Arm("io.atomic.write", config);
  AtomicFileWriter::Options options;
  options.initial_backoff_seconds = 0.0001;
  AtomicFileWriter writer(path, options);
  writer.Append("survived");
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "survived");
  EXPECT_GE(injector.InjectedCount("io.atomic.write"), 1u);
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, ExhaustedRetriesSurfaceTheErrorAndLeaveTargetAlone) {
  const std::string path = testing::ScratchPath("atomic_exhausted.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "previous durable state").ok());
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  fault::SiteConfig config;
  config.probability = 1.0;  // every attempt fails
  injector.Arm("io.atomic.sync", config);
  AtomicFileWriter::Options options;
  options.max_attempts = 3;
  options.initial_backoff_seconds = 0.0001;
  AtomicFileWriter writer(path, options);
  writer.Append("must never land");
  const Status status = writer.Commit();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  // The previous file is untouched and no temp litter remains.
  EXPECT_EQ(Slurp(path), "previous durable state");
  EXPECT_FALSE(Exists(writer.temp_path()));
  EXPECT_EQ(injector.InjectedCount("io.atomic.sync"), 3u);
  std::remove(path.c_str());
}
#endif  // SIMRANK_FAULT_INJECTION

TEST_F(AtomicFileTest, RenameFaultLeavesOldContentVisible) {
  const std::string path = testing::ScratchPath("atomic_rename_fault.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "v1").ok());
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  fault::SiteConfig config;
  config.on_hit = 1;
  injector.Arm("io.atomic.rename", config);
  AtomicFileWriter::Options options;
  options.initial_backoff_seconds = 0.0001;
  AtomicFileWriter writer(path, options);
  writer.Append("v2");
  // First attempt dies at the rename, second succeeds.
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "v2");
  std::remove(path.c_str());
}

TEST_F(AtomicFileTest, NoSyncOptionStillCommitsAtomically) {
  const std::string path = testing::ScratchPath("atomic_nosync.txt");
  AtomicFileWriter::Options options;
  options.sync = false;
  ASSERT_TRUE(AtomicWriteFile(path, "scratch", options).ok());
  EXPECT_EQ(Slurp(path), "scratch");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simrank
