#ifndef SIMRANK_UTIL_SERIALIZE_H_
#define SIMRANK_UTIL_SERIALIZE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "util/atomic_file.h"
#include "util/status.h"

namespace simrank {

/// Minimal checked binary writer. Values are written in host byte order
/// (index files are machine-local caches, not interchange formats).
///
/// The writer stages everything through util::AtomicFileWriter: nothing
/// touches `path` until Finish() commits (temp file + fsync + rename), so
/// an interrupted save never leaves a truncated file — and never clobbers
/// a good previous file — at the final path. Writes only stage bytes in
/// memory and cannot fail; Finish() commits and returns the status.
class BinaryWriter {
 public:
  explicit BinaryWriter(const std::string& path);

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  /// Writes one trivially-copyable value.
  template <typename T>
  void Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteBytes(&value, sizeof(T));
  }

  /// Writes a length-prefixed vector of trivially-copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& values) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(values.size());
    WriteBytes(values.data(), values.size() * sizeof(T));
  }

  /// Atomically publishes the staged bytes to the path and returns the
  /// final status. Must be called exactly once before destruction for the
  /// file to appear; without it nothing is written.
  Status Finish();

 private:
  void WriteBytes(const void* data, size_t size);

  AtomicFileWriter writer_;
};

/// Checked binary reader matching BinaryWriter. Read methods return false
/// (and poison the reader) on short reads.
class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path);
  ~BinaryReader();

  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  template <typename T>
  bool Read(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(&value, sizeof(T));
  }

  /// Reads a length-prefixed vector; rejects lengths implying more bytes
  /// than `max_bytes` (default 1 TiB) — or than the file has left, so a
  /// corrupt length field fails cleanly instead of attempting a giant
  /// allocation.
  template <typename T>
  bool ReadVector(std::vector<T>& values,
                  uint64_t max_bytes = 1ull << 40) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t size = 0;
    if (!ReadLength(sizeof(T), max_bytes, size)) return false;
    values.resize(size);
    return ReadBytes(values.data(), size * sizeof(T));
  }

  /// Consumes a length-prefixed vector of T without materializing it. It
  /// allocates nothing, so only the bytes the file has left bound the
  /// length.
  template <typename T>
  bool SkipVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t size = 0;
    return ReadLength(sizeof(T), ~uint64_t{0}, size) &&
           SkipBytes(size * sizeof(T));
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  /// Reads a vector's length prefix into `size` and rejects lengths whose
  /// elements would pass `max_bytes` or the bytes the file has left.
  bool ReadLength(size_t element_size, uint64_t max_bytes, uint64_t& size);
  bool ReadBytes(void* data, size_t size);
  bool SkipBytes(uint64_t size);

  std::FILE* file_;
  /// Bytes of the file not yet consumed (from the size at open).
  uint64_t remaining_ = 0;
  std::string path_;
  Status status_;
};

/// The whole content of the file at `path`: the one reader of text files
/// from outside the program (edge lists, checkpoint manifests and
/// chunks). IoError when the file cannot be opened or read.
Result<std::string> ReadFile(const std::string& path);

}  // namespace simrank

#endif  // SIMRANK_UTIL_SERIALIZE_H_
