#include "util/serialize.h"

#include <cerrno>
#include <cstring>

namespace simrank {

BinaryWriter::BinaryWriter(const std::string& path) : writer_(path) {}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (size > 0) writer_.Append(data, size);
}

Status BinaryWriter::Finish() { return writer_.Commit(); }

BinaryReader::BinaryReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")), path_(path) {
  if (file_ == nullptr) {
    status_ =
        Status::IoError("cannot open " + path + ": " + std::strerror(errno));
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) == 0) {
    const long size = std::ftell(file_);
    if (size > 0) remaining_ = static_cast<uint64_t>(size);
  }
  std::rewind(file_);
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool BinaryReader::ReadLength(size_t element_size, uint64_t max_bytes,
                              uint64_t& size) {
  if (!Read(size)) return false;
  if (size > max_bytes / element_size || size > remaining_ / element_size) {
    status_ = Status::Corruption(path_ + ": implausible vector length");
    return false;
  }
  return true;
}

bool BinaryReader::SkipBytes(uint64_t size) {
  if (!status_.ok()) return false;
  // ReadLength has checked that `size` fits in the rest of the file, whose
  // length ftell reported as a long.
  if (std::fseek(file_, static_cast<long>(size), SEEK_CUR) != 0) {
    status_ = Status::IoError("cannot seek in " + path_ + ": " +
                              std::strerror(errno));
    return false;
  }
  remaining_ -= size;
  return true;
}

bool BinaryReader::ReadBytes(void* data, size_t size) {
  if (!status_.ok()) return false;
  if (size == 0) return true;
  if (std::fread(data, 1, size, file_) != size) {
    status_ = Status::Corruption(path_ + ": unexpected end of file");
    return false;
  }
  remaining_ -= size < remaining_ ? size : remaining_;
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) return Status::IoError("read error on " + path);
  return text;
}

}  // namespace simrank
