#include "util/serialize.h"

#include <cerrno>
#include <cstring>

namespace simrank {

BinaryWriter::BinaryWriter(const std::string& path) : writer_(path) {}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  if (!status_.ok() || size == 0) return;
  writer_.Append(data, size);
}

Status BinaryWriter::Finish() {
  if (status_.ok()) status_ = writer_.Commit();
  return status_;
}

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

}  // namespace simrank
