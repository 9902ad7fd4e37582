// Fixture: rule R5 must fire — durable IO sites with no
// SIMRANK_FAULT_POINT in the preceding window.
#include <cstdint>
#include <string>

#include "util/atomic_file.h"
#include "util/serialize.h"
#include "util/status.h"

simrank::Status SaveReport(const std::string& path, const std::string& body) {
  simrank::AtomicFileWriter writer(path);
  writer.Append(body);
  return writer.Commit();
}

simrank::Status SaveIndex(const std::string& path, uint64_t magic) {
  simrank::BinaryWriter writer(path);
  writer.Write(magic);
  return writer.Finish();
}

simrank::Status LoadIndex(const std::string& path, uint64_t& magic) {
  simrank::BinaryReader reader(path);
  if (!reader.Read(magic)) return reader.status();
  return simrank::Status::OK();
}

simrank::Result<std::string> LoadText(const std::string& path) {
  return simrank::ReadFile(path);
}
