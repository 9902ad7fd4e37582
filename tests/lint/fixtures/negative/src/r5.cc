// Fixture: rule R5 must stay quiet — every durable IO site (atomic
// writer, stdio loader, binary writer/reader, whole-file reader) carries
// a SIMRANK_FAULT_POINT within the window.
#include <cstdint>
#include <cstdio>
#include <string>

#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/serialize.h"
#include "util/status.h"

simrank::Status SaveReport(const std::string& path, const std::string& body) {
  SIMRANK_FAULT_POINT("fixture.save");
  simrank::AtomicFileWriter writer(path);
  writer.Append(body);
  return writer.Commit();
}

simrank::Status LoadReport(const std::string& path, std::string& out) {
  SIMRANK_FAULT_POINT("fixture.load");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return simrank::Status::IoError("cannot open " + path);
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out.append(buf, got);
  }
  std::fclose(file);
  return simrank::Status::OK();
}

simrank::Status SaveIndex(const std::string& path, uint64_t magic) {
  SIMRANK_FAULT_POINT("fixture.index.save");
  simrank::BinaryWriter writer(path);
  writer.Write(magic);
  return writer.Finish();
}

simrank::Status LoadIndex(const std::string& path, uint64_t& magic) {
  SIMRANK_FAULT_POINT("fixture.index.load");
  simrank::BinaryReader reader(path);
  if (!reader.Read(magic)) return reader.status();
  return simrank::Status::OK();
}

simrank::Result<std::string> LoadText(const std::string& path) {
  SIMRANK_FAULT_POINT("fixture.text.load");
  return simrank::ReadFile(path);
}
