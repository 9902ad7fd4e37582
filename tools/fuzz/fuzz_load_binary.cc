// Fuzz harness for the binary loaders: arbitrary bytes staged to a file
// must produce a clean non-OK Status (or a valid graph) from LoadBinary,
// and BinaryReader must never crash, hang, or attempt a giant allocation
// no matter what the length prefixes claim. This is the generative
// complement to tests/test_corruption_fuzz.cc, which only sweeps
// truncations and single-byte flips of valid files.
//
// Two build modes (tools/fuzz/CMakeLists.txt):
//   clang:  a real libFuzzer target (-fsanitize=fuzzer,address); run it
//           with a corpus directory to fuzz, or with file arguments to
//           replay. `cmake --preset fuzz` builds this mode.
//   gcc:    SIMRANK_FUZZ_STANDALONE — no fuzzing engine in the toolchain,
//           so main() replays every file in the given corpus
//           directories/files through the same LLVMFuzzerTestOneInput.
//           The fuzz_smoke ctest uses this so the harness itself is
//           exercised on every platform.
//
// `--make-corpus DIR` (both modes) writes the seed corpus: a valid graph
// binary plus structured corruptions of it (bad magic, huge vertex count,
// truncations) and degenerate inputs. CI's fuzz job seeds from here.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace {

// One scratch file per process, rewritten for every input: the loaders
// take paths, not buffers.
const std::string& ScratchPath() {
  static const std::string path = [] {
    char templ[] = "/tmp/simrank_fuzz_XXXXXX";
    const int fd = ::mkstemp(templ);
    if (fd >= 0) ::close(fd);
    return std::string(templ);
  }();
  return path;
}

bool WriteScratch(const uint8_t* data, size_t size) {
  std::FILE* file = std::fopen(ScratchPath().c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok =
      size == 0 || std::fwrite(data, 1, size, file) == size;
  return ok && std::fclose(file) == 0;
}

void DriveBinaryReader(const std::string& path) {
  simrank::BinaryReader reader(path);
  uint64_t magic = 0;
  if (!reader.Read(magic)) return;
  // Mirror the index-loader access pattern: header scalars, then
  // length-prefixed vectors with a sane cap. A corrupt length prefix must
  // fail here, never allocate.
  uint32_t steps = 0;
  double decay = 0.0;
  (void)reader.Read(steps);
  (void)reader.Read(decay);
  std::vector<uint32_t> ids;
  std::vector<double> scores;
  if (reader.ReadVector(ids, /*max_bytes=*/1 << 20)) {
    (void)reader.ReadVector(scores, /*max_bytes=*/1 << 20);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (!WriteScratch(data, size)) return 0;
  const auto graph = simrank::LoadBinary(ScratchPath());
  if (graph.ok()) {
    // A parsed graph must be internally consistent enough to walk.
    const simrank::DirectedGraph& g = *graph;
    uint64_t edges = 0;
    for (simrank::Vertex u = 0; u < g.NumVertices(); ++u) {
      edges += g.OutNeighbors(u).size();
    }
    if (edges != g.NumEdges()) __builtin_trap();
  }
  DriveBinaryReader(ScratchPath());
  return 0;
}

// --- corpus generation & standalone driver ---------------------------------

namespace {

bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), file) ==
                      bytes.size();
  return ok && std::fclose(file) == 0;
}

int MakeCorpus(const std::string& dir) {
  simrank::Rng rng(7);
  const simrank::DirectedGraph graph = simrank::MakeErdosRenyi(32, 128, rng);
  const std::string valid_path = dir + "/valid.bin";
  if (!simrank::SaveBinary(graph, valid_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", valid_path.c_str());
    return 1;
  }
  const simrank::Result<std::string> read = simrank::ReadFile(valid_path);
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
    return 1;
  }
  const std::string& valid = *read;

  bool ok = true;
  // Structural corruptions of the valid file: these are the interesting
  // starting points a mutation engine refines.
  std::string bad_magic = valid;
  for (size_t i = 0; i < 8 && i < bad_magic.size(); ++i) bad_magic[i] ^= 0x5A;
  ok &= WriteFileBytes(dir + "/bad_magic.bin", bad_magic);

  std::string huge_n = valid;
  if (huge_n.size() >= 16) {
    const uint64_t huge = 1ULL << 60;
    std::memcpy(&huge_n[8], &huge, sizeof(huge));
  }
  ok &= WriteFileBytes(dir + "/huge_vertex_count.bin", huge_n);

  std::string excess_m = valid;
  if (excess_m.size() >= 24) {
    const uint64_t claimed = 1ULL << 40;
    std::memcpy(&excess_m[16], &claimed, sizeof(claimed));
  }
  ok &= WriteFileBytes(dir + "/edge_count_exceeds_file.bin", excess_m);

  ok &= WriteFileBytes(dir + "/header_only.bin", valid.substr(0, 24));
  ok &= WriteFileBytes(dir + "/truncated_mid_edge.bin",
                       valid.substr(0, valid.size() - 3));
  ok &= WriteFileBytes(dir + "/empty.bin", "");
  ok &= WriteFileBytes(dir + "/single_byte.bin", "\x42");
  if (!ok) {
    std::fprintf(stderr, "cannot populate corpus in %s\n", dir.c_str());
    return 1;
  }
  std::printf("wrote seed corpus (8 files) to %s\n", dir.c_str());
  return 0;
}

}  // namespace

#if defined(SIMRANK_FUZZ_STANDALONE)

#include <dirent.h>
#include <sys/stat.h>

namespace {

int ReplayFile(const std::string& path) {
  const simrank::Result<std::string> bytes = simrank::ReadFile(path);
  if (!bytes.ok()) return 0;
  (void)LLVMFuzzerTestOneInput(
      reinterpret_cast<const uint8_t*>(bytes->data()), bytes->size());
  return 1;
}

int ReplayPath(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  if (!S_ISDIR(st.st_mode)) return ReplayFile(path);
  int replayed = 0;
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) return 0;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    replayed += ReplayPath(path + "/" + name);
  }
  ::closedir(dir);
  return replayed;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "--make-corpus") {
    return MakeCorpus(argv[2]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s --make-corpus DIR | CORPUS_PATH...\n"
                 "(standalone replay driver; build with clang for real "
                 "libFuzzer mutation)\n",
                 argv[0]);
    return 2;
  }
  int replayed = 0;
  for (int i = 1; i < argc; ++i) replayed += ReplayPath(argv[i]);
  std::printf("replayed %d input(s) without a crash\n", replayed);
  return replayed > 0 ? 0 : 1;
}

#else  // libFuzzer build: the engine provides main().

// libFuzzer has no hook for corpus *generation*, so --make-corpus is
// handled before the engine parses argv.
extern "C" int LLVMFuzzerInitialize(int* argc, char*** argv) {
  if (*argc >= 3 && std::string((*argv)[1]) == "--make-corpus") {
    std::exit(MakeCorpus((*argv)[2]));
  }
  return 0;
}

#endif  // SIMRANK_FUZZ_STANDALONE
