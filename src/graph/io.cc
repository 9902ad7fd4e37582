#include "graph/io.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"

namespace simrank {

namespace {

constexpr uint64_t kBinaryMagic = 0x53524b47'42494e31ULL;  // "SRKGBIN1"

// IO metrics: how much graph data moved through this process, and in how
// many loads — enough to see when a bench spends its time parsing instead
// of searching.
void RecordLoad(uint64_t bytes, const DirectedGraph& graph) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("io.graphs_loaded").Add(1);
  registry.GetCounter("io.bytes_read").Add(bytes);
  registry.GetCounter("io.edges_loaded").Add(graph.NumEdges());
}

void RecordSave(uint64_t bytes) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetCounter("io.graphs_saved").Add(1);
  registry.GetCounter("io.bytes_written").Add(bytes);
}

// Parses one edge line into (from, to). Returns false for blank lines.
Status ParseLine(const char* line, size_t line_number, bool& has_edge,
                 uint64_t& from, uint64_t& to) {
  has_edge = false;
  const char* p = line;
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  if (*p == '\0' || *p == '\n') return Status::OK();
  char* end = nullptr;
  errno = 0;
  from = std::strtoull(p, &end, 10);
  if (end == p || errno == ERANGE) {
    return Status::Corruption("line " + std::to_string(line_number) +
                              ": expected source vertex id");
  }
  p = end;
  while (*p == ' ' || *p == '\t') ++p;
  errno = 0;
  to = std::strtoull(p, &end, 10);
  if (end == p || errno == ERANGE) {
    return Status::Corruption("line " + std::to_string(line_number) +
                              ": expected target vertex id");
  }
  if (from > 0xFFFFFFFEULL || to > 0xFFFFFFFEULL) {
    return Status::OutOfRange("line " + std::to_string(line_number) +
                              ": vertex id exceeds 32-bit range");
  }
  has_edge = true;
  return Status::OK();
}

Result<DirectedGraph> ParseLines(const std::string& text,
                                 const EdgeListOptions& options) {
  GraphBuilder builder;
  size_t line_number = 0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    ++line_number;
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    // Skip comment lines.
    size_t first = line.find_first_not_of(" \t\r");
    if (first != std::string::npos &&
        options.comment_prefixes.find(line[first]) != std::string::npos) {
      continue;
    }
    bool has_edge = false;
    uint64_t from = 0, to = 0;
    Status st = ParseLine(line.c_str(), line_number, has_edge, from, to);
    if (!st.ok()) return st;
    if (!has_edge) continue;
    builder.AddEdge(static_cast<Vertex>(from), static_cast<Vertex>(to));
    if (options.symmetrize) {
      builder.AddEdge(static_cast<Vertex>(to), static_cast<Vertex>(from));
    }
  }
  if (options.deduplicate) builder.Deduplicate();
  return builder.Build();
}

}  // namespace

Result<DirectedGraph> ParseEdgeListText(const std::string& text,
                                        const EdgeListOptions& options) {
  Result<DirectedGraph> result = ParseLines(text, options);
  if (result.ok()) RecordLoad(text.size(), *result);
  return result;
}

Result<DirectedGraph> LoadEdgeListText(const std::string& path,
                                       const EdgeListOptions& options) {
  SIMRANK_FAULT_POINT("io.load_edgelist");
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
  Result<DirectedGraph> result = ParseLines(text, options);
  if (result.ok()) RecordLoad(text.size(), *result);
  return result;
}

Status SaveEdgeListText(const DirectedGraph& graph, const std::string& path) {
  SIMRANK_FAULT_POINT("io.save_edgelist");
  AtomicFileWriter writer(path);
  char line[64];
  int len = std::snprintf(
      line, sizeof(line), "# simrank edge list: n=%u m=%llu\n",
      graph.NumVertices(), static_cast<unsigned long long>(graph.NumEdges()));
  writer.Append(line, static_cast<size_t>(len));
  for (Vertex u = 0; u < graph.NumVertices(); ++u) {
    for (Vertex v : graph.OutNeighbors(u)) {
      len = std::snprintf(line, sizeof(line), "%u %u\n", u, v);
      writer.Append(line, static_cast<size_t>(len));
    }
  }
  const uint64_t bytes = writer.size();
  SIMRANK_RETURN_IF_ERROR(writer.Commit());
  RecordSave(bytes);
  return Status::OK();
}

Status SaveBinary(const DirectedGraph& graph, const std::string& path) {
  SIMRANK_FAULT_POINT("io.save_binary");
  AtomicFileWriter writer(path);
  const uint64_t n = graph.NumVertices();
  const uint64_t m = graph.NumEdges();
  writer.AppendValue(kBinaryMagic);
  writer.AppendValue(n);
  writer.AppendValue(m);
  const std::vector<Edge> edges = graph.Edges();
  if (m > 0) {
    writer.Append(edges.data(), edges.size() * sizeof(Edge));
  }
  const uint64_t bytes = writer.size();
  SIMRANK_RETURN_IF_ERROR(writer.Commit());
  RecordSave(bytes);
  return Status::OK();
}

Result<DirectedGraph> LoadBinary(const std::string& path) {
  SIMRANK_FAULT_POINT("io.load_binary");
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  uint64_t magic = 0, n = 0, m = 0;
  bool ok = std::fread(&magic, sizeof(magic), 1, file) == 1 &&
            std::fread(&n, sizeof(n), 1, file) == 1 &&
            std::fread(&m, sizeof(m), 1, file) == 1;
  if (!ok || magic != kBinaryMagic) {
    std::fclose(file);
    return Status::Corruption(path + " is not a simrank binary graph");
  }
  // The CSR build allocates O(n) regardless of how many edges the file
  // holds, so a corrupt vertex count must be rejected before it can
  // drive a multi-gigabyte allocation. 2^28 is far beyond any graph the
  // rest of the pipeline can process while keeping the worst corrupt
  // header to a few hundred MB of transient memory.
  constexpr uint64_t kMaxLoadVertices = 1ULL << 28;
  if (n > kMaxLoadVertices) {
    std::fclose(file);
    return Status::Corruption(path + ": vertex count out of range");
  }
  // Bound the edge count by what the file can actually hold before
  // allocating: a corrupt count must fail cleanly, not attempt a giant
  // allocation.
  const long data_start = std::ftell(file);
  std::fseek(file, 0, SEEK_END);
  const long file_end = std::ftell(file);
  std::fseek(file, data_start, SEEK_SET);
  const uint64_t available =
      file_end > data_start ? static_cast<uint64_t>(file_end - data_start)
                            : 0;
  if (m > available / sizeof(Edge)) {
    std::fclose(file);
    return Status::Corruption(path + ": truncated edge array");
  }
  std::vector<Edge> edges(m);
  if (m > 0 && std::fread(edges.data(), sizeof(Edge), m, file) != m) {
    std::fclose(file);
    return Status::Corruption(path + ": truncated edge array");
  }
  std::fclose(file);
  for (const Edge& e : edges) {
    if (e.from >= n || e.to >= n) {
      return Status::Corruption(path + ": edge endpoint out of range");
    }
  }
  DirectedGraph graph(static_cast<Vertex>(n), edges);
  RecordLoad(3 * sizeof(uint64_t) + m * sizeof(Edge), graph);
  return graph;
}

}  // namespace simrank
