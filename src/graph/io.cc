#include "graph/io.h"

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/builder.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/parse.h"
#include "util/serialize.h"

namespace simrank {

namespace {

constexpr uint64_t kBinaryMagic = 0x53524b47'42494e31ULL;  // "SRKGBIN1"

// What separates the fields of an edge-list line: the whitespace that is
// not a line break.
constexpr std::string_view kBlank = " \t\r\f\v";

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

Result<DirectedGraph> ParseLines(std::string_view text,
                                 const EdgeListOptions& options) {
  GraphBuilder builder;
  size_t line_number = 0;
  FieldSplitter lines(text, "\n");
  for (std::string_view line; lines.Next(line);) {
    ++line_number;
    // The first two fields are the ids; later ones (a SNAP weight
    // column) are ignored.
    std::string_view ids[2];
    size_t fields = 0;
    FieldSplitter splitter(line, kBlank);
    for (std::string_view field; fields < 2 && splitter.Next(field);) {
      if (!field.empty()) ids[fields++] = field;
    }
    // Skip blank and comment lines.
    if (fields == 0 ||
        options.comment_prefixes.find(ids[0][0]) != std::string::npos) {
      continue;
    }
    const std::optional<uint64_t> from = ParseNumber<uint64_t>(ids[0]);
    const std::optional<uint64_t> to = ParseNumber<uint64_t>(ids[1]);
    if (!from.has_value() || !to.has_value()) {
      return Status::Corruption("line " + std::to_string(line_number) +
                                ": expected " +
                                (from.has_value() ? "target" : "source") +
                                " vertex id");
    }
    if (*from > 0xFFFFFFFEULL || *to > 0xFFFFFFFEULL) {
      return Status::OutOfRange("line " + std::to_string(line_number) +
                                ": vertex id exceeds 32-bit range");
    }
    builder.AddEdge(static_cast<Vertex>(*from), static_cast<Vertex>(*to));
    if (options.symmetrize) {
      builder.AddEdge(static_cast<Vertex>(*to), static_cast<Vertex>(*from));
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
  const Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseEdgeListText(*text, options);
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
  BinaryReader reader(path);
  uint64_t magic = 0, n = 0;
  if (!reader.Read(magic)) return reader.status();
  if (magic != kBinaryMagic) {
    return Status::Corruption(path + " is not a simrank binary graph");
  }
  if (!reader.Read(n)) return reader.status();
  // The CSR build allocates O(n) regardless of how many edges the file
  // holds, so a corrupt vertex count must be rejected before it can
  // drive a multi-gigabyte allocation. 2^28 is far beyond any graph the
  // rest of the pipeline can process while keeping the worst corrupt
  // header to a few hundred MB of transient memory.
  constexpr uint64_t kMaxLoadVertices = 1ULL << 28;
  if (n > kMaxLoadVertices) {
    return Status::Corruption(path + ": vertex count out of range");
  }
  // The edge count is the vector's length prefix, which ReadVector bounds
  // by the bytes the file has left before it allocates.
  std::vector<Edge> edges;
  if (!reader.ReadVector(edges)) return reader.status();
  for (const Edge& e : edges) {
    if (e.from >= n || e.to >= n) {
      return Status::Corruption(path + ": edge endpoint out of range");
    }
  }
  DirectedGraph graph(static_cast<Vertex>(n), edges);
  RecordLoad(3 * sizeof(uint64_t) + edges.size() * sizeof(Edge), graph);
  return graph;
}

}  // namespace simrank
