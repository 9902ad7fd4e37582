#include "simrank/serialization.h"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/fault_injection.h"
#include "util/serialize.h"

namespace simrank {

namespace {

// Format 2 stores the gamma table as 16-bit codes of steps 1..T-1.
constexpr uint64_t kIndexMagic = 0x53524b49'44583032ULL;  // "SRKIDX02"
// Format 1 stored it as n * T floats; it is recognized only to reject it.
constexpr uint64_t kIndexMagicFormat1 = 0x53524b49'44583031ULL;  // "SRKIDX01"

// Flag bits recording which structures the file contains.
constexpr uint32_t kHasGamma = 1u << 0;
constexpr uint32_t kHasCandidateIndex = 1u << 1;

}  // namespace

Status SaveSearcherIndex(const TopKSearcher& searcher,
                         const std::string& path) {
  if (!searcher.index_built()) {
    return Status::InvalidArgument(
        "searcher index not built; call BuildIndex() first");
  }
  const DirectedGraph& graph = searcher.graph();
  const SearchOptions& options = searcher.options();
  SIMRANK_FAULT_POINT("searcher.index.save");
  BinaryWriter writer(path);
  writer.Write(kIndexMagic);
  writer.Write<uint64_t>(graph.NumVertices());
  writer.Write<uint64_t>(graph.NumEdges());
  writer.Write<double>(options.simrank.decay);
  writer.Write<uint32_t>(options.simrank.num_steps);
  uint32_t flags = 0;
  if (searcher.gamma_table() != nullptr) flags |= kHasGamma;
  if (searcher.candidate_index() != nullptr) flags |= kHasCandidateIndex;
  writer.Write(flags);
  writer.WriteVector(searcher.diagonal());
  if (const GammaTable* gamma = searcher.gamma_table(); gamma != nullptr) {
    writer.WriteVector(gamma->codes());
  }
  if (const CandidateIndex* index = searcher.candidate_index();
      index != nullptr) {
    writer.WriteVector(index->hub_offsets());
    writer.WriteVector(index->hubs());
  }
  return writer.Finish();
}

Result<TopKSearcher> LoadSearcherIndex(const DirectedGraph& graph,
                                       const SearchOptions& options,
                                       const std::string& path) {
  SIMRANK_FAULT_POINT("searcher.index.load");
  BinaryReader reader(path);
  uint64_t magic = 0, num_vertices = 0, num_edges = 0;
  double decay = 0.0;
  uint32_t num_steps = 0, flags = 0;
  if (!reader.Read(magic)) return reader.status();
  if (magic == kIndexMagicFormat1) {
    return Status::InvalidArgument(
        path + " is a format-1 simrank index, which this build no longer "
               "reads; re-run `preprocess` to rebuild it in format 2");
  }
  if (magic != kIndexMagic) {
    return Status::Corruption(path + " is not a simrank index file");
  }
  if (!reader.Read(num_vertices) || !reader.Read(num_edges) ||
      !reader.Read(decay) || !reader.Read(num_steps) ||
      !reader.Read(flags)) {
    return reader.status();
  }
  if (num_vertices != graph.NumVertices() || num_edges != graph.NumEdges()) {
    return Status::InvalidArgument(
        path + " was built for a different graph (n/m mismatch)");
  }
  if (decay != options.simrank.decay ||
      num_steps != options.simrank.num_steps) {
    return Status::InvalidArgument(
        path + " was built with different SimRank parameters");
  }
  if (options.use_l2_bound && (flags & kHasGamma) == 0) {
    return Status::InvalidArgument(
        path + " has no gamma table but options.use_l2_bound is set");
  }
  if (options.use_index && (flags & kHasCandidateIndex) == 0) {
    return Status::InvalidArgument(
        path + " has no candidate index but options.use_index is set");
  }
  std::vector<double> diagonal;
  if (!reader.ReadVector(diagonal)) return reader.status();
  if (diagonal.size() != graph.NumVertices()) {
    return Status::Corruption(path + ": diagonal size mismatch");
  }
  // Payloads the options disable are skipped, not kept: no query would
  // read them.
  std::unique_ptr<GammaTable> gamma;
  if ((flags & kHasGamma) != 0 && !options.use_l2_bound) {
    if (!reader.SkipVector<uint16_t>()) return reader.status();
  } else if ((flags & kHasGamma) != 0) {
    std::vector<uint16_t> codes;
    if (!reader.ReadVector(codes)) return reader.status();
    if (codes.size() != static_cast<size_t>(num_vertices) * (num_steps - 1)) {
      return Status::Corruption(path + ": gamma table size mismatch");
    }
    gamma = std::make_unique<GammaTable>(
        GammaTable::FromCodes(diagonal, num_steps, decay, std::move(codes)));
  }
  std::unique_ptr<CandidateIndex> index;
  if ((flags & kHasCandidateIndex) != 0 && !options.use_index) {
    if (!reader.SkipVector<uint64_t>() || !reader.SkipVector<Vertex>()) {
      return reader.status();
    }
  } else if ((flags & kHasCandidateIndex) != 0) {
    std::vector<uint64_t> offsets;
    std::vector<Vertex> hubs;
    if (!reader.ReadVector(offsets) || !reader.ReadVector(hubs)) {
      return reader.status();
    }
    if (offsets.size() != num_vertices + 1 || offsets.front() != 0 ||
        offsets.back() != hubs.size()) {
      return Status::Corruption(path + ": candidate index CSR mismatch");
    }
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      if (offsets[i] > offsets[i + 1]) {
        return Status::Corruption(path + ": non-monotone index offsets");
      }
    }
    for (Vertex hub : hubs) {
      if (hub >= num_vertices) {
        return Status::Corruption(path + ": index hub out of range");
      }
    }
    index = std::make_unique<CandidateIndex>(CandidateIndex::FromCsr(
        static_cast<Vertex>(num_vertices), std::move(offsets),
        std::move(hubs)));
  }
  TopKSearcher searcher(graph, options, std::move(diagonal));
  searcher.AdoptPrebuiltIndex(std::move(gamma), std::move(index));
  return searcher;
}

}  // namespace simrank
