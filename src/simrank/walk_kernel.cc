#include "simrank/walk_kernel.h"

#include <cstddef>

namespace simrank {

// Each loop below reads a vertex's offset row through `offsets + v` (both
// bounds from one base address) and takes its in-degree as 32 bits, like
// DirectedGraph::InDegree; checking that degree for zero first also lets
// the compiler drop UniformIndex's bound check.
//
// Every loop draws through a local copy of the generator: with the state
// behind the caller's reference, the compiler must round-trip all four
// xoshiro words through memory every iteration (the position stores could
// alias it), which puts a store-forward on the serial draw chain — the
// critical path of the loop.

uint32_t AdvanceWalksCompact(const DirectedGraph& graph,
                             std::span<Vertex> positions, uint32_t live,
                             Rng& rng) {
  SIMRANK_CHECK_LE(live, positions.size());
  const uint64_t* offsets = graph.InOffsetsData();
  const Vertex* targets = graph.InTargetsData();
  Vertex* slots = positions.data();
  Rng local_rng = rng;
  uint32_t i = 0;
  while (i < live) {
    const uint64_t* row = offsets + slots[i];
    const auto degree = static_cast<uint32_t>(row[1] - row[0]);
    if (degree == 0) {
      // The walk dies: the last live walk takes its slot and is stepped
      // next.
      --live;
      slots[i] = slots[live];
      slots[live] = kNoVertex;
      continue;
    }
    slots[i] = targets[row[0] + local_rng.UniformIndex(degree)];
    ++i;
  }
  rng = local_rng;
  return live;
}

uint32_t StepWalksInPlace(const DirectedGraph& graph,
                          std::span<Vertex> positions, Rng& rng) {
  const uint64_t* offsets = graph.InOffsetsData();
  const Vertex* targets = graph.InTargetsData();
  Rng local_rng = rng;
  uint32_t alive = 0;
  for (Vertex& position : positions) {
    if (position == kNoVertex) continue;
    const uint64_t* row = offsets + position;
    const auto degree = static_cast<uint32_t>(row[1] - row[0]);
    if (degree == 0) {
      position = kNoVertex;
      continue;
    }
    position = targets[row[0] + local_rng.UniformIndex(degree)];
    ++alive;
  }
  rng = local_rng;
  return alive;
}

void SampleInNeighbors(const DirectedGraph& graph,
                       std::span<const Vertex> vertices, Rng& rng,
                       Vertex* out) {
  const uint64_t* offsets = graph.InOffsetsData();
  const Vertex* targets = graph.InTargetsData();
  Rng local_rng = rng;
  // Safe under vertices == out: slot i is read before out[i] is written.
  for (size_t i = 0; i < vertices.size(); ++i) {
    const Vertex v = vertices[i];
    Vertex next = kNoVertex;
    if (v != kNoVertex) {
      const uint64_t* row = offsets + v;
      const auto degree = static_cast<uint32_t>(row[1] - row[0]);
      if (degree != 0) next = targets[row[0] + local_rng.UniformIndex(degree)];
    }
    out[i] = next;
  }
  rng = local_rng;
}

}  // namespace simrank
