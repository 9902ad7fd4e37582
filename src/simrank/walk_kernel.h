#ifndef SIMRANK_SIMRANK_WALK_KERNEL_H_
#define SIMRANK_SIMRANK_WALK_KERNEL_H_

// In-link random-walk kernel: the path every Monte-Carlo estimator in
// this library bottoms out in (Algorithms 1-4 all reduce to stepping R
// walks T times through RandomInNeighbor).
//
// Each entry point is one fused scalar loop over the graph's own in-CSR
// (DirectedGraph::InOffsetsData / InTargetsData): per live walk, load the
// offset row, draw one Lemire bounded index, load one target. The Rng runs
// in a local copy for the duration of the loop, so its four state words
// stay in registers instead of round-tripping memory on the serial draw
// chain (the position stores could otherwise alias the caller's Rng).
//
// Two stepping disciplines are offered:
//
//  - AdvanceWalksCompact keeps the live walks in a contiguous prefix:
//    a walk that dies (in-degree-0 vertex) is swap-compacted behind the
//    prefix, so subsequent steps loop over live walks only and never
//    rescan tombstones. WalkSet is built on this.
//  - StepWalksInPlace preserves slots (dead walks become kNoVertex in
//    place) for consumers that key state to the slot index, e.g. the
//    witness-walk matrix of Algorithm 4 and the coupled walk pairs of the
//    surfer-pair baseline.
//
// Determinism: draws are consumed in slot order, one per surviving walk,
// so a fixed Rng stream fixes every trajectory.
//
// docs/PERFORMANCE.md records the design and the measurements.

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/rng.h"

namespace simrank {

/// Advances every walk in positions[0, live) one in-link step. Walks
/// standing on an in-degree-0 vertex die: they are swapped behind the live
/// prefix and their slot is set to kNoVertex, so positions[0, new_live)
/// stays fully live and contiguous. Returns the new live count.
///
/// positions[live, positions.size()) is untouched (presumed kNoVertex from
/// earlier compactions).
uint32_t AdvanceWalksCompact(const DirectedGraph& graph,
                             std::span<Vertex> positions, uint32_t live,
                             Rng& rng);

/// Advances every live walk (!= kNoVertex) in positions one in-link step,
/// keeping each walk in its slot; walks that die are set to kNoVertex in
/// place. Returns the number of walks still alive. Use when slot identity
/// carries meaning (witness matrices, coupled pairs); prefer
/// AdvanceWalksCompact when it does not.
uint32_t StepWalksInPlace(const DirectedGraph& graph,
                          std::span<Vertex> positions, Rng& rng);

/// Single-step sampling for index builds: for each i, writes a uniform
/// random in-neighbor of vertices[i] into out[i] (kNoVertex when the
/// vertex has no in-links). One draw per vertex with in-degree > 0, in
/// slot order. vertices and out may alias.
void SampleInNeighbors(const DirectedGraph& graph,
                       std::span<const Vertex> vertices, Rng& rng,
                       Vertex* out);

}  // namespace simrank

#endif  // SIMRANK_SIMRANK_WALK_KERNEL_H_
