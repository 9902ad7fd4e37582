// Walk-kernel coverage: scalar equivalence (the kernel must consume the
// RNG stream exactly like the one-walk-at-a-time RandomInNeighbor loop,
// with and without dying walks), swap-compaction invariants, counted
// stepping, slot preservation, single-step sampling (including in-place
// aliasing), and determinism.

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph.h"
#include "simrank/monte_carlo.h"
#include "simrank/walk_kernel.h"
#include "test_helpers.h"
#include "util/counter.h"
#include "util/rng.h"

namespace simrank {
namespace {

// 0 -> 1 -> 2 -> 3: vertex 0 has no in-links, so every walk dies there.
DirectedGraph Chain4() {
  return testing::GraphFromEdges(4, {{0, 1}, {1, 2}, {2, 3}});
}

// 3-cycle: every vertex has exactly one in-neighbor, walks never die and
// consume no random draws beyond the (bound = 1) fast path.
DirectedGraph Cycle3() {
  return testing::GraphFromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
}

// Ring plus deterministic chords: every vertex has in-degree >= 1 by
// construction, so no walk ever dies and the kernel must match the plain
// slot-by-slot loop with no compaction at all.
DirectedGraph RingWithChords(Vertex n) {
  std::vector<Edge> edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<Vertex>((v + 1) % n)});
    edges.push_back({v, static_cast<Vertex>((v * 7 + 3) % n)});
    edges.push_back({static_cast<Vertex>((v * 13 + 5) % n), v});
  }
  return testing::GraphFromEdges(n, edges);
}

TEST(AdvanceWalksCompactTest, MatchesScalarLoopWhenNoWalkDies) {
  // No in-degree-0 vertices: the kernel draws in slot order, exactly like
  // the scalar RandomInNeighbor loop.
  const DirectedGraph graph = RingWithChords(60);
  constexpr uint32_t kWalks = 300;
  std::vector<Vertex> batched(kWalks, 0);
  std::vector<Vertex> scalar(kWalks, 0);
  Rng batched_rng(99), scalar_rng(99);
  uint32_t live = kWalks;
  for (int step = 0; step < 5; ++step) {
    live = AdvanceWalksCompact(graph, batched, live, batched_rng);
    ASSERT_EQ(live, kWalks);
    for (Vertex& p : scalar) p = graph.RandomInNeighbor(p, scalar_rng);
    EXPECT_EQ(batched, scalar) << "step " << step;
  }
}

TEST(AdvanceWalksCompactTest, CompactsDeadWalksBehindLivePrefix) {
  const DirectedGraph graph = Chain4();
  // Walks from vertex 2 survive exactly 2 steps (2 -> 1 -> 0 -> dead).
  std::vector<Vertex> positions(10, 2);
  Rng rng(7);
  uint32_t live = AdvanceWalksCompact(graph, positions, 10, rng);
  EXPECT_EQ(live, 10u);
  for (Vertex p : positions) EXPECT_EQ(p, 1u);
  live = AdvanceWalksCompact(graph, positions, live, rng);
  EXPECT_EQ(live, 10u);
  for (Vertex p : positions) EXPECT_EQ(p, 0u);
  live = AdvanceWalksCompact(graph, positions, live, rng);
  EXPECT_EQ(live, 0u);
  for (Vertex p : positions) EXPECT_EQ(p, kNoVertex);
}

TEST(AdvanceWalksCompactTest, LivePrefixInvariantOnSkewedGraph) {
  // Star center 0 with leaves: leaves' only in-neighbor is 0, 0's
  // in-neighbors are the leaves, so walks bounce and a subset dies only
  // where in-degree is 0 — extend with a dangling sink to force deaths.
  const DirectedGraph graph = testing::GraphFromEdges(
      6, {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {0, 3}, {3, 0}, {4, 5}, {0, 5}});
  std::vector<Vertex> positions(64, 5);
  Rng rng(11);
  uint32_t live = 64;
  for (int step = 0; step < 8 && live > 0; ++step) {
    live = AdvanceWalksCompact(graph, positions, live, rng);
    for (uint32_t i = 0; i < live; ++i) {
      EXPECT_NE(positions[i], kNoVertex) << "slot " << i << " in live prefix";
    }
    for (size_t i = live; i < positions.size(); ++i) {
      EXPECT_EQ(positions[i], kNoVertex) << "slot " << i << " in dead tail";
    }
  }
}

TEST(AdvanceWalksCompactTest, DeterministicForFixedSeed) {
  const DirectedGraph graph = testing::SmallRandomGraph(80, 302, 60);
  std::vector<Vertex> a(200, 3), b(200, 3);
  Rng rng_a(42), rng_b(42);
  uint32_t live_a = 200, live_b = 200;
  for (int step = 0; step < 6; ++step) {
    live_a = AdvanceWalksCompact(graph, a, live_a, rng_a);
    live_b = AdvanceWalksCompact(graph, b, live_b, rng_b);
    EXPECT_EQ(live_a, live_b);
    EXPECT_EQ(a, b);
  }
}

// The one-walk-at-a-time reference for AdvanceWalksCompact: RandomInNeighbor
// in slot order, with the kernel's compaction rule (a dying walk's slot takes
// the last live walk, which is stepped next; the vacated tail slot becomes
// kNoVertex).
uint32_t CompactingScalarReference(const DirectedGraph& graph,
                                   std::vector<Vertex>& positions,
                                   uint32_t live, Rng& rng) {
  uint32_t i = 0;
  while (i < live) {
    const Vertex next = graph.RandomInNeighbor(positions[i], rng);
    if (next == kNoVertex) {
      --live;
      positions[i] = positions[live];
      positions[live] = kNoVertex;
      continue;
    }
    positions[i] = next;
    ++i;
  }
  return live;
}

std::vector<std::pair<Vertex, uint32_t>> CounterEntries(
    const WalkCounter& counter) {
  std::vector<std::pair<Vertex, uint32_t>> entries;
  counter.ForEach([&](Vertex v, uint32_t count) {
    entries.emplace_back(v, count);
  });
  return entries;
}

TEST(AdvanceWalksCompactTest, MatchesCompactingScalarReferenceWhenWalksDie) {
  // BA backbone plus random arcs, minus every in-link of the multiples of
  // 5: a walk that steps onto one dies on its next step, so some walks die
  // at every step while the others live on.
  const Vertex n = 400;
  std::vector<Edge> edges;
  for (const Edge& e : testing::SmallRandomGraph(n, 31, 600).Edges()) {
    if (e.to % 5 != 0) edges.push_back(e);
  }
  const DirectedGraph graph = testing::GraphFromEdges(n, edges);
  constexpr uint32_t kWalks = 333;
  constexpr int kSteps = 10;
  const Vertex origins[] = {1, n / 2 + 1, n - 1};
  uint32_t partial_deaths = 0;  // steps where some, but not all, walks died
  for (Vertex origin : origins) {
    std::vector<Vertex> kernel(kWalks, origin);
    std::vector<Vertex> reference(kWalks, origin);
    Rng kernel_rng(12345 + origin), reference_rng(12345 + origin);
    uint32_t live = kWalks;
    for (int step = 0; step < kSteps; ++step) {
      const uint32_t before = live;
      live = AdvanceWalksCompact(graph, kernel, live, kernel_rng);
      const uint32_t reference_live =
          CompactingScalarReference(graph, reference, before, reference_rng);
      ASSERT_EQ(live, reference_live) << "origin " << origin << " step "
                                      << step;
      ASSERT_EQ(kernel, reference) << "origin " << origin << " step " << step;
      if (live < before && live > 0) ++partial_deaths;
    }
    // Same final generator state: the next draws agree.
    for (int draw = 0; draw < 4; ++draw) {
      EXPECT_EQ(kernel_rng.Next(), reference_rng.Next()) << "origin "
                                                         << origin;
    }
  }
  EXPECT_GE(partial_deaths, 3u * (kSteps - 1)) << "walks must die mid-run";

  // WalkSet::AdvanceCounted on the same streams: its per-step counter must
  // equal AddAll(live()) after a plain Advance — counts and ForEach order.
  for (Vertex origin : origins) {
    WalkSet counted(graph, origin, kWalks);
    WalkSet plain(graph, origin, kWalks);
    Rng counted_rng(12345 + origin), plain_rng(12345 + origin);
    for (int step = 0; step < kSteps && !plain.AllDead(); ++step) {
      WalkCounter got(counted.live_count());
      WalkCounter want(plain.live_count());
      const uint32_t counted_live = counted.AdvanceCounted(counted_rng, got);
      plain.Advance(plain_rng);
      ASSERT_EQ(counted_live, plain.live_count());
      want.AddAll(plain.live());
      ASSERT_EQ(CounterEntries(got), CounterEntries(want))
          << "origin " << origin << " step " << step;
      ASSERT_TRUE(std::equal(counted.positions().begin(),
                             counted.positions().end(),
                             plain.positions().begin()));
    }
  }
}

TEST(StepWalksInPlaceTest, PreservesSlotsAndTombstones) {
  const DirectedGraph graph = Chain4();
  // Mixed population: slots 0/2 die one step before slots 1/3.
  std::vector<Vertex> positions = {1, 2, 1, 2};
  Rng rng(5);
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 4u);
  EXPECT_EQ(positions, (std::vector<Vertex>{0, 1, 0, 1}));
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 2u);
  EXPECT_EQ(positions, (std::vector<Vertex>{kNoVertex, 0, kNoVertex, 0}));
  EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 0u);
  EXPECT_EQ(positions,
            (std::vector<Vertex>{kNoVertex, kNoVertex, kNoVertex, kNoVertex}));
}

TEST(StepWalksInPlaceTest, MatchesScalarLoopIncludingDeadSlots) {
  const DirectedGraph graph = testing::SmallRandomGraph(50, 303, 80);
  std::vector<Vertex> batched(200);
  for (size_t i = 0; i < batched.size(); ++i) {
    // A few tombstones sprinkled in up front: the kernel must skip them
    // without consuming draws, like the scalar loop.
    batched[i] = i % 7 == 0 ? kNoVertex : static_cast<Vertex>(i % 50);
  }
  std::vector<Vertex> scalar = batched;
  Rng batched_rng(17), scalar_rng(17);
  for (int step = 0; step < 4; ++step) {
    StepWalksInPlace(graph, batched, batched_rng);
    for (Vertex& p : scalar) {
      if (p == kNoVertex) continue;
      p = graph.RandomInNeighbor(p, scalar_rng);
    }
    EXPECT_EQ(batched, scalar) << "step " << step;
  }
}

TEST(StepWalksInPlaceTest, CycleNeverDies) {
  const DirectedGraph graph = Cycle3();
  std::vector<Vertex> positions = {0, 1, 2, 0};
  Rng rng(3);
  for (int step = 0; step < 10; ++step) {
    EXPECT_EQ(StepWalksInPlace(graph, positions, rng), 4u);
  }
  // 10 steps around the 3-cycle: 0 -> 2 -> 1 -> 0 -> ... (in-links).
  EXPECT_EQ(positions, (std::vector<Vertex>{2, 0, 1, 2}));
}

TEST(SampleInNeighborsTest, MatchesScalarLoop) {
  const DirectedGraph graph = testing::SmallRandomGraph(70, 304, 90);
  std::vector<Vertex> vertices(graph.NumVertices());
  for (Vertex v = 0; v < graph.NumVertices(); ++v) vertices[v] = v;
  std::vector<Vertex> batched(vertices.size());
  Rng batched_rng(23), scalar_rng(23);
  SampleInNeighbors(graph, vertices, batched_rng, batched.data());
  for (size_t i = 0; i < vertices.size(); ++i) {
    EXPECT_EQ(batched[i], graph.RandomInNeighbor(vertices[i], scalar_rng))
        << "vertex " << i;
  }
}

TEST(SampleInNeighborsTest, DeadInputsAndSinksYieldNoVertex) {
  const DirectedGraph graph = Chain4();
  const std::vector<Vertex> vertices = {0, kNoVertex, 1, 3};
  std::vector<Vertex> out(vertices.size(), 77);
  Rng rng(1);
  SampleInNeighbors(graph, vertices, rng, out.data());
  EXPECT_EQ(out, (std::vector<Vertex>{kNoVertex, kNoVertex, 0, 2}));
}

TEST(SampleInNeighborsTest, InPlaceAliasingIsSafe) {
  const DirectedGraph graph = testing::SmallRandomGraph(90, 305, 100);
  std::vector<Vertex> walk(300);
  for (size_t i = 0; i < walk.size(); ++i) {
    walk[i] = static_cast<Vertex>(i % 90);
  }
  std::vector<Vertex> reference = walk;
  Rng aliased_rng(31), reference_rng(31);
  SampleInNeighbors(graph, walk, aliased_rng, walk.data());
  std::vector<Vertex> separate(reference.size());
  SampleInNeighbors(graph, reference, reference_rng, separate.data());
  EXPECT_EQ(walk, separate);
}

TEST(WalkKernelTest, EmptyInputsAreNoOps) {
  const DirectedGraph graph = Cycle3();
  Rng rng(9);
  std::vector<Vertex> empty;
  EXPECT_EQ(AdvanceWalksCompact(graph, empty, 0, rng), 0u);
  EXPECT_EQ(StepWalksInPlace(graph, empty, rng), 0u);
  SampleInNeighbors(graph, empty, rng, empty.data());
  // The stream must be untouched by no-op calls.
  Rng fresh(9);
  EXPECT_EQ(rng.Next(), fresh.Next());
}

}  // namespace
}  // namespace simrank
