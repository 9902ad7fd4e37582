#include "eval/datasets.h"

#include <algorithm>
#include <cmath>

#include "graph/generators.h"
#include "util/check.h"

namespace simrank::eval {

namespace {

uint32_t Log2Ceil(uint64_t value) {
  uint32_t bits = 0;
  while ((1ULL << bits) < value) ++bits;
  return bits;
}

}  // namespace

std::vector<DatasetSpec> DatasetRegistry(double scale) {
  SIMRANK_CHECK_GT(scale, 0.0);
  auto scaled_v = [scale](uint64_t n) {
    return static_cast<Vertex>(std::max<uint64_t>(
        64, static_cast<uint64_t>(std::llround(n * scale))));
  };
  auto scaled_e = [scale](uint64_t m) {
    return static_cast<uint64_t>(std::max<uint64_t>(
        128, static_cast<uint64_t>(std::llround(m * scale))));
  };
  std::vector<DatasetSpec> registry = {
      // --- small corpus: exact ground truth affordable ---
      {"syn-ca-grqc", "ca-GrQc (n=5,242 m=14,496)",
       DatasetFamily::kCollaboration, scaled_v(1500), scaled_e(6000), 101},
      {"syn-as", "as20000102 (n=6,474 m=13,895)", DatasetFamily::kSocial,
       scaled_v(2048), scaled_e(10000), 102},
      {"syn-wiki-vote", "Wiki-Vote (n=7,115 m=103,689)",
       DatasetFamily::kSocial, scaled_v(2048), scaled_e(24000), 103},
      {"syn-ca-hepth", "ca-HepTh (n=9,877 m=25,998)",
       DatasetFamily::kCollaboration, scaled_v(2500), scaled_e(10000), 104},
      {"syn-cit-hepth", "cit-HepTh (n=27,770 m=352,807)",
       DatasetFamily::kCitation, scaled_v(2500), scaled_e(15000), 105},
      // --- medium corpus: scalability sweeps ---
      {"syn-cora", "Cora-direct (n=225,026 m=714,266)",
       DatasetFamily::kCitation, scaled_v(15000), scaled_e(60000), 106},
      {"syn-epinions", "soc-Epinions1 (n=75,879 m=508,837)",
       DatasetFamily::kSocial, scaled_v(32768), scaled_e(250000), 107},
      {"syn-slashdot", "soc-Slashdot0811 (n=77,360 m=905,468)",
       DatasetFamily::kSocial, scaled_v(32768), scaled_e(400000), 108},
      {"syn-web-stanford", "web-Stanford (n=281,903 m=2,312,497)",
       DatasetFamily::kWeb, scaled_v(65536), scaled_e(600000), 109},
      {"syn-web-google", "web-Google (n=875,713 m=5,105,049)",
       DatasetFamily::kWeb, scaled_v(131072), scaled_e(1200000), 110},
      {"syn-dblp", "dblp-2011 (n=933,258 m=6,707,236)",
       DatasetFamily::kCollaboration, scaled_v(100000), scaled_e(600000),
       111},
      // --- large corpus: single-source scalability only ---
      {"syn-flickr", "flickr (n=1,715,255 m=22,613,981)",
       DatasetFamily::kSocial, scaled_v(131072), scaled_e(2000000), 112},
      {"syn-soc-livejournal", "soc-LiveJournal1 (n=4,847,571 m=68,993,773)",
       DatasetFamily::kSocial, scaled_v(262144), scaled_e(3000000), 113},
      {"syn-indochina", "indochina-2004 (n=7,414,866 m=194,109,311)",
       DatasetFamily::kWeb, scaled_v(262144), scaled_e(4000000), 114},
      {"syn-it", "it-2004 (n=41,291,549 m=1,150,725,436)",
       DatasetFamily::kWeb, scaled_v(524288), scaled_e(6000000), 115},
  };
  return registry;
}

std::optional<DatasetSpec> FindDataset(const std::string& name,
                                       double scale) {
  for (const DatasetSpec& spec : DatasetRegistry(scale)) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

std::vector<DatasetSpec> SmallDatasets(double scale) {
  std::vector<DatasetSpec> all = DatasetRegistry(scale);
  all.resize(5);
  return all;
}

DirectedGraph Generate(const DatasetSpec& spec) {
  Rng rng(MixSeeds(0x5EEDF00D, spec.seed));
  const Vertex n = spec.target_vertices;
  const uint64_t m = spec.target_edges;
  switch (spec.family) {
    case DatasetFamily::kCollaboration: {
      const uint32_t per_vertex = static_cast<uint32_t>(
          std::max<uint64_t>(1, m / (2ULL * std::max<Vertex>(n, 1))));
      return MakeBarabasiAlbert(n, per_vertex, rng);
    }
    case DatasetFamily::kSocial: {
      // Less skewed than the web setting, with full reciprocity (mutual
      // edges), mimicking follower-graph degree structure.
      RmatParams params;
      params.a = 0.45;
      params.b = 0.22;
      params.c = 0.22;
      params.undirected = true;
      return MakeRmat(Log2Ceil(n), m / 2, rng, params);
    }
    case DatasetFamily::kWeb: {
      RmatParams params;  // Graph500 skew, directed
      return MakeRmat(Log2Ceil(n), m, rng, params);
    }
    case DatasetFamily::kCitation: {
      const uint32_t out_degree = static_cast<uint32_t>(
          std::max<uint64_t>(1, m / std::max<Vertex>(n, 1)));
      return MakeCopyingModel(n, out_degree, 0.7, rng);
    }
    case DatasetFamily::kRoad: {
      const Vertex side =
          static_cast<Vertex>(std::max(2.0, std::sqrt(static_cast<double>(n))));
      return MakeGrid(side, side);
    }
  }
  SIMRANK_CHECK(false);
  return DirectedGraph();
}

}  // namespace simrank::eval
