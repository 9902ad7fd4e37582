#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Order statistics for the benchmark's latency samples.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least a
/// fraction `p` (in (0, 1]) of the samples are at or below it. Returns 0
/// for an empty set.
inline double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // The epsilon keeps p * n from rounding up past an exact integer
  // (0.95 * 200 is 190.00000000000003 in binary floating point).
  const double rank = std::ceil(p * static_cast<double>(samples.size()) - 1e-9);
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

/// The highest percentile, as a fraction, whose nearest-rank sample still
/// has at least `beyond` samples above it in a set of `n`; 0 when n is not
/// larger than `beyond`.
inline double TailFraction(size_t n, size_t beyond = 10) {
  if (n <= beyond) return 0.0;
  return static_cast<double>(n - beyond) / static_cast<double>(n);
}

/// Samples needed so that percentile `p` has at least `beyond` samples
/// above it: ceil(beyond / (1 - p)).
inline size_t SamplesForTail(double p, size_t beyond = 10) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(beyond) / (1.0 - p) - 1e-9));
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
