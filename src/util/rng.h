#ifndef SIMRANK_UTIL_RNG_H_
#define SIMRANK_UTIL_RNG_H_

#include <cstdint>

#include "util/check.h"

namespace simrank {

/// SplitMix64 step; used to seed Xoshiro and as a cheap stateless mixer.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic mix of two 64-bit values; used to derive independent
/// per-(vertex, sample) streams from a single experiment seed.
inline uint64_t MixSeeds(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (0x9e3779b97f4a7c15ULL + (b << 6) + (b >> 2));
  return SplitMix64(s);
}

/// xoshiro256** 1.0 (Blackman & Vigna): fast, high-quality, 2^256-1 period.
/// All randomized algorithms in this library take a Rng (or a seed) so runs
/// are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-initializes the state from a 64-bit seed via SplitMix64.
  void Seed(uint64_t seed) {
    for (auto& word : state_) word = SplitMix64(seed);
    // A zero state would be a fixed point; SplitMix64 of anything cannot
    // produce four zero words, but keep the guarantee explicit.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  /// Next 64 uniformly random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); bound must be positive. Uses Lemire's
  /// multiply-shift rejection method (no modulo bias).
  uint64_t UniformInt(uint64_t bound) {
    SIMRANK_CHECK_GT(bound, 0u);
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform 32-bit index in [0, bound); bound must be positive. Lemire's
  /// nearly-divisionless method on 32-bit operands: one 64-bit multiply per
  /// draw on the fast path; the `% bound` only runs when the low half lands
  /// in the biased window (probability < bound / 2^32), so the division the
  /// in-link walk kernel used to pay per step is gone from the hot path.
  uint32_t UniformIndex(uint32_t bound) {
    SIMRANK_CHECK_GT(bound, 0u);
    uint64_t m =
        static_cast<uint64_t>(static_cast<uint32_t>(Next() >> 32)) * bound;
    if (static_cast<uint32_t>(m) < bound) {  // rare: rejection window
      const uint32_t threshold = -bound % bound;
      while (static_cast<uint32_t>(m) < threshold) {
        m = static_cast<uint64_t>(static_cast<uint32_t>(Next() >> 32)) * bound;
      }
    }
    return static_cast<uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

}  // namespace simrank

#endif  // SIMRANK_UTIL_RNG_H_
