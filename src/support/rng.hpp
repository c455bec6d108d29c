// Deterministic pseudo-random number generation for workload synthesis.
//
// The suite generators must produce the same matrices on every platform and
// run, so we implement xoshiro256** (public-domain algorithm by Blackman &
// Vigna) rather than relying on implementation-defined std distributions.
#pragma once

#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace smtu {

// splitmix64: used to expand a single seed into xoshiro state.
constexpr u64 splitmix64(u64& state) {
  state += 0x9e3779b97f4a7c15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(u64 seed) {
    u64 sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  // Raw 64 uniform bits.
  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound), bias-free: modulo with rejection. A draw
  // is rejected when it falls below (2^64 - bound) mod bound, which is
  // itself below `bound`, so a draw >= bound is accepted without computing
  // that threshold (one 64-bit division per draw instead of two).
  u64 below(u64 bound) {
    SMTU_CHECK_MSG(bound > 0, "Rng::below needs a positive bound");
    while (true) {
      const u64 raw = next_u64();
      if (raw >= bound || raw >= (~bound + 1) % bound) [[likely]] return raw % bound;
    }
  }

  // Uniform integer in [lo, hi] inclusive. The full i64 span (2^64 values)
  // takes one raw draw; every narrower span goes through below().
  i64 range(i64 lo, i64 hi) {
    SMTU_DCHECK(lo <= hi);
    const u64 span = static_cast<u64>(hi) - static_cast<u64>(lo);
    const u64 offset = span == ~u64{0} ? next_u64() : below(span + 1);
    return static_cast<i64>(static_cast<u64>(lo) + offset);
  }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  bool chance(double probability) { return uniform() < probability; }

  // Samples `count` distinct values from [0, population) in increasing order.
  // Uses Floyd's algorithm for small count, a shuffle otherwise; the draws
  // are a fixed function of (population, count), whichever set structure
  // collects them.
  std::vector<u64> sample_without_replacement(u64 population, u64 count);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (usize i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  u64 state_[4] = {};
};

}  // namespace smtu
