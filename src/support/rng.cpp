#include "support/rng.hpp"

#include <algorithm>
#include <bit>

namespace smtu {

namespace {

// Every set bit's index in increasing order.
void append_set_bits(const std::vector<u64>& bits, std::vector<u64>& out) {
  for (usize word = 0; word < bits.size(); ++word) {
    for (u64 w = bits[word]; w != 0; w &= w - 1) {
      out.push_back(word * 64 + static_cast<u64>(std::countr_zero(w)));
    }
  }
}

// Floyd draws collect into a bitmap (one bit per population value) up to
// this population, and past it while the bitmap has at most one word per
// sampled value; sparser samples use a hash set and a sort.
constexpr u64 kBitmapPopulation = 4096;

}  // namespace

std::vector<u64> Rng::sample_without_replacement(u64 population, u64 count) {
  SMTU_CHECK_MSG(count <= population, "cannot sample more than the population");
  std::vector<u64> chosen;
  chosen.reserve(count);
  if (count == 0) return chosen;

  // Dense case: permute the full population, keep the prefix. The
  // population is at most 4 * count, so a bitmap sorts the prefix.
  if (count * 4 >= population) {
    std::vector<u64> all(population);
    for (u64 i = 0; i < population; ++i) all[i] = i;
    shuffle(all);
    std::vector<u64> bits((population + 63) / 64, 0);
    for (u64 i = 0; i < count; ++i) bits[all[i] / 64] |= u64{1} << (all[i] % 64);
    append_set_bits(bits, chosen);
    return chosen;
  }

  // Floyd's algorithm: O(count) expected draws. Step j draws below(j + 1)
  // and takes j itself when the draw is already in the sample (j is new:
  // every earlier value is below it).
  if (population <= kBitmapPopulation || population / 64 <= count) {
    std::vector<u64> bits((population + 63) / 64, 0);
    for (u64 j = population - count; j < population; ++j) {
      u64 value = below(j + 1);
      if (bits[value / 64] >> (value % 64) & 1) value = j;
      bits[value / 64] |= u64{1} << (value % 64);
    }
    append_set_bits(bits, chosen);
    return chosen;
  }
  // Sparse: a flat open-addressing table stands in for a node-based set;
  // values are < population, so ~0 marks empty.
  constexpr u64 kEmpty = ~u64{0};
  const u64 slots = std::bit_ceil(count * 2);
  std::vector<u64> table(slots, kEmpty);
  const auto insert = [&](u64 value) {
    for (u64 slot = (value * 0x9e3779b97f4a7c15ULL) & (slots - 1);;
         slot = (slot + 1) & (slots - 1)) {
      if (table[slot] == value) return false;
      if (table[slot] == kEmpty) {
        table[slot] = value;
        chosen.push_back(value);
        return true;
      }
    }
  };
  for (u64 j = population - count; j < population; ++j) {
    if (!insert(below(j + 1))) insert(j);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace smtu
