#include "support/rng.hpp"

#include <algorithm>
#include <bit>

namespace smtu {

std::vector<u64> Rng::sample_without_replacement(u64 population, u64 count) {
  SMTU_CHECK_MSG(count <= population, "cannot sample more than the population");
  std::vector<u64> chosen;
  chosen.reserve(count);
  if (count == 0) return chosen;

  // Dense case: permute the full population prefix.
  if (count * 4 >= population) {
    std::vector<u64> all(population);
    for (u64 i = 0; i < population; ++i) all[i] = i;
    shuffle(all);
    chosen.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
  } else {
    // Floyd's algorithm: O(count) expected draws. Only membership matters
    // (the sample is sorted below), so a flat open-addressing table stands
    // in for a node-based set; values are < population, so ~0 marks empty.
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
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace smtu
