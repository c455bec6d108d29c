#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <vector>

#include "support/bits.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(64, 16), 4u);
}

TEST(Bits, RoundUp) {
  EXPECT_EQ(round_up(0, 4), 0u);
  EXPECT_EQ(round_up(1, 4), 4u);
  EXPECT_EQ(round_up(4, 4), 4u);
  EXPECT_EQ(round_up(6, 4), 8u);
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(64), 6u);
  EXPECT_EQ(log2_floor(65), 6u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(64), 6u);
  EXPECT_EQ(log2_ceil(65), 7u);
}

TEST(Bits, LogCeilBaseS) {
  // The paper's level count: q = ceil(log_s(dim)).
  EXPECT_EQ(log_ceil(1, 64), 0u);
  EXPECT_EQ(log_ceil(64, 64), 1u);
  EXPECT_EQ(log_ceil(65, 64), 2u);
  EXPECT_EQ(log_ceil(4096, 64), 2u);
  EXPECT_EQ(log_ceil(4097, 64), 3u);
}

TEST(Bits, Ipow) {
  EXPECT_EQ(ipow(64, 0), 1u);
  EXPECT_EQ(ipow(64, 2), 4096u);
  EXPECT_EQ(ipow(2, 10), 1024u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(1000, 100);
  ASSERT_EQ(sample.size(), 100u);
  for (usize i = 1; i < sample.size(); ++i) EXPECT_LT(sample[i - 1], sample[i]);
  for (const u64 v : sample) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(50, 50);
  ASSERT_EQ(sample.size(), 50u);
  for (usize i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SamplerMatchesTheHashAndSortOracle) {
  // Every population up to past the bitmap cutoff (4096), with counts on
  // both sides of the dense/Floyd switch (count * 4 >= population) and of
  // the bitmap's one-word-per-value rule: same sample, same next draw.
  const auto expect_same = [](u64 population, u64 count, u64 seed) {
    Rng rng(seed);
    Rng oracle(seed);
    const std::vector<u64> sample = rng.sample_without_replacement(population, count);
    ASSERT_EQ(sample, testing::sample_without_replacement_oracle(oracle, population, count))
        << "population " << population << " count " << count << " seed " << seed;
    ASSERT_EQ(rng.next_u64(), oracle.next_u64());
  };
  for (u64 population = 1; population <= 5000; ++population) {
    const u64 quarter = (population + 3) / 4;  // smallest dense count
    for (const u64 count : {u64{0}, u64{1}, u64{2}, quarter - 1, population / 64,
                            population / 64 + 1}) {
      if (count < quarter) expect_same(population, count, population * 1000 + count);
    }
    // Dense samples shuffle the whole population: every eighth past 512.
    if (population <= 512 || population % 8 == 0) {
      expect_same(population, quarter, population * 1000 + quarter);
      expect_same(population, population, population * 1000 + population);
    }
  }
  for (u64 seed = 0; seed < 200; ++seed) {
    expect_same(169, 42, seed);  // the paper suite's widest banded rows
    expect_same(4096 + seed, 1 + seed % 80, seed);
    expect_same(1'000'000, 15'624 + seed % 3, seed);  // around 1'000'000 / 64
  }
}

TEST(Rng, BelowMatchesPlainModuloWithRejection) {
  // The threshold is computed only for draws below the bound; the accepted
  // draws must be exactly the ones the plain rejection loop accepts.
  for (const u64 bound : {u64{1}, u64{2}, u64{3}, u64{7}, u64{1} << 32, (u64{1} << 63) + 5,
                          ~u64{0} - 1, ~u64{0}}) {
    Rng rng(bound);
    Rng plain(bound);
    for (int i = 0; i < 1000; ++i) {
      const u64 threshold = (~bound + 1) % bound;
      u64 raw = plain.next_u64();
      while (raw < threshold) raw = plain.next_u64();
      ASSERT_EQ(rng.below(bound), raw % bound) << "bound " << bound;
    }
  }
}

TEST(Rng, RangeCoversTheFullSpan) {
  Rng rng(5);
  Rng raw(5);
  constexpr i64 kMin = std::numeric_limits<i64>::min();
  constexpr i64 kMax = std::numeric_limits<i64>::max();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.range(kMin, kMax), static_cast<i64>(static_cast<u64>(kMin) + raw.next_u64()));
  }
  for (int i = 0; i < 1000; ++i) {
    const i64 value = rng.range(kMin, kMin + 2);
    EXPECT_TRUE(value >= kMin && value <= kMin + 2);
    EXPECT_EQ(rng.range(kMax, kMax), kMax);
    const i64 wide = rng.range(-5, kMax);
    EXPECT_GE(wide, -5);
  }
}

TEST(RngDeathTest, BelowZeroAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.below(0), "positive bound");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitWhitespace) {
  const auto fields = split_whitespace("  a\t bb  ccc ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "bb");
  EXPECT_EQ(fields[2], "ccc");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
}

TEST(Table, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  TextTable table({"a", "b"});
  table.add_row({"x", "1"});
  std::ostringstream out;
  table.print_markdown(out);
  EXPECT_EQ(out.str(), "| a | b |\n|---|---|\n| x | 1 |\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Strings, HumanCount) {
  EXPECT_EQ(human_count(12.0), "12.00");
  EXPECT_EQ(human_count(1234.0), "1.23k");
  EXPECT_EQ(human_count(3753461.0), "3.75M");
  EXPECT_EQ(human_count(2.5e9), "2.50G");
}

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1"};
  CommandLine cli(4, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_TRUE(cli.get_flag("flag"));
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  cli.finish();
}

}  // namespace
}  // namespace smtu
