// The RTL pipeline model vs the schedule engine: identical transposed
// output and cycle counts, with the 3+3-cycle pipeline tails emerging from
// explicit stage registers instead of being added as constants. The model's
// drain runs the structural Non-zero Locator circuit of Fig. 4, so the
// sweeps below also exercise that circuit against the engine across the
// (s, B, L, strict/relaxed, density) space.
#include <gtest/gtest.h>

#include <algorithm>

#include "stm/rtl.hpp"
#include "stm/unit.hpp"
#include "support/rng.hpp"

namespace smtu {
namespace {

std::vector<StmEntry> random_block(u32 section, usize count, u64 seed) {
  Rng rng(seed);
  std::vector<StmEntry> entries;
  for (const u64 cell :
       rng.sample_without_replacement(static_cast<u64>(section) * section, count)) {
    entries.push_back({static_cast<u8>(cell / section), static_cast<u8>(cell % section),
                       static_cast<u32>(cell + 1)});
  }
  return entries;
}

StmConfig make_config(u32 section, u32 bandwidth, u32 lines, bool strict = true) {
  StmConfig config;
  config.section = section;
  config.bandwidth = bandwidth;
  config.lines = lines;
  config.strict_consecutive_lines = strict;
  return config;
}

TEST(StmRtl, SingleElementLatencyIsThreePlusThree) {
  // One element: one accept cycle + 3 pipeline stages to commit, one
  // extract cycle + 3 stages to deliver: 1+3 + 1+3 = 8 total — exactly the
  // engine's W + R + 6 with W = R = 1.
  const auto entries = random_block(8, 1, 1);
  const auto result = StmRtl::run_block(entries, make_config(8, 4, 4));
  EXPECT_EQ(result.fill_cycles, 1u);
  EXPECT_EQ(result.drain_cycles, 1u);
  EXPECT_EQ(result.cycles, 8u);
}

TEST(StmRtl, PipelineMustDrainBeforeRead) {
  StmConfig config = make_config(8, 4, 4);
  StmRtl rtl(config);
  const auto entries = random_block(8, 4, 2);
  rtl.offer(entries);
  // Fill still in flight: the s x s memory cannot be read back yet (§III).
  EXPECT_DEATH(rtl.begin_drain(), "fill pipeline");
}

struct RtlCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  usize count;
  u64 seed;
};

void PrintTo(const RtlCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " n=" << c.count;
}

void expect_matches_engine(const std::vector<StmEntry>& entries, const StmConfig& config) {
  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  const StmRtl::Result rtl = StmRtl::run_block(entries, config);

  EXPECT_EQ(rtl.transposed, engine.transposed);
  EXPECT_EQ(rtl.fill_cycles, engine.write_cycles);
  EXPECT_EQ(rtl.drain_cycles, engine.read_cycles);
  EXPECT_EQ(rtl.cycles, engine.cycles);
}

class RtlEquivalence : public ::testing::TestWithParam<RtlCase> {};

TEST_P(RtlEquivalence, MatchesScheduleEngineExactly) {
  const RtlCase& param = GetParam();
  const StmConfig config =
      make_config(param.section, param.bandwidth, param.lines, param.strict);
  for (const u64 seed : {param.seed, param.seed + 1}) {
    SCOPED_TRACE(seed);
    expect_matches_engine(random_block(param.section, param.count, seed), config);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtlEquivalence,
    ::testing::Values(RtlCase{8, 1, 1, true, 10, 1}, RtlCase{8, 4, 4, true, 20, 2},
                      RtlCase{16, 2, 2, true, 60, 3}, RtlCase{16, 4, 2, false, 90, 4},
                      RtlCase{32, 4, 4, true, 200, 5}, RtlCase{64, 4, 4, true, 50, 6},
                      RtlCase{64, 8, 8, true, 1000, 7}, RtlCase{64, 1, 4, true, 64, 8},
                      RtlCase{64, 4, 1, false, 300, 9}));

// Cases sized by fill density (fraction of the s^2 cells occupied): sparse
// through nearly full blocks, every section size from 8 to 128. The suite
// keeps the name it had when a separate micro-simulation was the oracle;
// the drain and fill halves each run on their own seed.
struct DensityCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  double density;
  u64 seed;

  usize count() const {
    const auto n = static_cast<usize>(density * static_cast<double>(section) * section);
    return std::max<usize>(1, n);
  }
  StmConfig config() const { return make_config(section, bandwidth, lines, strict); }
};

void PrintTo(const DensityCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " d=" << c.density << " seed=" << c.seed;
}

class MicrosimEquivalence : public ::testing::TestWithParam<DensityCase> {};

TEST_P(MicrosimEquivalence, DrainMatchesScheduleEngine) {
  const DensityCase& param = GetParam();
  const StmConfig config = param.config();
  const auto entries = random_block(param.section, param.count(), param.seed);

  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  const StmRtl::Result rtl = StmRtl::run_block(entries, config);
  EXPECT_EQ(rtl.transposed, engine.transposed);
  EXPECT_EQ(rtl.drain_cycles, engine.read_cycles);
  EXPECT_EQ(rtl.cycles, engine.cycles);
}

TEST_P(MicrosimEquivalence, FillMatchesScheduleEngine) {
  const DensityCase& param = GetParam();
  const StmConfig config = param.config();
  const auto entries = random_block(param.section, param.count(), param.seed + 1);

  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  const StmRtl::Result rtl = StmRtl::run_block(entries, config);
  EXPECT_EQ(rtl.fill_cycles, engine.write_cycles);
  EXPECT_EQ(rtl.cycles, engine.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MicrosimEquivalence,
    ::testing::Values(DensityCase{8, 1, 1, true, 0.3, 1}, DensityCase{8, 4, 4, true, 0.3, 2},
                      DensityCase{8, 4, 2, false, 0.5, 3},
                      DensityCase{16, 2, 4, true, 0.1, 4},
                      DensityCase{16, 8, 8, true, 0.9, 5},
                      DensityCase{32, 4, 1, true, 0.05, 6},
                      DensityCase{32, 4, 4, false, 0.2, 7},
                      DensityCase{64, 1, 4, true, 0.02, 8},
                      DensityCase{64, 4, 4, true, 0.02, 9},
                      DensityCase{64, 4, 4, true, 0.6, 10},
                      DensityCase{64, 8, 2, false, 0.15, 11},
                      DensityCase{128, 4, 8, true, 0.01, 12}));

TEST(StmRtl, ShuffledFillStreamMatchesScheduleEngine) {
  // Fill order is whatever the block-array holds; scramble it.
  auto entries = random_block(16, 60, 99);
  Rng rng(123);
  rng.shuffle(entries);
  expect_matches_engine(entries, make_config(16, 4, 2));
}

TEST(StmRtl, GridHoldsBlockBetweenPhases) {
  const StmConfig config = make_config(16, 4, 4);
  const auto entries = random_block(16, 40, 11);
  StmRtl rtl(config);
  usize index = 0;
  while (index < entries.size() || !rtl.pipeline_empty()) {
    if (index < entries.size()) {
      index += rtl.offer(std::span<const StmEntry>(entries).subspan(index));
    }
    rtl.step();
  }
  EXPECT_EQ(rtl.grid().occupancy(), entries.size());
}

TEST(StmRtlDeathTest, RejectsNoSummaryVariant) {
  StmConfig config = make_config(8, 4, 4);
  config.skip_empty_lines = false;
  const auto entries = random_block(8, 4, 7);
  EXPECT_DEATH(StmRtl::run_block(entries, config), "occupancy summaries");
}

TEST(StmRtlDeathTest, DoubleOfferWithoutStepAborts) {
  StmRtl rtl(make_config(8, 2, 2));
  const auto entries = random_block(8, 6, 12);
  rtl.offer(entries);
  EXPECT_DEATH(rtl.offer(entries), "one offer");
}

}  // namespace
}  // namespace smtu
