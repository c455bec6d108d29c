// Property-based / parameterized sweeps across the whole stack: for many
// (shape, density, section, B, L) combinations, every transpose
// implementation — COO mirror, Pissanetsky on CSR, HiSM
// software reference, and both simulated kernels — must agree, and STM
// timing invariants must hold. On structured and pathological patterns
// every simulated kernel class must match its host reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "hism/transpose.hpp"
#include "kernels/crs_parallel.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/sell_spmv.hpp"
#include "kernels/shard.hpp"
#include "kernels/spgemm.hpp"
#include "stm/unit.hpp"
#include "support/bits.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::floats_bit_equal;
using testing::random_coo;

// ---------------------------------------------------------------------------
// All transpose implementations agree.

struct TransposeCase {
  Index rows;
  Index cols;
  usize nnz;
  u32 section;
  u64 seed;
};

void PrintTo(const TransposeCase& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "/" << c.nnz << " s=" << c.section
      << " seed=" << c.seed;
}

class TransposeAgreement : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(TransposeAgreement, AllPathsAgree) {
  const TransposeCase& param = GetParam();
  Rng rng(param.seed);
  const Coo coo = random_coo(param.rows, param.cols, param.nnz, rng);
  const Coo expected = coo.transposed();

  // Host-side references.
  EXPECT_TRUE(coo_equal(Csr::from_coo(coo).transposed_pissanetsky().to_coo(), expected));

  const HismMatrix hism = HismMatrix::from_coo(coo, param.section);
  EXPECT_TRUE(coo_equal(transposed(hism).to_coo(), expected));

  // Simulated kernels.
  vsim::MachineConfig config;
  config.section = param.section;
  const HismMatrix hism_result = testing::simulated_hism_transpose(hism, config);
  EXPECT_TRUE(coo_equal(hism_result.to_coo(), expected));
  EXPECT_TRUE(hism_result.validate());

  EXPECT_TRUE(coo_equal(testing::simulated_crs_transpose(Csr::from_coo(coo), config), expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeAgreement,
    ::testing::Values(
        TransposeCase{8, 8, 10, 8, 1}, TransposeCase{16, 16, 60, 8, 2},
        TransposeCase{64, 64, 100, 8, 3}, TransposeCase{64, 64, 1000, 8, 4},
        TransposeCase{65, 64, 900, 8, 5}, TransposeCase{64, 65, 900, 8, 6},
        TransposeCase{200, 40, 800, 8, 7}, TransposeCase{40, 200, 800, 8, 8},
        TransposeCase{513, 513, 2000, 8, 9}, TransposeCase{100, 100, 500, 16, 10},
        TransposeCase{300, 300, 3000, 16, 11}, TransposeCase{1000, 1000, 5000, 32, 12},
        TransposeCase{500, 500, 8000, 64, 13}, TransposeCase{129, 257, 1500, 64, 14},
        TransposeCase{4097, 63, 2000, 64, 15}, TransposeCase{31, 31, 961, 16, 16},
        TransposeCase{77, 77, 1, 8, 17}, TransposeCase{256, 256, 4000, 128, 18},
        TransposeCase{300, 300, 2500, 256, 19}));

// ---------------------------------------------------------------------------
// STM timing properties under parameter sweeps.

struct StmCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  u64 seed;
};

void PrintTo(const StmCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " seed=" << c.seed;
}

class StmProperties : public ::testing::TestWithParam<StmCase> {
 protected:
  std::vector<StmEntry> random_block(u32 section, usize count, u64 seed) {
    Rng rng(seed);
    std::vector<StmEntry> entries;
    for (const u64 cell :
         rng.sample_without_replacement(static_cast<u64>(section) * section, count)) {
      entries.push_back({static_cast<u8>(cell / section), static_cast<u8>(cell % section),
                         static_cast<u32>(cell * 13 + 1)});
    }
    return entries;  // sample is sorted, hence row-major
  }
};

TEST_P(StmProperties, FunctionalTransposeIsExact) {
  const StmCase& param = GetParam();
  StmConfig config{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmUnit unit(config);
  const auto entries =
      random_block(param.section, param.section * param.section / 3, param.seed);
  const auto result = unit.transpose_block(entries);

  // Same multiset of payloads, coordinates swapped, output row-major.
  ASSERT_EQ(result.transposed.size(), entries.size());
  std::vector<StmEntry> expected;
  for (const StmEntry& e : entries) expected.push_back({e.col, e.row, e.value_bits});
  std::sort(expected.begin(), expected.end(), [](const StmEntry& a, const StmEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  EXPECT_EQ(result.transposed, expected);
}

TEST_P(StmProperties, CycleBoundsHold) {
  const StmCase& param = GetParam();
  StmConfig config{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmUnit unit(config);
  const usize count = param.section * param.section / 4;
  const auto entries = random_block(param.section, count, param.seed + 1);
  const auto result = unit.transpose_block(entries);

  // Each phase moves at most B elements per cycle, at least one per cycle.
  EXPECT_GE(result.write_cycles, ceil_div(count, param.bandwidth));
  EXPECT_LE(result.write_cycles, count);
  EXPECT_GE(result.read_cycles, ceil_div(count, param.bandwidth));
  EXPECT_LE(result.read_cycles, count);
  EXPECT_EQ(result.cycles, result.write_cycles + result.read_cycles + 6u);
}

TEST_P(StmProperties, RelaxedRuleNeverSlower) {
  const StmCase& param = GetParam();
  StmConfig strict{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = true};
  StmConfig relaxed = strict;
  relaxed.strict_consecutive_lines = false;
  const auto entries =
      random_block(param.section, param.section * param.section / 5, param.seed + 2);
  StmUnit strict_unit(strict);
  StmUnit relaxed_unit(relaxed);
  EXPECT_LE(relaxed_unit.transpose_block(entries).cycles,
            strict_unit.transpose_block(entries).cycles);
}

TEST_P(StmProperties, MoreLinesNeverSlower) {
  const StmCase& param = GetParam();
  if (param.lines * 2 > param.section) GTEST_SKIP();
  StmConfig narrow{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmConfig wide = narrow;
  wide.lines = param.lines * 2;
  const auto entries =
      random_block(param.section, param.section * param.section / 6, param.seed + 3);
  StmUnit narrow_unit(narrow);
  StmUnit wide_unit(wide);
  EXPECT_LE(wide_unit.transpose_block(entries).cycles,
            narrow_unit.transpose_block(entries).cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StmProperties,
    ::testing::Values(StmCase{8, 1, 1, true, 100}, StmCase{8, 2, 2, true, 101},
                      StmCase{8, 4, 4, true, 102}, StmCase{16, 4, 2, true, 103},
                      StmCase{16, 8, 4, false, 104}, StmCase{32, 4, 4, true, 105},
                      StmCase{64, 1, 4, true, 106}, StmCase{64, 2, 1, true, 107},
                      StmCase{64, 4, 4, true, 108}, StmCase{64, 8, 8, true, 109},
                      StmCase{64, 8, 2, false, 110}, StmCase{128, 4, 4, true, 111}));

// ---------------------------------------------------------------------------
// Every kernel class on structured and pathological patterns: the
// single-core HiSM and CRS transposes, the sharded HiSM and parallel CRS
// transposes, SELL-C-sigma SpMV and SpGEMM, each bit-checked against its
// host reference.

class PatternCase : public ::testing::TestWithParam<int> {};

TEST_P(PatternCase, KernelsAgreeOnStructuredMatrices) {
  constexpr u32 kSection = 16;
  const int pattern = GetParam();
  Coo coo(96, 96);
  switch (pattern) {
    case 0:  // diagonal
      for (Index i = 0; i < 96; ++i) coo.add(i, i, static_cast<float>(i + 1));
      break;
    case 1:  // anti-diagonal
      for (Index i = 0; i < 96; ++i) coo.add(i, 95 - i, static_cast<float>(i + 1));
      break;
    case 2:  // single dense row
      for (Index j = 0; j < 96; ++j) coo.add(17, j, static_cast<float>(j + 1));
      break;
    case 3:  // single dense column
      for (Index i = 0; i < 96; ++i) coo.add(i, 31, static_cast<float>(i + 1));
      break;
    case 4:  // checkerboard
      for (Index i = 0; i < 96; ++i) {
        for (Index j = (i % 2); j < 96; j += 2) coo.add(i, j, 1.0f + static_cast<float>(j));
      }
      break;
    case 5:  // lower triangle band
      for (Index i = 0; i < 96; ++i) {
        for (Index j = i >= 5 ? i - 5 : 0; j <= i; ++j) {
          coo.add(i, j, static_cast<float>(i + j + 1));
        }
      }
      break;
    case 6:  // hypersparse: 8 non-zeros in 4096 x 4096, the corners included
      coo = Coo(4096, 4096, {{0, 0, 1.0f},
                             {0, 4095, 2.0f},
                             {17, 1234, 3.0f},
                             {777, 3333, 4.0f},
                             {1234, 17, 5.0f},
                             {2048, 2047, 6.0f},
                             {4095, 0, 7.0f},
                             {4095, 4095, 8.0f}});
      break;
    case 7:  // one mega-row holding every non-zero
      coo = Coo(2048, 2048);
      for (Index j = 0; j < 2048; ++j) coo.add(1000, j, static_cast<float>(j % 97 + 1));
      break;
    case 8:  // tridiagonal band plus one dense s x s spike straddling four blocks
      coo = Coo(256, 256);
      for (Index i = 0; i < 256; ++i) {
        for (Index j = i >= 1 ? i - 1 : 0; j <= std::min<Index>(i + 1, 255); ++j) {
          coo.add(i, j, static_cast<float>(i + j + 1));
        }
      }
      for (Index r = 150; r < 150 + kSection; ++r) {
        for (Index c = 37; c < 37 + kSection; ++c) {
          coo.add(r, c, static_cast<float>(r * 3 + c) + 0.5f);
        }
      }
      break;
    default:
      FAIL();
  }
  coo.canonicalize();
  const Coo expected = coo.transposed();
  const Csr csr = Csr::from_coo(coo);

  vsim::MachineConfig config;
  config.section = kSection;
  const HismMatrix hism = HismMatrix::from_coo(coo, config.section);
  EXPECT_TRUE(coo_equal(testing::simulated_hism_transpose(hism, config).to_coo(), expected));
  EXPECT_TRUE(coo_equal(testing::simulated_crs_transpose(csr, config), expected));

  vsim::SystemConfig system;
  system.core = config;
  system.cores = 4;
  Coo sharded;
  kernels::time_sharded_hism_transpose(coo, system, nullptr, &sharded);
  EXPECT_TRUE(coo_equal(sharded, expected));
  Coo parallel;
  kernels::time_parallel_crs_transpose(csr, system, nullptr, &parallel);
  EXPECT_TRUE(coo_equal(parallel, expected));

  const SellCSigma sell = SellCSigma::from_coo(coo, kSection, 0);
  std::vector<float> x(static_cast<usize>(coo.cols()));
  Rng rng(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> y;
  kernels::time_sell_spmv(sell, x, system, nullptr, &y);
  EXPECT_TRUE(floats_bit_equal(y, sell.spmv(x)));

  // C = A^T B with two non-zeros in every row of B, so every non-zero of A
  // contributes to C.
  Coo b_coo(coo.rows(), 24);
  for (Index i = 0; i < coo.rows(); ++i) {
    b_coo.add(i, i % 24, static_cast<float>(i % 5 + 1));
    b_coo.add(i, (i * 7 + 3) % 24, 0.5f);
  }
  b_coo.canonicalize();
  const Csr b = Csr::from_coo(b_coo);
  std::vector<float> product;
  kernels::time_hism_spgemm(coo, b, system, nullptr, &product);
  EXPECT_TRUE(floats_bit_equal(product, kernels::spgemm_at_b_reference_dense(coo, b)));
}

INSTANTIATE_TEST_SUITE_P(Patterns, PatternCase, ::testing::Range(0, 9));

}  // namespace
}  // namespace smtu
