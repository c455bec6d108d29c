#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "suite/dsab.hpp"
#include "suite/generators.hpp"
#include "suite/metrics.hpp"
#include "support/parallel.hpp"
#include "testing.hpp"

namespace smtu::suite {
namespace {

TEST(Metrics, DiagonalMatrix) {
  Rng rng(1);
  const MatrixMetrics m = compute_metrics(gen_diagonal(64, rng));
  EXPECT_EQ(m.nnz, 64u);
  EXPECT_DOUBLE_EQ(m.avg_nnz_per_row, 1.0);
  // Diagonal blocks hold 32 entries each: locality = 32/32 = 1.
  EXPECT_DOUBLE_EQ(m.locality, 1.0);
}

TEST(Metrics, DenseMatrixLocalityIsMax) {
  Rng rng(2);
  const MatrixMetrics m = compute_metrics(gen_dense(64, 64, rng));
  EXPECT_DOUBLE_EQ(m.locality, 32.0);  // 1024 per block / 32
  EXPECT_DOUBLE_EQ(m.avg_nnz_per_row, 64.0);
}

TEST(Metrics, EmptyMatrix) {
  const MatrixMetrics m = compute_metrics(Coo(10, 10));
  EXPECT_EQ(m.nnz, 0u);
  EXPECT_DOUBLE_EQ(m.locality, 0.0);
}

TEST(Metrics, UnsortedInputCountsTheSameBlocks) {
  Rng rng(7);
  const Coo sorted = gen_block_clusters(1024, 30, 40, rng);
  Coo shuffled = sorted;
  rng.shuffle(shuffled.entries());
  const MatrixMetrics a = compute_metrics(sorted);
  const MatrixMetrics b = compute_metrics(shuffled);
  EXPECT_EQ(a.locality, b.locality);
  EXPECT_DOUBLE_EQ(a.locality, 40 / 32.0);
}

TEST(Generators, BlockClustersDialLocalityExactly) {
  Rng rng(3);
  for (const u32 per_block : {2u, 13u, 129u, 411u}) {
    const Coo coo = gen_block_clusters(2048, 40, per_block, rng);
    const MatrixMetrics m = compute_metrics(coo);
    EXPECT_DOUBLE_EQ(m.locality, per_block / 32.0) << "per_block=" << per_block;
    EXPECT_EQ(m.nnz, 40u * per_block);
  }
}

TEST(Generators, BandedRowsHitAnz) {
  Rng rng(4);
  const Coo coo = gen_banded_rows(1000, 17, 34, rng);
  const MatrixMetrics m = compute_metrics(coo);
  EXPECT_NEAR(m.avg_nnz_per_row, 17.0, 0.5);
}

TEST(Generators, Stencil5HasFivePointRows) {
  Rng rng(5);
  const Coo coo = gen_stencil5(10, rng);
  EXPECT_EQ(coo.rows(), 100u);
  // 5n - 4*grid interior/boundary count.
  EXPECT_EQ(coo.nnz(), 5u * 100 - 4 * 10);
}

TEST(Generators, Stencil9CornerHasFourNeighbors) {
  Rng rng(6);
  const Coo coo = gen_stencil9(8, rng);
  usize corner_row_nnz = 0;
  for (const CooEntry& e : coo.entries()) {
    if (e.row == 0) ++corner_row_nnz;
  }
  EXPECT_EQ(corner_row_nnz, 4u);  // self + right + down + diag
}

TEST(Generators, RandomUniformExactNnz) {
  Rng rng(7);
  const Coo coo = gen_random_uniform(100, 200, 1234, rng);
  EXPECT_EQ(coo.nnz(), 1234u);
  EXPECT_EQ(coo.rows(), 100u);
  EXPECT_EQ(coo.cols(), 200u);
}

TEST(Generators, PowerlawRowsSkewed) {
  Rng rng(8);
  const Coo coo = gen_powerlaw_rows(500, 5000, 1.0, rng);
  // The first row must be much denser than a deep-tail row.
  usize first_row = 0;
  usize row_300 = 0;
  for (const CooEntry& e : coo.entries()) {
    if (e.row == 0) ++first_row;
    if (e.row == 300) ++row_300;
  }
  EXPECT_GT(first_row, 5 * std::max<usize>(row_300, 1));
}

TEST(Generators, Deterministic) {
  Rng a(42);
  Rng b(42);
  EXPECT_TRUE(structurally_equal(gen_random_uniform(50, 50, 200, a),
                                 gen_random_uniform(50, 50, 200, b)));
}

TEST(Dsab, ThirtyMatricesInThreeSets) {
  const auto suite = build_dsab_suite({.scale = 0.02});
  EXPECT_EQ(suite.size(), 30u);
  usize locality_count = 0;
  usize anz_count = 0;
  usize size_count = 0;
  for (const auto& entry : suite) {
    if (entry.set == kSetLocality) ++locality_count;
    if (entry.set == kSetAnz) ++anz_count;
    if (entry.set == kSetSize) ++size_count;
    EXPECT_GT(entry.matrix.nnz(), 0u);
    EXPECT_NE(entry.name.find("-syn"), std::string::npos);
  }
  EXPECT_EQ(locality_count, 10u);
  EXPECT_EQ(anz_count, 10u);
  EXPECT_EQ(size_count, 10u);
}

TEST(Dsab, LocalitySetIsMonotoneInLocality) {
  const auto set = build_dsab_set(kSetLocality, {.scale = 0.05});
  for (usize i = 1; i < set.size(); ++i) {
    EXPECT_GT(set[i].metrics.locality, set[i - 1].metrics.locality)
        << set[i - 1].name << " -> " << set[i].name;
  }
  // Paper range: 0.07 .. 12.85.
  EXPECT_NEAR(set.front().metrics.locality, 0.07, 0.03);
  EXPECT_NEAR(set.back().metrics.locality, 12.85, 0.5);
}

TEST(Dsab, AnzSetIsMonotoneInAnz) {
  const auto set = build_dsab_set(kSetAnz, {.scale = 0.1});
  for (usize i = 1; i < set.size(); ++i) {
    EXPECT_GT(set[i].metrics.avg_nnz_per_row, set[i - 1].metrics.avg_nnz_per_row);
  }
  EXPECT_NEAR(set.front().metrics.avg_nnz_per_row, 1.0, 0.1);
  EXPECT_NEAR(set.back().metrics.avg_nnz_per_row, 172.0, 10.0);
}

TEST(Dsab, SizeSetIsMonotoneInNnz) {
  const auto set = build_dsab_set(kSetSize, {.scale = 0.05});
  for (usize i = 1; i < set.size(); ++i) {
    EXPECT_GT(set[i].metrics.nnz, set[i - 1].metrics.nnz);
  }
}

TEST(Dsab, FullScaleSizeEndpointsMatchPaper) {
  // Only the two endpoint matrices at full scale (cheap to generate).
  const auto set = build_dsab_set(kSetSize, {});
  EXPECT_EQ(set.front().metrics.nnz, 48u);           // bcsstm01: 48 non-zeros
  EXPECT_NEAR(static_cast<double>(set.back().metrics.nnz), 3753461.0,
              3753461.0 * 0.05);                     // s3dkt3m2: ~3.75M
}

TEST(Dsab, DeterministicAcrossCalls) {
  const auto a = build_dsab_set(kSetAnz, {.scale = 0.05});
  const auto b = build_dsab_set(kSetAnz, {.scale = 0.05});
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(structurally_equal(a[i].matrix, b[i].matrix));
  }
}

TEST(ParallelSuite, MatchesInlineBuildEntryForEntry) {
  const SuiteOptions options{.scale = 0.05};
  const auto inline_suite = build_dsab_suite(options);
  ThreadPool pool(4);
  const auto pooled = build_dsab_suite(pool, options);
  ASSERT_EQ(pooled.size(), inline_suite.size());
  for (usize i = 0; i < pooled.size(); ++i) {
    SCOPED_TRACE(inline_suite[i].name);
    EXPECT_EQ(pooled[i].name, inline_suite[i].name);
    EXPECT_EQ(pooled[i].set, inline_suite[i].set);
    EXPECT_EQ(pooled[i].index, inline_suite[i].index);
    EXPECT_EQ(pooled[i].matrix.rows(), inline_suite[i].matrix.rows());
    EXPECT_EQ(pooled[i].matrix.cols(), inline_suite[i].matrix.cols());
    EXPECT_EQ(pooled[i].matrix.entries(), inline_suite[i].matrix.entries());
    const MatrixMetrics& a = pooled[i].metrics;
    const MatrixMetrics& b = inline_suite[i].metrics;
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.cols, b.cols);
    EXPECT_EQ(a.nnz, b.nnz);
    EXPECT_EQ(a.locality, b.locality);
    EXPECT_EQ(a.avg_nnz_per_row, b.avg_nnz_per_row);
  }
  // One set on the pool is the same slice of the suite.
  const auto anz = build_dsab_set(pool, kSetAnz, options);
  ASSERT_EQ(anz.size(), 10u);
  for (usize i = 0; i < anz.size(); ++i) {
    EXPECT_EQ(anz[i].matrix.entries(), inline_suite[10 + i].matrix.entries());
  }
}

// FNV digest of every suite matrix's name, dimensions and entries.
std::string suite_digest(const std::vector<SuiteMatrix>& suite) {
  testing::SimHash hash;
  for (const SuiteMatrix& entry : suite) {
    hash.update(entry.name);
    hash.update_u64(entry.matrix.rows());
    hash.update_u64(entry.matrix.cols());
    hash.update_u64(entry.matrix.nnz());
    for (const CooEntry& e : entry.matrix.entries()) {
      hash.update_u64(static_cast<u64>(e.row) << 32 | e.col);
      hash.update_u64(std::bit_cast<u32>(e.value));
    }
  }
  return hash.hex();
}

TEST(SuiteGolden, DigestsArePinned) {
  // Captured from the generators before Rng::sample_without_replacement
  // collected its draws into bitmaps; any change to the draws, their order
  // or the value stream moves them.
  struct Golden {
    double scale;
    u64 seed;
    const char* digest;
  };
  for (const Golden& golden : {
           Golden{0.05, 0xD5ABD5AB, "a033dab455d81243a100b8e4978027e0"},
           Golden{0.05, 77, "242dd6e99463cff59fee8b5f988c7d56"},
           Golden{0.3, 0xD5ABD5AB, "1d288374aebb92c895f9ba12fd8c6767"},
           Golden{0.3, 77, "ec166cff431c00cedc25c2f52580a929"},
       }) {
    ThreadPool pool(2);
    EXPECT_EQ(suite_digest(build_dsab_suite(pool, {.seed = golden.seed, .scale = golden.scale})),
              golden.digest)
        << "scale " << golden.scale << " seed " << golden.seed;
  }
}

}  // namespace
}  // namespace smtu::suite
