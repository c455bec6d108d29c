#include "suite/generators.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace smtu::suite {
namespace {

float nonzero_value(Rng& rng) { return static_cast<float>(rng.uniform(0.1, 1.0)); }

}  // namespace

Coo gen_diagonal(Index n, Rng& rng) {
  Coo coo(n, n);
  for (Index i = 0; i < n; ++i) coo.add(i, i, nonzero_value(rng));
  coo.canonicalize();
  return coo;
}

Coo gen_tridiagonal(Index n, Rng& rng) {
  Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    if (i > 0) coo.add(i, i - 1, nonzero_value(rng));
    coo.add(i, i, nonzero_value(rng));
    if (i + 1 < n) coo.add(i, i + 1, nonzero_value(rng));
  }
  coo.canonicalize();
  return coo;
}

Coo gen_random_uniform(Index rows, Index cols, usize nnz, Rng& rng) {
  SMTU_CHECK_MSG(nnz <= rows * cols, "more non-zeros than cells");
  Coo coo(rows, cols);
  const std::vector<u64> cells = rng.sample_without_replacement(rows * cols, nnz);
  for (const u64 cell : cells) coo.add(cell / cols, cell % cols, nonzero_value(rng));
  coo.canonicalize();
  return coo;
}

Coo gen_banded_rows(Index n, u32 per_row, u32 spread, Rng& rng) {
  SMTU_CHECK_MSG(per_row >= 1, "per_row must be positive");
  SMTU_CHECK_MSG(2ull * spread + 1 >= per_row, "window too narrow for per_row columns");
  Coo coo(n, n);
  coo.entries().reserve(n * per_row);
  for (Index i = 0; i < n; ++i) {
    const Index lo = i > spread ? i - spread : 0;
    const Index hi = std::min<Index>(n - 1, i + spread);
    const Index width = hi - lo + 1;
    const u32 take = static_cast<u32>(std::min<u64>(per_row, width));
    for (const u64 offset : rng.sample_without_replacement(width, take)) {
      coo.add(i, lo + offset, nonzero_value(rng));
    }
  }
  coo.canonicalize();
  return coo;
}

Coo gen_block_clusters(Index n, usize blocks, u32 per_block, Rng& rng) {
  constexpr Index kBlockDim = 32;  // the paper's locality metric block size
  SMTU_CHECK_MSG(n % kBlockDim == 0, "dimension must be a multiple of 32");
  SMTU_CHECK_MSG(per_block >= 1 && per_block <= kBlockDim * kBlockDim,
                 "per_block must fit a 32x32 block");
  const Index grid = n / kBlockDim;
  SMTU_CHECK_MSG(blocks <= grid * grid, "more clusters than grid blocks");

  Coo coo(n, n);
  const std::vector<u64> chosen_blocks = rng.sample_without_replacement(grid * grid, blocks);
  for (const u64 block : chosen_blocks) {
    const Index block_row = (block / grid) * kBlockDim;
    const Index block_col = (block % grid) * kBlockDim;
    for (const u64 cell :
         rng.sample_without_replacement(kBlockDim * kBlockDim, per_block)) {
      coo.add(block_row + cell / kBlockDim, block_col + cell % kBlockDim,
              nonzero_value(rng));
    }
  }
  coo.canonicalize();
  return coo;
}

Coo gen_stencil5(Index grid, Rng& rng) {
  const Index n = grid * grid;
  Coo coo(n, n);
  for (Index y = 0; y < grid; ++y) {
    for (Index x = 0; x < grid; ++x) {
      const Index node = y * grid + x;
      coo.add(node, node, nonzero_value(rng));
      if (x > 0) coo.add(node, node - 1, nonzero_value(rng));
      if (x + 1 < grid) coo.add(node, node + 1, nonzero_value(rng));
      if (y > 0) coo.add(node, node - grid, nonzero_value(rng));
      if (y + 1 < grid) coo.add(node, node + grid, nonzero_value(rng));
    }
  }
  coo.canonicalize();
  return coo;
}

Coo gen_stencil9(Index grid, Rng& rng) {
  const Index n = grid * grid;
  Coo coo(n, n);
  for (Index y = 0; y < grid; ++y) {
    for (Index x = 0; x < grid; ++x) {
      const Index node = y * grid + x;
      for (i64 dy = -1; dy <= 1; ++dy) {
        for (i64 dx = -1; dx <= 1; ++dx) {
          const i64 nx = static_cast<i64>(x) + dx;
          const i64 ny = static_cast<i64>(y) + dy;
          if (nx < 0 || ny < 0 || nx >= static_cast<i64>(grid) || ny >= static_cast<i64>(grid))
            continue;
          coo.add(node, static_cast<Index>(ny) * grid + static_cast<Index>(nx),
                  nonzero_value(rng));
        }
      }
    }
  }
  coo.canonicalize();
  return coo;
}

Coo gen_dense(Index rows, Index cols, Rng& rng) {
  Coo coo(rows, cols);
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) coo.add(r, c, nonzero_value(rng));
  }
  coo.canonicalize();
  return coo;
}

Coo gen_powerlaw_rows(Index n, usize target_nnz, double alpha, Rng& rng) {
  SMTU_CHECK_MSG(alpha > 0, "alpha must be positive");
  // Draw raw row weights w_i = (i+1)^-alpha, scale to the target total.
  std::vector<double> weight(n);
  double total = 0;
  for (Index i = 0; i < n; ++i) {
    weight[i] = std::pow(static_cast<double>(i + 1), -alpha);
    total += weight[i];
  }
  Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    const u64 len = std::min<u64>(
        n, std::max<u64>(1, static_cast<u64>(std::llround(
                                weight[i] / total * static_cast<double>(target_nnz)))));
    for (const u64 col : rng.sample_without_replacement(n, len)) {
      coo.add(i, col, nonzero_value(rng));
    }
  }
  coo.canonicalize();
  return coo;
}

}  // namespace smtu::suite
