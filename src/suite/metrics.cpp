#include "suite/metrics.hpp"

#include <algorithm>
#include <vector>

namespace smtu::suite {

MatrixMetrics compute_metrics(const Coo& matrix) {
  constexpr Index kBlockDim = 32;

  MatrixMetrics metrics;
  metrics.rows = matrix.rows();
  metrics.cols = matrix.cols();
  metrics.nnz = matrix.nnz();
  metrics.avg_nnz_per_row = matrix.avg_nnz_per_row();

  if (matrix.nnz() == 0) return metrics;

  // Distinct non-empty blocks in one pass over row-major entries: a block
  // row's entries are contiguous, so a block column is new to the current
  // block row unless it was stamped with it. Row-sorted input (every
  // canonical COO) is read in place; anything else is sorted by row first.
  const std::vector<CooEntry>* entries = &matrix.entries();
  std::vector<CooEntry> by_row;
  const auto row_less = [](const CooEntry& a, const CooEntry& b) { return a.row < b.row; };
  if (!std::is_sorted(entries->begin(), entries->end(), row_less)) {
    by_row = *entries;
    std::sort(by_row.begin(), by_row.end(), row_less);
    entries = &by_row;
  }
  constexpr Index kUnstamped = ~Index{0};
  std::vector<Index> stamp((matrix.cols() + kBlockDim - 1) / kBlockDim, kUnstamped);
  u64 blocks = 0;
  for (const CooEntry& e : *entries) {
    Index& block_row = stamp[e.col / kBlockDim];
    if (block_row != e.row / kBlockDim) {
      block_row = e.row / kBlockDim;
      ++blocks;
    }
  }
  // Every non-zero lies in exactly one non-empty block.
  metrics.locality = static_cast<double>(matrix.nnz()) /
                     (static_cast<double>(blocks) * kBlockDim);
  return metrics;
}

}  // namespace smtu::suite
