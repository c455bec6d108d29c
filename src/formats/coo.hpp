// Coordinate (COO) sparse matrix: the interchange format of this project.
//
// Every other representation (CSR, JD, HiSM, simulator memory images)
// converts to and from COO, and correctness of a transposition is always
// established by comparing canonical COO forms.
#pragma once

#include <cstdint>
#include <vector>

#include "support/types.hpp"

namespace smtu {

// 12 bytes: 32-bit coordinates, like the CRS JA/IA arrays the kernels stage.
// A Coo's dimensions are at most kMaxCooDim, so every coordinate fits.
struct CooEntry {
  u32 row = 0;
  u32 col = 0;
  float value = 0.0f;

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};
static_assert(sizeof(CooEntry) == 12);

inline constexpr Index kMaxCooDim = UINT32_MAX;

class Coo {
 public:
  Coo() = default;
  // Dimensions above kMaxCooDim abort.
  Coo(Index rows, Index cols);
  Coo(Index rows, Index cols, std::vector<CooEntry> entries);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  usize nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<CooEntry>& entries() const { return entries_; }
  std::vector<CooEntry>& entries() { return entries_; }

  // Appends an entry; bounds-checked (so both coordinates fit in 32 bits).
  void add(Index row, Index col, float value);

  // Sorts row-major, merges duplicate coordinates by summation, and drops
  // explicit zeros produced by merging. Idempotent; a canonical matrix is
  // left as is after one linear check.
  void canonicalize();
  bool is_canonical() const;

  // Returns the transpose (rows/cols swapped, each entry mirrored), canonical.
  // A counting sort by column (histogram, prefix sum, scatter): linear in
  // nnz + cols for canonical input.
  Coo transposed() const;

  // Average number of non-zeros per row (the paper's ANZ metric).
  double avg_nnz_per_row() const;

  // Exact structural + value equality after canonicalization of both sides.
  // Transposition never changes values, so exact float compare is correct.
  friend bool structurally_equal(Coo lhs, Coo rhs);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<CooEntry> entries_;
};

// `coo` itself when it is already canonical, otherwise a canonical copy held
// in `storage`: conversions read canonical entries without copying input
// that needs no work.
const Coo& canonical_form(const Coo& coo, Coo& storage);

}  // namespace smtu
