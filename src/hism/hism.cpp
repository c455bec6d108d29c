#include "hism/hism.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu {
void sort_block_row_major(BlockArray& block) {
  const usize n = block.size();
  std::vector<u32> order(n);
  for (usize i = 0; i < n; ++i) order[i] = static_cast<u32>(i);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    const BlockPos& pa = block.pos[a];
    const BlockPos& pb = block.pos[b];
    return pa.row != pb.row ? pa.row < pb.row : pa.col < pb.col;
  });

  BlockArray sorted;
  sorted.pos.reserve(n);
  sorted.slot.reserve(n);
  if (!block.child_len.empty()) sorted.child_len.reserve(n);
  for (const u32 i : order) {
    sorted.pos.push_back(block.pos[i]);
    sorted.slot.push_back(block.slot[i]);
    if (!block.child_len.empty()) sorted.child_len.push_back(block.child_len[i]);
  }
  block = std::move(sorted);
}

HismMatrix HismMatrix::from_coo(const Coo& coo, u32 section, HighLevelOrder high_order) {
  SMTU_CHECK_MSG(section >= 2 && section <= kMaxSection, "section size must be in [2, 256]");

  Coo storage;
  const Coo& canonical = canonical_form(coo, storage);
  const std::vector<CooEntry>& entries = canonical.entries();
  const usize n = entries.size();
  SMTU_CHECK_MSG(n <= 0xffffffffULL, "HiSM construction uses 32-bit entry indices");

  HismMatrix hism;
  hism.section_ = section;
  hism.rows_ = canonical.rows();
  hism.cols_ = canonical.cols();

  const Index max_dim = std::max<Index>({canonical.rows(), canonical.cols(), 1});
  const u32 levels = std::max<u32>(1, log_ceil(max_dim, section));
  hism.levels_.resize(levels);

  // digits[k][i]: entry i's position inside its level-k block, i.e. its
  // base-s row and column digits k (§III: i = i_0 + i_1 s + ... + i_q s^q).
  // Canonical input is row-major, so row digits change only with the row.
  std::vector<std::vector<BlockPos>> digits(levels, std::vector<BlockPos>(n));
  std::vector<u8> row_digits(levels);
  for (usize i = 0; i < n; ++i) {
    if (i == 0 || entries[i].row != entries[i - 1].row) {
      Index row = entries[i].row;
      for (u32 k = 0; k < levels; ++k, row /= section) {
        row_digits[k] = static_cast<u8>(row % section);
      }
    }
    Index col = entries[i].col;
    for (u32 k = 0; k < levels; ++k, col /= section) {
      digits[k][i] = {row_digits[k], static_cast<u8>(col % section)};
    }
  }

  // Hierarchical order: most-significant digit pairs first, so every block
  // at every level is a contiguous run, already in the requested storage
  // order. The row-major input is that order within each level-0 block, so
  // a stable LSD counting sort (histogram, prefix sum, scatter) over the
  // level >= 1 digit pairs, lowest level first, finishes it. Keys are unique
  // for canonical input, which makes the order — and the image — unique.
  const bool col_first = high_order == HighLevelOrder::kColMajor;
  const u32 buckets = section * section;
  std::vector<u32> order(n);
  for (usize i = 0; i < n; ++i) order[i] = static_cast<u32>(i);
  std::vector<u32> scattered(n);
  std::vector<u32> next(buckets + 1);
  for (u32 k = 1; k < levels; ++k) {
    const std::vector<BlockPos>& level_digits = digits[k];
    const auto bucket = [&](u32 i) {
      const BlockPos pos = level_digits[i];
      return col_first ? pos.col * section + pos.row : pos.row * section + pos.col;
    };
    std::fill(next.begin(), next.end(), 0);
    for (const u32 i : order) ++next[bucket(i) + 1];
    // Every entry in one bucket: the pass would be the identity.
    if (std::find(next.begin(), next.end(), static_cast<u32>(n)) != next.end()) continue;
    for (u32 b = 0; b < buckets; ++b) next[b + 1] += next[b];
    for (const u32 i : order) scattered[next[bucket(i)]++] = i;
    order.swap(scattered);
  }
  std::vector<u32>().swap(scattered);  // freed before the block pools grow

  // Bottom-up over the ordered runs. `members` lists, in order, what level k
  // groups into blocks — entries at level 0, then the level k-1 blocks, each
  // represented by its first entry (whose digits above k-1 are the block's).
  // Pools therefore fill in hierarchical order, so the child of member m at
  // level k >= 1 is block m of level k-1.
  const auto same_parent = [&](u32 a, u32 b, u32 level) {
    for (u32 k = level + 1; k < levels; ++k) {
      if (!(digits[k][a] == digits[k][b])) return false;
    }
    return true;
  };
  std::vector<u32> members = std::move(order);
  for (u32 level = 0; level < levels; ++level) {
    const bool top = level + 1 == levels;
    std::vector<BlockArray>& pool = hism.levels_[level];
    std::vector<u32> parents;
    for (usize begin = 0; begin < members.size() || (top && pool.empty());) {
      usize end = top ? members.size() : begin + 1;
      while (end < members.size() && same_parent(members[begin], members[end], level)) ++end;
      BlockArray block;
      block.pos.reserve(end - begin);
      block.slot.reserve(end - begin);
      if (level > 0) block.child_len.reserve(end - begin);
      for (usize m = begin; m < end; ++m) {
        block.pos.push_back(digits[level][members[m]]);
        if (level == 0) {
          block.slot.push_back(std::bit_cast<u32>(entries[members[m]].value));
        } else {
          block.slot.push_back(static_cast<u32>(m));
          // Length of the child block-array itself (its entry count), not of
          // the element range it covers — they differ above level 1.
          block.child_len.push_back(static_cast<u32>(hism.levels_[level - 1][m].size()));
        }
      }
      pool.push_back(std::move(block));
      if (!top) parents.push_back(members[begin]);
      begin = end;
    }
    members = std::move(parents);
  }
  hism.root_id_ = 0;
  return hism;
}

HismMatrix HismMatrix::assemble(u32 section, Index rows, Index cols,
                                std::vector<std::vector<BlockArray>> levels, u32 root_id) {
  HismMatrix hism;
  hism.section_ = section;
  hism.rows_ = rows;
  hism.cols_ = cols;
  hism.levels_ = std::move(levels);
  hism.root_id_ = root_id;
  SMTU_CHECK_MSG(hism.validate(), "assembled HiSM matrix is structurally invalid");
  return hism;
}

Coo HismMatrix::to_coo() const {
  Coo coo(rows_, cols_);
  coo.entries().reserve(nnz());

  struct Walker {
    const HismMatrix& hism;
    Coo& coo;

    void walk(const BlockArray& block, u32 level, Index row_off, Index col_off) {
      const u64 span = ipow(hism.section_, level);
      for (usize i = 0; i < block.size(); ++i) {
        const Index row = row_off + block.pos[i].row * span;
        const Index col = col_off + block.pos[i].col * span;
        if (level == 0) {
          coo.entries().push_back(
              {static_cast<u32>(row), static_cast<u32>(col), std::bit_cast<float>(block.slot[i])});
        } else {
          walk(hism.levels_[level - 1][block.slot[i]], level - 1, row, col);
        }
      }
    }
  };

  if (!levels_.empty()) {
    Walker{*this, coo}.walk(root(), num_levels() - 1, 0, 0);
  }
  coo.canonicalize();
  return coo;
}

usize HismMatrix::nnz() const {
  usize total = 0;
  if (!levels_.empty()) {
    for (const BlockArray& block : levels_[0]) total += block.size();
  }
  return total;
}

const std::vector<BlockArray>& HismMatrix::level(u32 k) const {
  SMTU_CHECK(k < levels_.size());
  return levels_[k];
}

std::vector<BlockArray>& HismMatrix::level(u32 k) {
  SMTU_CHECK(k < levels_.size());
  return levels_[k];
}

bool HismMatrix::validate() const {
  if (levels_.empty()) return false;
  if (section_ < 2 || section_ > kMaxSection) return false;
  if (root_id_ >= levels_.back().size()) return false;

  // The padded dimension s^q must cover the matrix.
  if (ipow(section_, num_levels()) < std::max<Index>({rows_, cols_, 1})) return false;

  std::vector<std::vector<u32>> reference_count(levels_.size());
  for (u32 k = 0; k + 1 < num_levels(); ++k) {
    reference_count[k].assign(levels_[k].size(), 0);
  }

  for (u32 k = 0; k < num_levels(); ++k) {
    for (const BlockArray& block : levels_[k]) {
      if (block.slot.size() != block.pos.size()) return false;
      const bool has_children = k > 0;
      if (has_children && block.child_len.size() != block.pos.size()) return false;
      if (!has_children && !block.child_len.empty()) return false;
      if (block.size() > static_cast<usize>(section_) * section_) return false;
      // Entries must be strictly sorted: row-major always qualifies; levels
      // above 0 may instead be column-major (the paper's free choice).
      bool row_major_ok = true;
      bool col_major_ok = k > 0;
      for (usize i = 1; i < block.size(); ++i) {
        const BlockPos& prev = block.pos[i - 1];
        const BlockPos& cur = block.pos[i];
        if (!(prev.row != cur.row ? prev.row < cur.row : prev.col < cur.col)) {
          row_major_ok = false;
        }
        if (!(prev.col != cur.col ? prev.col < cur.col : prev.row < cur.row)) {
          col_major_ok = false;
        }
      }
      if (!row_major_ok && !col_major_ok) return false;
      for (usize i = 0; i < block.size(); ++i) {
        if (block.pos[i].row >= section_ || block.pos[i].col >= section_) return false;
        if (has_children) {
          const u32 child = block.slot[i];
          if (child >= levels_[k - 1].size()) return false;
          if (block.child_len[i] != levels_[k - 1][child].size()) return false;
          reference_count[k - 1][child]++;
        }
      }
    }
  }

  // Every non-root block must be referenced exactly once (tree shape).
  for (u32 k = 0; k + 1 < num_levels(); ++k) {
    for (const u32 count : reference_count[k]) {
      if (count != 1) return false;
    }
  }
  return true;
}

}  // namespace smtu
