// Shared helpers for the smtu test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "formats/coo.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace smtu::testing {

// Builds a COO matrix from an initializer list of (row, col, value).
inline Coo make_coo(Index rows, Index cols,
                    std::initializer_list<std::tuple<Index, Index, float>> entries) {
  Coo coo(rows, cols);
  for (const auto& [r, c, v] : entries) coo.add(r, c, v);
  coo.canonicalize();
  return coo;
}

// Random matrix with `nnz` distinct positions (deterministic in the rng).
inline Coo random_coo(Index rows, Index cols, usize nnz, Rng& rng) {
  Coo coo(rows, cols);
  for (const u64 cell : rng.sample_without_replacement(rows * cols, nnz)) {
    coo.add(cell / cols, cell % cols, static_cast<float>(rng.uniform(0.5, 2.0)));
  }
  coo.canonicalize();
  return coo;
}

// gtest matcher-style assertion: two matrices are structurally identical.
inline ::testing::AssertionResult coo_equal(const Coo& lhs, const Coo& rhs) {
  if (structurally_equal(lhs, rhs)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "matrices differ: lhs " << lhs.rows() << "x" << lhs.cols() << "/" << lhs.nnz()
         << " vs rhs " << rhs.rows() << "x" << rhs.cols() << "/" << rhs.nnz();
}

// Two float vectors hold the same bits element for element.
inline ::testing::AssertionResult floats_bit_equal(const std::vector<float>& lhs,
                                                   const std::vector<float>& rhs) {
  if (lhs.size() != rhs.size()) {
    return ::testing::AssertionFailure() << "sizes " << lhs.size() << " vs " << rhs.size();
  }
  for (usize i = 0; i < lhs.size(); ++i) {
    if (std::bit_cast<u32>(lhs[i]) != std::bit_cast<u32>(rhs[i])) {
      return ::testing::AssertionFailure() << "first difference at " << i << ": " << lhs[i]
                                           << " vs " << rhs[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// 128-bit content hash as 32 lowercase hex digits (two FNV-1a-64 streams
// with distinct offset bases). Stable across platforms and runs: the golden
// tests pin captured images and results by it, so it must never change.
class SimHash {
 public:
  SimHash() : lo_(kFnvOffset), hi_(kFnvOffsetAlt) {}

  void update(std::span<const u8> data) {
    u64 lo = lo_;
    u64 hi = hi_;
    for (const u8 byte : data) {
      lo = (lo ^ byte) * kFnvPrime;
      hi = (hi ^ byte) * kFnvPrime;
    }
    lo_ = lo;
    hi_ = hi;
  }

  void update(std::string_view text) {
    update(std::span<const u8>(reinterpret_cast<const u8*>(text.data()), text.size()));
  }

  void update_u64(u64 value) {
    u8 bytes[8];
    for (u32 i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(value >> (8 * i));
    update(std::span<const u8>(bytes, 8));
  }

  std::string hex() const {
    return format("%016llx%016llx", static_cast<unsigned long long>(hi_),
                  static_cast<unsigned long long>(lo_));
  }

 private:
  static constexpr u64 kFnvPrime = 1099511628211ull;
  static constexpr u64 kFnvOffset = 14695981039346656037ull;
  // Second stream: a distinct offset basis keeps the two 64-bit hashes
  // decorrelated enough for content addressing.
  static constexpr u64 kFnvOffsetAlt = kFnvOffset ^ 0x9e3779b97f4a7c15ull;

  u64 lo_;
  u64 hi_;
};

}  // namespace smtu::testing
