// Shared helpers for the smtu test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "hism/hism.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "vsim/machine.hpp"

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

// Most kernel tests are about the decoded result. These stage the matrix,
// run the kernel's one runner with a decode output and return what it
// decoded; a non-null `stats` receives the run's statistics.
inline HismMatrix simulated_hism_transpose(const HismMatrix& hism,
                                           const vsim::MachineConfig& config,
                                           vsim::RunStats* stats = nullptr,
                                           bool split_drain_registers = false) {
  HismMatrix transposed;
  const vsim::RunStats run = kernels::time_hism_transpose(
      kernels::build_hism_stage(hism), config, split_drain_registers, nullptr, nullptr,
      &transposed);
  if (stats != nullptr) *stats = run;
  return transposed;
}

inline Coo simulated_crs_transpose(const Csr& csr, const vsim::MachineConfig& config,
                                   vsim::RunStats* stats = nullptr,
                                   const kernels::CrsKernelOptions& options = {}) {
  Coo transposed;
  const vsim::RunStats run = kernels::time_crs_transpose(kernels::build_crs_stage(csr), config,
                                                         options, nullptr, &transposed);
  if (stats != nullptr) *stats = run;
  return transposed;
}

// Rebuilds RunStats from a parsed object written by vsim::write_run_stats_json.
// Returns nullopt if any counter key is missing or non-numeric. The key list
// is spelled out here, apart from the writer's, so a round trip checks the
// writer against it.
inline std::optional<vsim::RunStats> run_stats_from_json(const JsonValue& value) {
  using vsim::RunStats;
  static constexpr std::pair<const char*, u64 RunStats::*> kFields[] = {
      {"cycles", &RunStats::cycles},
      {"instructions", &RunStats::instructions},
      {"scalar_instructions", &RunStats::scalar_instructions},
      {"vector_instructions", &RunStats::vector_instructions},
      {"vector_elements", &RunStats::vector_elements},
      {"mem_contiguous_bytes", &RunStats::mem_contiguous_bytes},
      {"mem_indexed_elements", &RunStats::mem_indexed_elements},
      {"stm_blocks", &RunStats::stm_blocks},
      {"stm_write_cycles", &RunStats::stm_write_cycles},
      {"stm_read_cycles", &RunStats::stm_read_cycles},
      {"stm_elements", &RunStats::stm_elements},
      {"vmem_busy_cycles", &RunStats::vmem_busy_cycles},
      {"valu_busy_cycles", &RunStats::valu_busy_cycles},
      {"stm_busy_cycles", &RunStats::stm_busy_cycles},
  };
  if (!value.is_object()) return std::nullopt;
  RunStats stats;
  for (const auto& [key, member] : kFields) {
    const JsonValue* counter = value.find(key);
    if (counter == nullptr || !counter->is_number()) return std::nullopt;
    stats.*member = counter->as_u64();
  }
  return stats;
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
