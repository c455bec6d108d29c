// Shared helpers for the smtu test suite.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
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
#include "serve/trace.hpp"
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

// The smtu-trace-v1 schema as a walk over a parsed DOM: the reference the
// streaming serve::parse_trace is fuzzed against (test_fuzz). It checks the
// document in a fixed order and stops at the first fault, so the streaming
// reader must report the same first fault whatever order the members come
// in. Numbers follow the same rule: an integral lexeme must fit the field
// exactly; any other number must be a non-negative integer in range as a
// double.
namespace trace_oracle {

template <typename T>
bool read_uint(const JsonValue& object, std::string_view key, T& out, std::string* error) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) return true;
  if (value->is_number()) {
    const JsonNumber& number = value->as_number();
    const u64 max = std::numeric_limits<T>::max();
    if (number.integral && !number.negative && number.integer <= max) {
      out = static_cast<T>(number.integer);
      return true;
    }
    const double real = number.value;
    if (!number.integral && real >= 0.0 && real < 0x1p64 && real == std::floor(real) &&
        static_cast<u64>(real) <= max) {
      out = static_cast<T>(real);
      return true;
    }
  }
  if (error != nullptr) {
    *error = format("\"%.*s\" is not an unsigned %zu-bit integer", static_cast<int>(key.size()),
                    key.data(), 8 * sizeof(T));
  }
  return false;
}

inline std::nullopt_t fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return std::nullopt;
}

inline std::nullopt_t fail_in(std::string* error, const std::string& where) {
  if (error != nullptr) error->insert(0, where);
  return std::nullopt;
}

inline double get_double(const JsonValue& object, std::string_view key, double fallback) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double() : fallback;
}

}  // namespace trace_oracle

inline std::optional<serve::Trace> parse_trace_dom(const JsonValue& document,
                                                   std::string* error = nullptr) {
  using namespace trace_oracle;
  using serve::ConfigSpec;
  using serve::Request;
  if (!document.is_object()) return fail(error, "trace is not a JSON object");
  const JsonValue* schema = document.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != "smtu-trace-v1") {
    return fail(error, "missing or wrong schema tag (expected \"smtu-trace-v1\")");
  }

  serve::Trace trace;
  if (!read_uint(document, "seed", trace.seed, error)) return std::nullopt;
  const JsonValue* set = document.find("set");
  if (set == nullptr || !set->is_string()) return fail(error, "missing \"set\" name");
  trace.set = set->as_string();
  if (const JsonValue* suite = document.find("suite"); suite != nullptr && suite->is_object()) {
    if (!read_uint(*suite, "seed", trace.suite.seed, error)) return fail_in(error, "suite ");
    trace.suite.scale = get_double(*suite, "scale", trace.suite.scale);
  }
  if (const JsonValue* arrival = document.find("arrival");
      arrival != nullptr && arrival->is_object()) {
    if (const JsonValue* mode = arrival->find("mode"); mode != nullptr && mode->is_string()) {
      trace.arrival.mode = mode->as_string();
    }
    trace.arrival.rate_rps = get_double(*arrival, "rate_rps", trace.arrival.rate_rps);
    trace.arrival.zipf_skew = get_double(*arrival, "zipf_skew", trace.arrival.zipf_skew);
    trace.arrival.hism_fraction =
        get_double(*arrival, "hism_fraction", trace.arrival.hism_fraction);
    trace.arrival.alt_config_fraction =
        get_double(*arrival, "alt_config_fraction", trace.arrival.alt_config_fraction);
    if (!read_uint(*arrival, "burst_on_us", trace.arrival.burst_on_us, error) ||
        !read_uint(*arrival, "burst_off_us", trace.arrival.burst_off_us, error)) {
      return fail_in(error, "arrival ");
    }
    trace.arrival.burst_multiplier =
        get_double(*arrival, "burst_multiplier", trace.arrival.burst_multiplier);
    trace.arrival.heavytail_alpha =
        get_double(*arrival, "heavytail_alpha", trace.arrival.heavytail_alpha);
  }

  const JsonValue* configs = document.find("configs");
  if (configs == nullptr || !configs->is_array() || configs->size() == 0) {
    return fail(error, "missing \"configs\" variant table");
  }
  for (const JsonValue& item : configs->items()) {
    if (!item.is_object()) return fail(error, "config variant is not an object");
    ConfigSpec spec;
    if (!read_uint(item, "section", spec.section, error) ||
        !read_uint(item, "stm_bandwidth", spec.stm_bandwidth, error) ||
        !read_uint(item, "stm_lines", spec.stm_lines, error)) {
      return fail_in(error, "config variant ");
    }
    trace.configs.push_back(spec);
  }
  if (!read_uint(document, "matrices", trace.matrix_count, error)) return std::nullopt;
  if (trace.matrix_count == 0) return fail(error, "missing or zero \"matrices\" count");

  const JsonValue* requests = document.find("requests");
  if (requests == nullptr || !requests->is_array()) {
    return fail(error, "missing \"requests\" array");
  }
  u64 previous_arrival = 0;
  for (const JsonValue& item : requests->items()) {
    if (!item.is_object()) return fail(error, "request is not an object");
    Request request;
    request.id = static_cast<u32>(trace.requests.size());
    if (!read_uint(item, "id", request.id, error)) return fail_in(error, "request ");
    // Absent indices default to one past the end, so they fail the range checks.
    request.matrix = trace.matrix_count;
    request.config = static_cast<u32>(trace.configs.size());
    if (!read_uint(item, "matrix", request.matrix, error) ||
        !read_uint(item, "config", request.config, error) ||
        !read_uint(item, "arrival_us", request.arrival_us, error)) {
      return fail_in(error, format("request %u: ", request.id));
    }
    if (request.matrix >= trace.matrix_count) {
      return fail(error, format("request %u: matrix index out of range", request.id));
    }
    const JsonValue* kernel = item.find("kernel");
    if (kernel == nullptr || !kernel->is_string() ||
        !serve::kernel_from_name(kernel->as_string(), request.kernel)) {
      return fail(error, format("request %u: unknown kernel", request.id));
    }
    if (request.config >= trace.configs.size()) {
      return fail(error, format("request %u: config index out of range", request.id));
    }
    if (request.arrival_us < previous_arrival) {
      return fail(error, format("request %u: arrival_us decreases", request.id));
    }
    previous_arrival = request.arrival_us;
    trace.requests.push_back(request);
  }
  if (trace.requests.empty()) return fail(error, "trace has no requests");
  return trace;
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
