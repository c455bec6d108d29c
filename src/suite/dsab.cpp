#include "suite/dsab.hpp"

#include <cmath>
#include <functional>

#include "suite/generators.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace smtu::suite {
namespace {

struct Spec {
  const char* name;
  // Approximate non-zeros at full scale: the generation cost, by which the
  // slots are dispatched largest first.
  usize nnz;
  std::function<Coo(double scale, Rng& rng)> generate;
};

Index scaled_dim(Index dim, double scale, Index min_dim = 8) {
  return std::max<Index>(min_dim, static_cast<Index>(std::llround(static_cast<double>(dim) * scale)));
}

usize scaled_count(usize count, double scale, usize min_count = 4) {
  return std::max<usize>(min_count,
                         static_cast<usize>(std::llround(static_cast<double>(count) * scale)));
}

// ---- Locality set: 32x32 clusters with exactly per_block non-zeros, so the
// paper's locality metric equals per_block/32 by construction. Targets are
// log-spaced over the paper's 0.07 .. 12.85 range.
std::vector<Spec> locality_specs() {
  struct P {
    const char* name;
    u32 per_block;
  };
  // per_block = round(32 * locality_target)
  static constexpr P kParams[] = {
      {"bcspwr10-syn", 2},    {"memplus-syn", 4},    {"gemat11-syn", 7},
      {"sherman5-syn", 13},   {"mcfe-syn", 23},      {"fs_541_1-syn", 40},
      {"bcsstk08-syn", 72},   {"s2rmq4m1-syn", 129}, {"psmigr_2-syn", 230},
      {"qc324-syn", 411},
  };
  std::vector<Spec> specs;
  for (const P& p : kParams) {
    specs.push_back({p.name, 60000, [per_block = p.per_block](double scale, Rng& rng) {
                       // ~60k non-zeros at full scale, on an 8192^2 matrix.
                       const usize blocks =
                           scaled_count(60000 / per_block + 1, scale, 2);
                       Index dim = 8192;
                       while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim *= 2;
                       dim = std::max<Index>(
                           64, (scaled_dim(dim, std::sqrt(scale), 64) + 31) / 32 * 32);
                       while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim += 32;
                       return gen_block_clusters(dim, blocks, per_block, rng);
                     }});
  }
  return specs;
}

// ---- ANZ set: per-row non-zero counts log-spaced over 1 .. 172, drawn from
// a banded window so locality rises with ANZ (the correlation §IV-D notes
// for the original set). Dimensions follow the D-SAB anchors — the real
// bcsstm20 is 485x485 and psmigr_1 is 3140x3140 — so small low-ANZ matrices
// carry realistic per-matrix overheads.
std::vector<Spec> anz_specs() {
  struct P {
    const char* name;
    u32 per_row;
    Index dim;
  };
  static constexpr P kParams[] = {
      {"bcsstm20-syn", 1, 485},    {"nos4-syn", 2, 597},
      {"bcspwr09-syn", 3, 734},    {"bcsstk22-syn", 6, 903},
      {"plat1919-syn", 10, 1111},  {"gr_30_30-syn", 17, 1367},
      {"s1rmq4m1-syn", 31, 1682},  {"bcsstk24-syn", 55, 2069},
      {"e20r0000-syn", 97, 2546},  {"psmigr_1-syn", 172, 3140},
  };
  std::vector<Spec> specs;
  for (const P& p : kParams) {
    specs.push_back({p.name, usize{p.per_row} * p.dim,
                     [per_row = p.per_row, dim = p.dim](double scale, Rng& rng) {
                       const Index n = scaled_dim(dim, scale, 128);
                       if (per_row == 1) return gen_diagonal(n, rng);
                       const u32 spread = std::max<u32>(per_row, 8);
                       return gen_banded_rows(n, per_row, spread, rng);
                     }});
  }
  return specs;
}

// ---- Size set: total non-zeros log-spaced over 48 .. 3.75M with a mix of
// pattern families (diagonal, band, FEM stencils, uniform scatter, dense
// clusters), mirroring the variety of the original selection.
std::vector<Spec> size_specs() {
  std::vector<Spec> specs;
  specs.push_back({"bcsstm01-syn", 48, [](double scale, Rng& rng) {
                     return gen_diagonal(scaled_dim(48, scale), rng);
                   }});
  specs.push_back({"bcsstm02-syn", 169, [](double scale, Rng& rng) {
                     return gen_tridiagonal(scaled_dim(57, scale), rng);
                   }});
  specs.push_back({"can_161-syn", 561, [](double scale, Rng& rng) {
                     return gen_stencil5(scaled_dim(11, std::sqrt(scale), 4), rng);
                   }});
  specs.push_back({"dwt_992-syn", 2121, [](double scale, Rng& rng) {
                     return gen_stencil5(scaled_dim(21, std::sqrt(scale), 4), rng);
                   }});
  specs.push_back({"west0989-syn", 7203, [](double scale, Rng& rng) {
                     // Wide scatter (<2 non-zeros per 32x32 block): the
                     // size set's low-locality representative.
                     const Index n = scaled_dim(2048, std::sqrt(scale), 64);
                     return gen_random_uniform(n, n, scaled_count(7203, scale), rng);
                   }});
  specs.push_back({"sherman3-syn", 25208, [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(3151, scale, 64), 8, 16, rng);
                   }});
  specs.push_back({"cage10-syn", 88804, [](double scale, Rng& rng) {
                     return gen_stencil9(scaled_dim(100, std::sqrt(scale), 8), rng);
                   }});
  specs.push_back({"memplus2-syn", 307200, [](double scale, Rng& rng) {
                     const usize blocks = scaled_count(4800, scale, 4);
                     Index dim = 16384;
                     while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim *= 2;
                     dim = std::max<Index>(
                         64, (scaled_dim(dim, std::sqrt(scale), 64) + 31) / 32 * 32);
                     while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim += 32;
                     return gen_block_clusters(dim, blocks, 64, rng);
                   }});
  specs.push_back({"bcsstk30-syn", 1080875, [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(43235, scale, 128), 25, 50, rng);
                   }});
  specs.push_back({"s3dkt3m2-syn", 3753708, [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(89374, scale, 256), 42, 84, rng);
                   }});
  return specs;
}

std::vector<Spec> set_specs(const std::string& set) {
  if (set == kSetLocality) return locality_specs();
  if (set == kSetAnz) return anz_specs();
  if (set == kSetSize) return size_specs();
  SMTU_CHECK_MSG(false, "unknown suite set: " + set);
  return {};
}

struct Slot {
  std::string set;
  u32 index = 0;
  Spec spec;
};

// Every slot of `sets`, in order, generated on the pool largest first. Each
// slot draws from its own Rng stream, so the matrices do not depend on the
// schedule.
std::vector<SuiteMatrix> build_sets(ThreadPool& pool, std::initializer_list<std::string> sets,
                                    const SuiteOptions& options) {
  SMTU_CHECK_MSG(options.scale > 0.0 && options.scale <= 1.0, "scale must be in (0, 1]");
  std::vector<Slot> slots;
  for (const std::string& set : sets) {
    u32 index = 0;
    for (Spec& spec : set_specs(set)) slots.push_back({set, index++, std::move(spec)});
  }
  return parallel_map(
      pool, slots,
      [&](const Slot& slot) {
        // Independent stream per slot so scaling one matrix never shifts others.
        Rng rng(options.seed ^
                (static_cast<u64>(std::hash<std::string>{}(slot.spec.name)) * 0x9e37ULL));
        SuiteMatrix entry;
        entry.name = slot.spec.name;
        entry.set = slot.set;
        entry.index = slot.index;
        entry.matrix = slot.spec.generate(options.scale, rng);
        entry.metrics = compute_metrics(entry.matrix);
        return entry;
      },
      [](const Slot& slot) { return slot.spec.nnz; });
}

}  // namespace

std::vector<SuiteMatrix> build_dsab_set(ThreadPool& pool, const std::string& set,
                                        const SuiteOptions& options) {
  return build_sets(pool, {set}, options);
}

std::vector<SuiteMatrix> build_dsab_suite(ThreadPool& pool, const SuiteOptions& options) {
  return build_sets(pool, {kSetLocality, kSetAnz, kSetSize}, options);
}

std::vector<SuiteMatrix> build_dsab_set(const std::string& set, const SuiteOptions& options) {
  ThreadPool inline_pool(1);
  return build_dsab_set(inline_pool, set, options);
}

std::vector<SuiteMatrix> build_dsab_suite(const SuiteOptions& options) {
  ThreadPool inline_pool(1);
  return build_dsab_suite(inline_pool, options);
}

}  // namespace smtu::suite
