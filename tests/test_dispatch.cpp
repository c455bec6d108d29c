// Golden corpus for the threaded-code interpreter (handlers bound at decode
// time, SoA ExecState). Every representative kernel class runs on a random
// matrix and on the degenerate shapes — empty, 1 x n, n x 1, one fully dense
// s x s block — and each run must reproduce, bit for bit, the values frozen
// in corpus() below:
//
//  * every RunStats field, per core, plus the system totals (cycles,
//    barriers, bank-contention counters);
//  * the profiler's full stall_cycles() and busy_cycles() arrays, per core;
//  * a SimHash of the raw memory image (single-core HiSM transpose) or of
//    the result bits (every other kernel class).
//
// The corpus was captured from the legacy switch interpreter — an
// independent per-element implementation of every opcode — before it was
// retired, so this test keeps the differential check that interpreter gave.
// A timing or functional change to a handler these kernels run shows up as
// a changed entry; regenerate an entry (the failure prints the observed
// record in source form) only for a deliberate change of the timing model,
// and say so.
//
// Every run is also bit-checked against its host reference, so a corpus
// entry can never freeze a wrong answer.
//
// Each input runs twice: once profiled (the Machine's observed handlers)
// and once with nothing attached (the unobserved handlers, which compile
// the profiler and trace hooks out). The unobserved run has no profile, so
// it must match its record's stats, system totals and hash.
//
// Also covers the hoisted span bounds check of the contiguous vector memory
// paths: out-of-range accesses abort with the per-element diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/shard.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/sell_spmv.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/system.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::floats_bit_equal;
using testing::random_coo;

// ---- Record layout ---------------------------------------------------------

constexpr usize kStatCount = 14;
constexpr const char* kStatNames[kStatCount] = {
    "cycles",           "instructions",     "scalar_instructions",  "vector_instructions",
    "vector_elements",  "mem_contiguous_bytes", "mem_indexed_elements", "stm_blocks",
    "stm_write_cycles", "stm_read_cycles",  "stm_elements",         "vmem_busy_cycles",
    "valu_busy_cycles", "stm_busy_cycles"};

std::array<u64, kStatCount> stat_fields(const vsim::RunStats& s) {
  return {s.cycles,           s.instructions,         s.scalar_instructions,
          s.vector_instructions, s.vector_elements,   s.mem_contiguous_bytes,
          s.mem_indexed_elements, s.stm_blocks,       s.stm_write_cycles,
          s.stm_read_cycles,  s.stm_elements,         s.vmem_busy_cycles,
          s.valu_busy_cycles, s.stm_busy_cycles};
}

constexpr usize kSystemCount = 5;
constexpr const char* kSystemNames[kSystemCount] = {
    "cycles", "barriers", "bank_requests", "bank_contended_requests", "bank_contention_cycles"};

struct CoreRecord {
  std::array<u64, kStatCount> stats{};
  std::array<u64, vsim::kStallReasonCount> stalls{};
  std::array<u64, vsim::kBusyKindCount> busy{};
};

struct Record {
  std::string name;  // "<kernel class>/<input>"
  std::array<u64, kSystemCount> system{};
  std::vector<CoreRecord> cores;
  std::string hash;  // SimHash of the memory image or the result bits
  bool profiled = true;  // false: stalls/busy were not observed, skip them
};

// ---- The frozen corpus -----------------------------------------------------
//
// Captured from the legacy switch interpreter at the last commit that had
// it (the threaded interpreter matched it there on every entry). Layout per
// entry: name, {system totals}, one {{RunStats fields}, {stall_cycles()},
// {busy_cycles()}} per core, hash.

const std::vector<Record>& corpus() {
  static const std::vector<Record> records = {
      {"hism_transpose/random",
       {4391, 0, 0, 0, 0},
       {{{4391, 1468, 1233, 235, 11128, 30550, 0, 27, 675, 661, 5100, 1933, 0, 1920},
         {0, 2309, 1556, 0, 0, 486, 0, 2, 0, 0, 0},
         {8, 30, 0, 0, 0}}},
       "c8eccb39c00675cabddcb8e92c2f8b7b"},
      {"hism_transpose/empty",
       {9, 0, 0, 0, 0},
       {{{9, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0},
         {1, 0, 0, 0, 0}}},
       "8be4ceffa8285f30eb05052ea5b62325"},
      {"hism_transpose/1xn",
       {635, 0, 0, 0, 0},
       {{{635, 435, 385, 50, 898, 2180, 0, 10, 51, 90, 366, 155, 0, 222},
         {0, 249, 233, 0, 0, 120, 0, 2, 0, 0, 0},
         {8, 23, 0, 0, 0}}},
       "2fe44ea77c8cc1a46d73485c82e1dab1"},
      {"hism_transpose/nx1",
       {651, 0, 0, 0, 0},
       {{{651, 435, 385, 50, 898, 2180, 0, 10, 90, 51, 366, 143, 0, 211},
         {0, 249, 288, 0, 0, 81, 0, 2, 0, 0, 0},
         {8, 23, 0, 0, 0}}},
       "3af81dea693b8126df6c26897d2f055f"},
      {"hism_transpose/dense",
       {6092, 0, 0, 0, 0},
       {{{6092, 531, 274, 257, 16384, 49152, 0, 1, 1024, 1024, 8192, 3072, 0, 2881},
         {0, 3968, 2048, 0, 0, 19, 0, 4, 0, 0, 0},
         {7, 45, 0, 0, 1}}},
       "8fc860bbad1f6ade89c79ddcbd1b5a77"},
      {"crs_transpose/random",
       {96970, 0, 0, 0, 0},
       {{{96970, 31758, 29358, 2400, 25073, 25348, 9868, 0, 0, 0, 0, 11673, 2385, 0},
         {4994, 9042, 29640, 53, 726, 0, 0, 7488, 0, 0, 0},
         {44949, 76, 0, 2, 0}}},
       "06b6f923ade85228ce73a9661049d8e9"},
      {"crs_transpose/empty",
       {2102, 0, 0, 0, 0},
       {{{2102, 993, 954, 39, 1727, 1812, 0, 0, 0, 0, 0, 115, 303, 0},
         {90, 387, 89, 18, 0, 0, 0, 453, 0, 0, 0},
         {994, 69, 0, 2, 0}}},
       "c7b8043abd34744efd08aeb4e8811ffb"},
      {"crs_transpose/1xn",
       {7417, 0, 0, 0, 0},
       {{{7417, 1887, 1710, 177, 10853, 11348, 668, 0, 0, 0, 0, 1380, 1738, 0},
         {325, 2353, 924, 121, 209, 0, 0, 486, 0, 0, 0},
         {2921, 76, 0, 2, 0}}},
       "a5b30127270c6c72018aba1816739e27"},
      {"crs_transpose/nx1",
       {17747, 0, 0, 0, 0},
       {{{17747, 9564, 9544, 20, 36, 32, 0, 0, 0, 0, 0, 5, 14, 0},
         {1162, 0, 80, 0, 0, 0, 0, 2991, 0, 0, 0},
         {13449, 63, 0, 2, 0}}},
       "4dc9955df37f5866cf63d274caf71b63"},
      {"crs_transpose/dense",
       {116434, 0, 0, 0, 0},
       {{{116434, 38802, 38253, 549, 34001, 34060, 16384, 0, 0, 0, 0, 18515, 2272, 0},
         {8190, 3693, 13353, 17, 5120, 0, 0, 12282, 0, 0, 0},
         {73706, 71, 0, 2, 0}}},
       "6d523714cfee1e56906b0c1d7066f4ff"},
      {"sell_spmv/random",
       {11704, 0, 632, 0, 0},
       {{{11704, 2504, 1459, 1045, 16720, 26432, 3504, 0, 0, 0, 0, 5156, 1652, 0},
         {2, 2341, 7748, 0, 776, 0, 776, 0, 0, 0, 0},
         {24, 19, 13, 5, 0}}},
       "f6cc52a8cd6da4c929e7c2a81ae26f5c"},
      {"sell_spmv/empty",
       {418, 0, 14, 0, 0},
       {{{418, 168, 147, 21, 300, 400, 100, 0, 0, 0, 0, 125, 25, 0},
         {2, 141, 209, 0, 0, 0, 0, 0, 0, 0, 0},
         {24, 24, 13, 5, 0}}},
       "8bb8a00c8f0e6bd4aba1e6f7cf40d1e1"},
      {"sell_spmv/1xn",
       {7068, 0, 503, 0, 0},
       {{{7068, 1706, 868, 838, 838, 1340, 168, 0, 0, 0, 0, 503, 335, 0},
         {2, 2324, 4529, 0, 167, 0, 0, 0, 0, 0, 0},
         {24, 19, 1, 2, 0}}},
       "5fc72f23aef63bc3de3e37a267bb975a"},
      {"sell_spmv/nx1",
       {2122, 0, 97, 0, 0},
       {{{2122, 828, 677, 151, 2380, 3408, 676, 0, 0, 0, 0, 889, 213, 0},
         {2, 561, 1410, 0, 44, 0, 44, 0, 0, 0, 0},
         {24, 19, 13, 5, 0}}},
       "994844ca30ba2f31cb88baf21a7bced8"},
      {"sell_spmv/dense",
       {14734, 0, 776, 0, 0},
       {{{14734, 2662, 1370, 1292, 20672, 33024, 4160, 0, 0, 0, 0, 6224, 2064, 0},
         {2, 3294, 9329, 0, 1024, 0, 1024, 0, 0, 0, 0},
         {24, 19, 13, 5, 0}}},
       "80968c644c849e0f6cf3663603608872"},
      {"spgemm/random",
       {80071, 0, 4558, 0, 0},
       {{{80071, 59621, 51993, 7628, 138461, 90824, 9103, 12, 380, 396, 3000, 15948, 26852, 1121},
         {5, 33520, 43124, 2886, 216, 213, 0, 2, 0, 0, 0},
         {59, 45, 0, 0, 1}}},
       "331a06b2f17e90996a6a6908e5423874"},
      {"spgemm/empty",
       {14, 0, 0, 0, 0},
       {{{14, 10, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0},
         {9, 0, 0, 0, 0}}},
       "c133c9775606eaeeeb99aeca3e48e9c7"},
      {"spgemm/1xn",
       {20173, 0, 517, 0, 0},
       {{{20173, 7178, 6303, 875, 51856, 82164, 10020, 8, 47, 86, 334, 15174, 5177, 200},
         {5, 5565, 11679, 2614, 57, 110, 0, 2, 0, 0, 0},
         {59, 53, 28, 0, 1}}},
       "7fcc47b62b01973d43829750222dd66c"},
      {"spgemm/nx1",
       {7903, 0, 469, 0, 0},
       {{{7903, 6826, 6031, 795, 11956, 5212, 401, 8, 86, 47, 334, 865, 2582, 189},
         {198, 2219, 4097, 163, 7, 71, 0, 17, 0, 0, 0},
         {220, 800, 1, 104, 6}}},
       "b9c48224feab881c4c2bde2de3e369a9"},
      {"spgemm/dense",
       {283909, 0, 12416, 0, 0},
       {{{283909, 160293, 139556, 20737, 585728, 663552, 76800, 1, 1024, 1024, 8192, 121472, 86336, 2881},
         {0, 106664, 156352, 20804, 0, 19, 0, 2, 0, 0, 0},
         {22, 45, 0, 0, 1}}},
       "408e9d852bbcb7b1d931794fac46ef04"},
      {"sharded_transpose_4/random",
       {5743, 2, 212, 85, 6927},
       {{{5743, 1859, 1681, 178, 6910, 18492, 0, 26, 459, 439, 3090, 1175, 0, 1255},
         {0, 660, 1047, 0, 0, 495, 0, 53, 0, 2690, 0},
         {769, 29, 0, 0, 0}},
        {{5743, 659, 593, 66, 2354, 6368, 0, 10, 153, 151, 1064, 403, 0, 434},
         {0, 40, 344, 0, 0, 176, 0, 18, 0, 1419, 3450},
         {273, 23, 0, 0, 0}},
        {{5743, 1299, 1157, 142, 4732, 13396, 0, 18, 328, 311, 2238, 856, 0, 918},
         {0, 293, 799, 0, 0, 329, 0, 34, 0, 2699, 1042},
         {521, 26, 0, 0, 0}},
        {{5743, 1235, 1125, 110, 4316, 11152, 0, 18, 274, 272, 1864, 710, 0, 763},
         {0, 115, 447, 0, 0, 319, 0, 34, 0, 3096, 1185},
         {521, 26, 0, 0, 0}}},
       "cd80f0a488ed3bcfaf0e3a430edb0fa2"},
      {"sharded_transpose_4/empty",
       {22, 2, 0, 0, 0},
       {{{22, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
         {20, 0, 0, 0, 0}},
        {{22, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
         {20, 0, 0, 0, 0}},
        {{22, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
         {20, 0, 0, 0, 0}},
        {{22, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
         {20, 0, 0, 0, 0}}},
       "c7b8043abd34744efd08aeb4e8811ffb"},
      {"sharded_transpose_4/1xn",
       {919, 2, 20, 0, 0},
       {{{919, 627, 577, 50, 898, 2180, 0, 10, 51, 90, 366, 155, 0, 222},
         {0, 249, 233, 0, 0, 120, 0, 21, 0, 0, 0},
         {273, 23, 0, 0, 0}},
        {{919, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 899},
         {20, 0, 0, 0, 0}},
        {{919, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 899},
         {20, 0, 0, 0, 0}},
        {{919, 17, 17, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 899},
         {20, 0, 0, 0, 0}}},
       "a5b30127270c6c72018aba1816739e27"},
      {"sharded_transpose_4/nx1",
       {334, 2, 32, 5, 12},
       {{{334, 201, 181, 20, 214, 560, 0, 4, 24, 14, 94, 38, 0, 66},
         {0, 78, 110, 0, 0, 26, 0, 9, 0, 0, 3},
         {87, 21, 0, 0, 0}},
        {{334, 201, 181, 20, 213, 560, 0, 4, 24, 14, 94, 38, 0, 66},
         {0, 50, 110, 0, 0, 26, 0, 9, 0, 30, 1},
         {87, 21, 0, 0, 0}},
        {{334, 201, 181, 20, 209, 548, 0, 4, 24, 14, 92, 36, 0, 66},
         {0, 21, 110, 0, 0, 26, 0, 9, 0, 60, 0},
         {87, 21, 0, 0, 0}},
        {{334, 201, 181, 20, 198, 512, 0, 4, 22, 13, 86, 36, 0, 63},
         {0, 48, 86, 0, 0, 25, 0, 9, 0, 58, 0},
         {87, 21, 0, 0, 0}}},
       "4dc9955df37f5866cf63d274caf71b63"},
      {"sharded_transpose_4/dense",
       {29209, 2, 128, 3, 18},
       {{{29209, 18595, 18530, 65, 4096, 12288, 0, 1, 256, 256, 2048, 768, 0, 721},
         {0, 944, 512, 0, 0, 19, 0, 5127, 0, 0, 9},
         {22552, 45, 0, 0, 1}},
        {{29209, 18595, 18530, 65, 4096, 12288, 0, 1, 256, 256, 2048, 768, 0, 721},
         {0, 945, 512, 0, 0, 19, 0, 5127, 0, 3, 6},
         {22552, 44, 0, 0, 1}},
        {{29209, 18595, 18530, 65, 4096, 12288, 0, 1, 256, 256, 2048, 768, 0, 721},
         {0, 945, 512, 0, 0, 19, 0, 5127, 0, 6, 3},
         {22552, 44, 0, 0, 1}},
        {{29209, 18595, 18530, 65, 4096, 12288, 0, 1, 256, 256, 2048, 768, 0, 721},
         {0, 945, 512, 0, 0, 19, 0, 5127, 0, 9, 0},
         {22552, 44, 0, 0, 1}}},
       "6d523714cfee1e56906b0c1d7066f4ff"},
  };
  return records;
}

// ---- Comparison ------------------------------------------------------------

template <usize N>
void append_array(std::ostringstream& out, const std::array<u64, N>& values) {
  out << '{';
  for (usize i = 0; i < N; ++i) out << (i == 0 ? "" : ", ") << values[i];
  out << '}';
}

// The record as a corpus() initializer, printed on any mismatch.
std::string to_source(const Record& record) {
  std::ostringstream out;
  out << "{\"" << record.name << "\",\n ";
  append_array(out, record.system);
  out << ",\n {";
  for (usize c = 0; c < record.cores.size(); ++c) {
    out << (c == 0 ? "{" : ",\n  {");
    append_array(out, record.cores[c].stats);
    out << ",\n   ";
    append_array(out, record.cores[c].stalls);
    out << ",\n   ";
    append_array(out, record.cores[c].busy);
    out << '}';
  }
  out << "},\n \"" << record.hash << "\"},";
  return out.str();
}

void expect_matches_corpus(const Record& observed) {
  const auto& records = corpus();
  const auto golden = std::find_if(records.begin(), records.end(),
                                   [&](const Record& r) { return r.name == observed.name; });
  if (golden == records.end()) {
    ADD_FAILURE() << "no corpus entry; observed record:\n" << to_source(observed);
    return;
  }

  std::ostringstream diffs;
  auto check = [&](const std::string& what, u64 expected, u64 actual) {
    if (expected != actual) diffs << "  " << what << ": " << expected << " -> " << actual << '\n';
  };
  for (usize i = 0; i < kSystemCount; ++i) {
    check(std::string("system ") + kSystemNames[i], golden->system[i], observed.system[i]);
  }
  check("core count", golden->cores.size(), observed.cores.size());
  for (usize c = 0; c < std::min(golden->cores.size(), observed.cores.size()); ++c) {
    const CoreRecord& want = golden->cores[c];
    const CoreRecord& got = observed.cores[c];
    const std::string core = "core " + std::to_string(c) + " ";
    for (usize i = 0; i < kStatCount; ++i) check(core + kStatNames[i], want.stats[i], got.stats[i]);
    if (!observed.profiled) continue;
    for (usize i = 0; i < vsim::kStallReasonCount; ++i) {
      check(core + "stall " + vsim::stall_reason_name(static_cast<vsim::StallReason>(i)),
            want.stalls[i], got.stalls[i]);
    }
    for (usize i = 0; i < vsim::kBusyKindCount; ++i) {
      check(core + "busy " + vsim::busy_kind_name(static_cast<vsim::BusyKind>(i)),
            want.busy[i], got.busy[i]);
    }
  }
  if (golden->hash != observed.hash) {
    diffs << "  hash: " << golden->hash << " -> " << observed.hash << '\n';
  }
  EXPECT_TRUE(diffs.str().empty()) << "corpus mismatch (expected -> observed):\n"
                                   << diffs.str() << "observed record:\n"
                                   << to_source(observed);
}

// `profiler` is null for an unobserved run (its stall/busy arrays stay 0).
CoreRecord core_record(const vsim::RunStats& stats, const vsim::PerfCounters* profiler) {
  CoreRecord record{stat_fields(stats), {}, {}};
  if (profiler != nullptr) {
    record.stalls = profiler->stall_cycles();
    record.busy = profiler->busy_cycles();
  }
  return record;
}

// A single Machine run: no barriers, no shared banks.
Record machine_record(std::string name, const vsim::RunStats& stats,
                      const vsim::PerfCounters* profiler) {
  Record record;
  record.name = std::move(name);
  record.system = {stats.cycles, 0, 0, 0, 0};
  record.cores.push_back(core_record(stats, profiler));
  record.profiled = profiler != nullptr;
  return record;
}

// `profilers` is null for an unobserved run.
Record system_record(std::string name, const vsim::SystemRunStats& stats,
                     const std::vector<vsim::PerfCounters>* profilers) {
  Record record;
  record.name = std::move(name);
  record.system = {stats.cycles, stats.barriers, stats.memory.requests,
                   stats.memory.contended_requests, stats.memory.contention_cycles};
  if (profilers != nullptr) EXPECT_EQ(profilers->size(), stats.core_stats.size());
  for (usize c = 0; c < stats.core_stats.size(); ++c) {
    const vsim::PerfCounters* profiler =
        profilers != nullptr && c < profilers->size() ? &(*profilers)[c] : nullptr;
    record.cores.push_back(core_record(stats.core_stats[c], profiler));
  }
  record.profiled = profilers != nullptr;
  return record;
}

std::string coo_hash(const Coo& coo) {
  testing::SimHash hash;
  hash.update_u64(coo.rows());
  hash.update_u64(coo.cols());
  hash.update_u64(coo.nnz());
  for (const CooEntry& e : coo.entries()) {
    hash.update_u64(e.row);
    hash.update_u64(e.col);
    hash.update_u64(std::bit_cast<u32>(e.value));
  }
  return hash.hex();
}

std::string floats_hash(const std::vector<float>& values) {
  testing::SimHash hash;
  hash.update_u64(values.size());
  for (const float v : values) hash.update_u64(std::bit_cast<u32>(v));
  return hash.hex();
}

// ---- Inputs ----------------------------------------------------------------

struct Input {
  std::string name;
  Coo coo;
};

// The kernel class's random matrix plus the degenerate shapes, sized for the
// default section s = 64.
std::vector<Input> inputs(Coo random) {
  Coo row_vector(1, 500);
  Coo col_vector(500, 1);
  for (Index i = 0; i < 500; i += 3) {
    row_vector.add(0, i, static_cast<float>(i) + 0.5f);
    col_vector.add(i, 0, static_cast<float>(i) + 0.5f);
  }
  Coo dense(64, 64);
  for (Index r = 0; r < 64; ++r) {
    for (Index c = 0; c < 64; ++c) dense.add(r, c, static_cast<float>(r * 64 + c + 1));
  }
  std::vector<Input> all;
  all.push_back({"random", std::move(random)});
  all.push_back({"empty", Coo(100, 90)});
  all.push_back({"1xn", std::move(row_vector)});
  all.push_back({"nx1", std::move(col_vector)});
  all.push_back({"dense", std::move(dense)});
  return all;
}

Coo test_matrix(u64 seed, Index rows, Index cols, usize nnz) {
  Rng rng(seed);
  return random_coo(rows, cols, nnz, rng);
}

// ---- HiSM transpose: stats, profile, and the raw memory image ------------

TEST(InterpreterCorpus, HismTranspose) {
  const vsim::MachineConfig config;
  const auto program = vsim::assemble(kernels::hism_transpose_source());
  for (const Input& input : inputs(test_matrix(11, 300, 280, 2500))) {
    SCOPED_TRACE(input.name);
    const HismMatrix hism = HismMatrix::from_coo(input.coo, config.section);
    // One directly staged run, profiled or not; returns its record with the
    // raw memory image's hash.
    const auto run_direct = [&](vsim::PerfCounters* profiler) {
      vsim::Machine machine(config);
      const HismImage image = kernels::stage_hism(machine, hism);
      machine.set_sreg(1, image.root_addr);
      machine.set_sreg(2, image.root_len);
      machine.set_sreg(3, image.levels - 1);
      machine.set_sreg(vsim::kRegSp, kernels::kStackTop);
      machine.attach_profiler(profiler);
      const vsim::RunStats stats = machine.run(program);
      EXPECT_TRUE(coo_equal(kernels::read_back_hism(machine, image, /*swap_dims=*/true).to_coo(),
                            input.coo.transposed()));
      Record record = machine_record("hism_transpose/" + input.name, stats, profiler);
      testing::SimHash hash;
      hash.update(machine.memory().raw());
      record.hash = hash.hex();
      return record;
    };
    vsim::PerfCounters profiler;
    const Record record = run_direct(&profiler);
    expect_matches_corpus(record);
    expect_matches_corpus(run_direct(nullptr));

    // The kernel's runner attaches a shared snapshot instead of staging into
    // the machine; it must reproduce the directly staged run exactly.
    vsim::PerfCounters staged_profiler;
    HismMatrix staged_result;
    const vsim::RunStats staged_stats =
        kernels::time_hism_transpose(kernels::build_hism_stage(hism), config,
                                     /*split_drain_registers=*/false, nullptr, &staged_profiler,
                                     &staged_result);
    const CoreRecord staged = core_record(staged_stats, &staged_profiler);
    EXPECT_EQ(staged.stats, record.cores.front().stats);
    EXPECT_EQ(staged.stalls, record.cores.front().stalls);
    EXPECT_EQ(staged.busy, record.cores.front().busy);
    EXPECT_TRUE(coo_equal(staged_result.to_coo(), input.coo.transposed()));
  }
}

// ---- CRS transpose baseline ----------------------------------------------

TEST(InterpreterCorpus, CrsTranspose) {
  const vsim::MachineConfig config;
  for (const Input& input : inputs(test_matrix(23, 300, 280, 2500))) {
    SCOPED_TRACE(input.name);
    const kernels::CrsStage stage = kernels::build_crs_stage(Csr::from_coo(input.coo));
    const auto run = [&](vsim::PerfCounters* profiler) {
      Coo transposed;
      const vsim::RunStats stats =
          kernels::time_crs_transpose(stage, config, {}, profiler, &transposed);
      EXPECT_TRUE(coo_equal(transposed, input.coo.transposed()));
      Record record = machine_record("crs_transpose/" + input.name, stats, profiler);
      record.hash = coo_hash(transposed);
      return record;
    };
    vsim::PerfCounters profiler;
    expect_matches_corpus(run(&profiler));
    expect_matches_corpus(run(nullptr));
  }
}

// ---- SELL-C-sigma SpMV ----------------------------------------------------

TEST(InterpreterCorpus, SellSpmv) {
  const vsim::SystemConfig config;
  for (const Input& input : inputs(test_matrix(31, 400, 256, 3000))) {
    SCOPED_TRACE(input.name);
    const SellCSigma sell = SellCSigma::from_coo(input.coo, 16, 0);
    std::vector<float> x(static_cast<usize>(input.coo.cols()));
    Rng rng(5);
    for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const auto run = [&](std::vector<vsim::PerfCounters>* profilers) {
      std::vector<float> y;
      const vsim::SystemRunStats stats = kernels::time_sell_spmv(sell, x, config, profilers, &y);
      EXPECT_TRUE(floats_bit_equal(y, sell.spmv(x)));
      Record record = system_record("sell_spmv/" + input.name, stats, profilers);
      record.hash = floats_hash(y);
      return record;
    };
    std::vector<vsim::PerfCounters> profilers;
    expect_matches_corpus(run(&profilers));
    expect_matches_corpus(run(nullptr));
  }
}

// ---- SpGEMM on the STM ----------------------------------------------------

TEST(InterpreterCorpus, Spgemm) {
  const vsim::SystemConfig config;
  for (const Input& input : inputs(test_matrix(47, 200, 180, 1500))) {
    SCOPED_TRACE(input.name);
    // B = a random matrix with A's row count (C = A^T B).
    const Index rows = input.coo.rows();
    const Csr b = Csr::from_coo(test_matrix(48, rows, 120, std::min<usize>(1200, rows * 60)));
    const auto run = [&](std::vector<vsim::PerfCounters>* profilers) {
      std::vector<float> dense;
      const vsim::SystemRunStats stats =
          kernels::time_hism_spgemm(input.coo, b, config, profilers, &dense);
      EXPECT_TRUE(floats_bit_equal(dense, kernels::spgemm_at_b_reference_dense(input.coo, b)));
      Record record = system_record("spgemm/" + input.name, stats, profilers);
      record.hash = floats_hash(dense);
      return record;
    };
    std::vector<vsim::PerfCounters> profilers;
    expect_matches_corpus(run(&profilers));
    expect_matches_corpus(run(nullptr));
  }
}

// ---- Multi-core sharded transpose (N = 4) ---------------------------------

TEST(InterpreterCorpus, ShardedTransposeFourCores) {
  vsim::SystemConfig config;
  config.cores = 4;
  for (const Input& input : inputs(test_matrix(53, 500, 480, 4000))) {
    SCOPED_TRACE(input.name);
    const auto run = [&](std::vector<vsim::PerfCounters>* profilers) {
      Coo transposed;
      const vsim::SystemRunStats stats =
          kernels::time_sharded_hism_transpose(input.coo, config, profilers, &transposed);
      EXPECT_TRUE(coo_equal(transposed, input.coo.transposed()));
      Record record = system_record("sharded_transpose_4/" + input.name, stats, profilers);
      EXPECT_EQ(record.cores.size(), 4u);
      record.hash = coo_hash(transposed);
      return record;
    };
    std::vector<vsim::PerfCounters> profilers;
    expect_matches_corpus(run(&profilers));
    expect_matches_corpus(run(nullptr));
  }
}

// ---- Hoisted span bounds check --------------------------------------------
//
// The contiguous v_ld/v_st paths check the whole element span once per
// instruction instead of once per element. The abort condition is the exact
// union of the per-element accesses, so an out-of-range vector access must
// still die with the per-element diagnostic.

TEST(DispatchDeathTest, ContiguousLoadBeyondMemoryAborts) {
  EXPECT_DEATH(
      {
        vsim::Machine machine{vsim::MachineConfig{}};
        machine.memory().write_u32(0, 1);  // allocate a small region
        machine.run(vsim::assemble(
            "li r1, 64\n"
            "ssvl r1\n"
            "li r2, 0x100000\n"
            "v_ld vr1, (r2)\n"
            "halt\n"));
      },
      "beyond allocated memory");
}

TEST(DispatchDeathTest, ContiguousStoreBeyondLimitAborts) {
  vsim::MachineConfig config;
  config.memory_limit = 0x1000;
  EXPECT_DEATH(
      {
        vsim::Machine machine(config);
        machine.run(vsim::assemble(
            "li r1, 64\n"
            "ssvl r1\n"
            "li r2, 0xF80\n"  // span [0xF80, 0x1080) crosses the limit
            "v_st vr1, (r2)\n"
            "halt\n"));
      },
      "exceeds the");
}

}  // namespace
}  // namespace smtu
