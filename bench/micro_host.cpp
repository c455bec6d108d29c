// google-benchmark micro-benchmarks of the host-side library primitives:
// format construction/conversion, reference transposes, the STM functional
// model, and the non-zero locator. These gauge the simulator's own speed
// (how fast experiments run), not simulated cycle counts.
//
// Custom main: besides the usual google-benchmark flags, --interp-json=FILE
// writes interpreter throughput records (simulated insts/sec and
// cycles/sec per kernel class) into a host-timing JSON
// document whose keys bench_diff.py never gates on (the "host" section and
// *_per_sec / wall_ms fragments are host-speed measurements, not simulated
// metrics).
#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <string_view>

#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "hism/image.hpp"
#include "hism/transpose.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/sell_spmv.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/staging.hpp"
#include "stm/locator.hpp"
#include "stm/unit.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/system.hpp"

namespace smtu {
namespace {

Coo make_matrix(Index dim, usize nnz, u64 seed) {
  Rng rng(seed);
  Coo coo(dim, dim);
  for (const u64 cell : rng.sample_without_replacement(dim * dim, nnz)) {
    coo.add(cell / dim, cell % dim, static_cast<float>(rng.uniform(0.5, 1.5)));
  }
  coo.canonicalize();
  return coo;
}

void BM_CsrFromCoo(benchmark::State& state) {
  const Coo coo = make_matrix(2048, static_cast<usize>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Csr::from_coo(coo));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsrFromCoo)->Arg(10000)->Arg(100000);

void BM_PissanetskyTranspose(benchmark::State& state) {
  const Csr csr = Csr::from_coo(make_matrix(2048, static_cast<usize>(state.range(0)), 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(csr.transposed_pissanetsky());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PissanetskyTranspose)->Arg(10000)->Arg(100000);

void BM_HismFromCoo(benchmark::State& state) {
  const Coo coo = make_matrix(2048, static_cast<usize>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HismMatrix::from_coo(coo, 64));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HismFromCoo)->Arg(10000)->Arg(100000);

void BM_HismTransposeReference(benchmark::State& state) {
  const HismMatrix hism =
      HismMatrix::from_coo(make_matrix(2048, static_cast<usize>(state.range(0)), 4), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transposed(hism));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HismTransposeReference)->Arg(10000)->Arg(100000);

void BM_HismImageBuild(benchmark::State& state) {
  const HismMatrix hism =
      HismMatrix::from_coo(make_matrix(2048, static_cast<usize>(state.range(0)), 5), 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_hism_image(hism, 0x10000));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HismImageBuild)->Arg(100000);

void BM_StmTransposeBlock(benchmark::State& state) {
  Rng rng(6);
  std::vector<StmEntry> entries;
  for (const u64 cell :
       rng.sample_without_replacement(64 * 64, static_cast<usize>(state.range(0)))) {
    entries.push_back(
        {static_cast<u8>(cell / 64), static_cast<u8>(cell % 64), static_cast<u32>(cell)});
  }
  StmConfig config;
  StmUnit unit(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(unit.transpose_block(entries));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StmTransposeBlock)->Arg(64)->Arg(1024)->Arg(4096);

void BM_NonzeroLocatorCircuit(benchmark::State& state) {
  Rng rng(7);
  std::vector<bool> bits(64);
  for (usize i = 0; i < 64; ++i) bits[i] = rng.chance(0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(locate_first_ones_circuit(bits, 4));
  }
}
BENCHMARK(BM_NonzeroLocatorCircuit);

void BM_CooCanonicalize(benchmark::State& state) {
  const Coo coo = make_matrix(2048, 100000, 8);
  for (auto _ : state) {
    Coo copy = coo;
    copy.canonicalize();
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CooCanonicalize);

// ---- interpreter throughput -------------------------------------------------
// How fast the simulator itself runs, as opposed to the cycle counts it
// produces. items/s below is simulated instructions per host second.

// Cold path: full parse + predecode of the HiSM transpose kernel, what every
// Machine::run used to pay before the ProgramCache.
void BM_AssembleTransposeKernel(benchmark::State& state) {
  const std::string source = kernels::hism_transpose_source();
  usize instructions = 0;
  for (auto _ : state) {
    const vsim::Program program = vsim::assemble(source);
    instructions = program.instructions.size();
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<i64>(instructions));
}
BENCHMARK(BM_AssembleTransposeKernel);

// Warm path: the ProgramCache hit that replaces the cold assemble on every
// run after the first.
void BM_ProgramCacheWarmHit(benchmark::State& state) {
  const std::string source = kernels::hism_transpose_source();
  vsim::ProgramCache::instance().get(source);  // prime
  for (auto _ : state) {
    benchmark::DoNotOptimize(vsim::ProgramCache::instance().get(source));
  }
}
BENCHMARK(BM_ProgramCacheWarmHit);

// Full kernel simulation against a shared pre-staged image (predecoded
// program, copy-on-write memory): the steady-state per-run cost of the
// comparison benches.
void BM_InterpretHismTranspose(benchmark::State& state) {
  const Coo coo = make_matrix(512, static_cast<usize>(state.range(0)), 9);
  const kernels::HismStage stage = kernels::build_hism_stage(HismMatrix::from_coo(coo, 64));
  const vsim::MachineConfig config;
  u64 instructions = 0;
  for (auto _ : state) {
    const vsim::RunStats stats = kernels::time_hism_transpose(stage, config);
    instructions += stats.instructions;
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<i64>(instructions));
}
BENCHMARK(BM_InterpretHismTranspose)->Arg(10000)->Arg(50000);

// ---- interpreter throughput per kernel class --------------------------------
// One pre-staged simulation per kernel class. items/s is simulated
// instructions per host second; the cycles_per_sec counter is simulated
// cycles per host second. The same runners feed the --interp-json records.

struct InterpRun {
  u64 instructions = 0;
  u64 cycles = 0;
};

struct InterpCase {
  const char* name;
  std::function<InterpRun()> run;  // one full simulation, pre-staged inputs
};

InterpRun from_system_stats(const vsim::SystemRunStats& stats) {
  InterpRun run;
  run.cycles = stats.cycles;
  for (const vsim::RunStats& core : stats.core_stats) run.instructions += core.instructions;
  return run;
}

const std::vector<InterpCase>& interp_cases() {
  static const std::vector<InterpCase> cases = [] {
    std::vector<InterpCase> built;

    const auto hism_stage = std::make_shared<kernels::HismStage>(
        kernels::build_hism_stage(HismMatrix::from_coo(make_matrix(512, 50000, 9), 64)));
    built.push_back({"hism_transpose", [hism_stage] {
                       const vsim::RunStats stats =
                           kernels::time_hism_transpose(*hism_stage, vsim::MachineConfig{});
                       return InterpRun{stats.instructions, stats.cycles};
                     }});

    const auto crs_stage = std::make_shared<kernels::CrsStage>(
        kernels::build_crs_stage(Csr::from_coo(make_matrix(512, 20000, 10))));
    built.push_back({"crs_transpose", [crs_stage] {
                       const vsim::RunStats stats =
                           kernels::time_crs_transpose(*crs_stage, vsim::MachineConfig{});
                       return InterpRun{stats.instructions, stats.cycles};
                     }});

    const auto sell = std::make_shared<SellCSigma>(
        SellCSigma::from_coo(make_matrix(1024, 20000, 11), 16, 0));
    const auto x = std::make_shared<std::vector<float>>(1024, 1.0f);
    built.push_back({"sell_spmv", [sell, x] {
                       return from_system_stats(
                           kernels::time_sell_spmv(*sell, *x, vsim::SystemConfig{}));
                     }});

    const auto spgemm_a = std::make_shared<Coo>(make_matrix(256, 5000, 12));
    const auto spgemm_b =
        std::make_shared<Csr>(Csr::from_coo(make_matrix(256, 5000, 13)));
    built.push_back({"spgemm", [spgemm_a, spgemm_b] {
                       return from_system_stats(kernels::time_hism_spgemm(
                           *spgemm_a, *spgemm_b, vsim::SystemConfig{}));
                     }});
    return built;
  }();
  return cases;
}

}  // namespace

void register_interp_benches() {
  for (const InterpCase& interp_case : interp_cases()) {
    const std::string name = std::string("BM_InterpretKernel/") + interp_case.name;
    benchmark::RegisterBenchmark(name.c_str(), [&interp_case](benchmark::State& state) {
      u64 instructions = 0;
      u64 cycles = 0;
      for (auto _ : state) {
        const InterpRun run = interp_case.run();
        instructions += run.instructions;
        cycles += run.cycles;
      }
      state.SetItemsProcessed(static_cast<i64>(instructions));
      state.counters["cycles_per_sec"] =
          benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
    });
  }
}

// Writes the "smtu-hostmicro-v1" document: every kernel class measured over
// at least 200 ms of wall time.
void write_interp_json(const std::string& path) {
  std::ofstream out(path);
  SMTU_CHECK_MSG(out.good(), "cannot open " + path);
  JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("smtu-hostmicro-v1");
  json.key("host");
  json.begin_object();
  json.key("dispatch");
  json.begin_array();
  for (const InterpCase& interp_case : interp_cases()) {
    u64 instructions = 0;
    u64 cycles = 0;
    u64 runs = 0;
    double wall_ms = 0;
    const auto start = std::chrono::steady_clock::now();
    do {
      const InterpRun run = interp_case.run();
      instructions += run.instructions;
      cycles += run.cycles;
      ++runs;
      wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
              .count();
    } while (wall_ms < 200.0);
    json.begin_object();
    json.key("name");
    json.value(interp_case.name);
    json.key("runs");
    json.value(runs);
    json.key("wall_ms");
    json.value(wall_ms);
    json.key("insts_per_sec");
    json.value(static_cast<double>(instructions) * 1000.0 / wall_ms);
    json.key("cycles_per_sec");
    json.value(static_cast<double>(cycles) * 1000.0 / wall_ms);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();
  SMTU_CHECK(json.complete());
}

}  // namespace smtu

int main(int argc, char** argv) {
  std::string interp_json;
  std::string telemetry_json;
  bool telemetry_on = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--interp-json=", 0) == 0) {
      interp_json = std::string(arg.substr(14));
    } else if (arg.rfind("--telemetry-json=", 0) == 0) {
      telemetry_json = std::string(arg.substr(17));
      telemetry_on = true;
    } else if (arg == "--telemetry") {
      telemetry_on = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (telemetry_on) smtu::telemetry::set_enabled(true);
  smtu::register_interp_benches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!interp_json.empty()) smtu::write_interp_json(interp_json);
  if (!telemetry_json.empty()) {
    std::ofstream out(telemetry_json);
    SMTU_CHECK_MSG(static_cast<bool>(out), "cannot open telemetry output " + telemetry_json);
    smtu::JsonWriter json(out);
    smtu::telemetry::write_telemetry_json(json);
    out << '\n';
    std::fprintf(stderr, "wrote telemetry to %s\n", telemetry_json.c_str());
  }
  if (telemetry_on) {
    std::fprintf(stderr, "-- telemetry --\n%s",
                 smtu::telemetry::MetricsRegistry::instance().summary().c_str());
  }
  return 0;
}
