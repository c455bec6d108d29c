// perfbench_trace: the in-process traced run and the serving reference of the
// host-time benchmark (perfbench/README.md).
//
//   perfbench_trace repro --seed=S --out=DIR
//     The reproduce_all sequence on one thread: suite generation, the Fig. 10
//     stage builds and STM traces, the STM grid, the Fig. 11-13 comparisons,
//     the storage claim and the report artifacts.
//   perfbench_trace serve --seed=S --requests=N --rate=R [--no-dedup] --out=DIR
//     Generates the trace in-process (written to DIR/trace.json), then the
//     `smtu_serve --replay` sequence on one thread: trace load, suite set,
//     one simulation per distinct key (or per request with --no-dedup), the
//     virtual-time model and the report.
//   perfbench_trace serve-reference --trace=FILE [--no-dedup] --json=FILE
//     Untimed: serve::simulate_keys at one job, then serve::run_virtual; writes
//     the smtu-serve-v1 document and every key's simulated cycles.
//
// The traced modes call each layer's public functions in the order the
// binary does and time every call from outside. Spans (name, layer, start,
// end, parent) are kept in memory and written to DIR/spans.json at the end,
// next to work counts measured at the same boundaries. The "run" root mirrors
// the binary; the "split" root, timed after it, rebuilds every cold stage by
// calling from_coo and build_*_stage directly, splitting what a stage-cache
// miss costs. perfbench/run.py turns the spans into the per-layer table.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "bench_common.hpp"
#include "hism/stats.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/utilization.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "vsim/program_cache.hpp"

namespace {

using namespace smtu;
using Clock = std::chrono::steady_clock;

// Spans in memory: a stack of open spans gives each new one its parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
    i64 parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, usize index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void rename(std::string name) { tracer_.spans_[index_].name = std::move(name); }

   private:
    Tracer& tracer_;
    usize index_;
  };

  Scope span(std::string name, std::string layer) {
    const i64 parent = open_.empty() ? -1 : static_cast<i64>(open_.back());
    spans_.push_back(Span{std::move(name), std::move(layer), now(), 0.0, parent});
    open_.push_back(spans_.size() - 1);
    return Scope(*this, spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - origin_).count(); }

  void close(usize index) {
    SMTU_CHECK_MSG(!open_.empty() && open_.back() == index, "spans must close innermost first");
    spans_[index].end_s = now();
    open_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<usize> open_;
};

// A stage the run built, to be rebuilt piecewise by the split pass.
struct ColdStage {
  const Coo* matrix;
  bool hism;
  u32 section;
};

struct TracedRun {
  Tracer tracer;
  // Work counts measured next to the spans; all are exact for one seed
  // (identical across runs, since the run is single-threaded and in order).
  std::map<std::string, u64> counts;
  std::vector<ColdStage> cold;  // stage-cache misses, in order
  u64 stage_hits = 0;
  u64 instructions = 0;
};

// One MatrixStageCache lookup, classified by whether the cache built (the
// traced run is single-threaded, so the miss counter moves only for this
// call).
std::shared_ptr<const kernels::HismStage> hism_stage(TracedRun& run, const Coo& matrix,
                                                     u32 section) {
  auto& cache = kernels::MatrixStageCache::instance();
  const u64 misses_before = cache.stats().misses;
  Tracer::Scope scope = run.tracer.span("kernels.stage_hit", "kernels");
  auto stage = cache.hism(matrix, section);
  if (cache.stats().misses == misses_before) {
    ++run.stage_hits;
  } else {
    scope.rename("kernels.stage_miss");
    run.cold.push_back({&matrix, true, section});
  }
  return stage;
}

std::shared_ptr<const kernels::CrsStage> crs_stage(TracedRun& run, const Coo& matrix) {
  auto& cache = kernels::MatrixStageCache::instance();
  const u64 misses_before = cache.stats().misses;
  Tracer::Scope scope = run.tracer.span("kernels.stage_hit", "kernels");
  auto stage = cache.crs(matrix);
  if (cache.stats().misses == misses_before) {
    ++run.stage_hits;
  } else {
    scope.rename("kernels.stage_miss");
    run.cold.push_back({&matrix, false, 0});
  }
  return stage;
}

std::shared_ptr<const vsim::Program> program(TracedRun& run, const std::string& source) {
  Tracer::Scope scope = run.tracer.span("vsim.assemble", "vsim");
  return vsim::ProgramCache::instance().get(source);
}

vsim::RunStats interpret_hism(TracedRun& run, const kernels::HismStage& stage,
                              const vsim::MachineConfig& config) {
  program(run, kernels::hism_transpose_source(false));
  Tracer::Scope scope = run.tracer.span("vsim.interp", "vsim");
  const vsim::RunStats stats = kernels::time_hism_transpose(stage, config);
  run.instructions += stats.instructions;
  return stats;
}

vsim::RunStats interpret_crs(TracedRun& run, const kernels::CrsStage& stage,
                             const vsim::MachineConfig& config) {
  program(run, kernels::crs_transpose_source(config.section, {}));
  Tracer::Scope scope = run.tracer.span("vsim.interp", "vsim");
  const vsim::RunStats stats = kernels::time_crs_transpose(stage, config);
  run.instructions += stats.instructions;
  return stats;
}

// The "split" root: every stage the run built cold, rebuilt from its COO by
// the two calls a cache miss makes (from_coo, then build_*_stage).
void split_cold_stages(TracedRun& run) {
  Tracer::Scope root = run.tracer.span("split", "split");
  for (const ColdStage& stage : run.cold) {
    if (stage.hism) {
      HismMatrix hism;
      {
        Tracer::Scope scope = run.tracer.span("hism.from_coo", "hism");
        hism = HismMatrix::from_coo(*stage.matrix, stage.section);
      }
      Tracer::Scope scope = run.tracer.span("kernels.stage_image", "kernels");
      kernels::build_hism_stage(std::move(hism));
    } else {
      Csr csr;
      {
        Tracer::Scope scope = run.tracer.span("formats.csr_from_coo", "formats");
        csr = Csr::from_coo(*stage.matrix);
      }
      Tracer::Scope scope = run.tracer.span("kernels.stage_image", "kernels");
      kernels::build_crs_stage(std::move(csr));
    }
  }
}

void write_spans(const std::string& path, const TracedRun& run,
                 const std::vector<std::pair<std::string, std::string>>& extra = {}) {
  std::ofstream out(path);
  SMTU_CHECK_MSG(static_cast<bool>(out), "cannot open " + path);
  JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("perfbench-spans-v1");
  json.key("spans");
  json.begin_array();
  for (const Tracer::Span& span : run.tracer.spans()) {
    json.begin_object();
    json.key("name");
    json.value(span.name);
    json.key("layer");
    json.value(span.layer);
    json.key("start_s");
    json.value(span.start_s);
    json.key("end_s");
    json.value(span.end_s);
    json.key("parent");
    json.value(span.parent);
    json.end_object();
  }
  json.end_array();
  json.key("counts");
  json.begin_object();
  for (const auto& [name, count] : run.counts) {
    json.key(name);
    json.value(count);
  }
  json.end_object();
  for (const auto& [key, raw] : extra) {
    json.key(key);
    json.raw(raw);
  }
  json.end_object();
  out << '\n';
  SMTU_CHECK_MSG(json.complete(), "spans document left unbalanced");
}

void set_common_counts(TracedRun& run) {
  const auto programs = vsim::ProgramCache::instance().stats();
  run.counts["kernels.stage_lookups"] = run.stage_hits + run.cold.size();
  run.counts["kernels.stage_distinct"] = run.cold.size();
  run.counts["vsim.program_misses"] = programs.misses;
  run.counts["vsim.instructions"] = run.instructions;
}

// ---- reproduce_all ---------------------------------------------------------

struct FigureSet {
  const char* set;
  const char* metric_header;
  double (*metric)(const suite::MatrixMetrics&);
};

int traced_repro(CommandLine& cli) {
  suite::SuiteOptions suite_options;
  suite_options.seed = static_cast<u64>(cli.get_int("seed", static_cast<i64>(suite_options.seed)));
  const std::string out_dir = cli.get_string("out", ".");
  cli.finish();
  const vsim::MachineConfig config;
  TracedRun run;
  std::vector<bench::MatrixRecord> all_records;
  std::vector<suite::SuiteMatrix> suite_matrices;

  {
    Tracer::Scope root = run.tracer.span("run", "bench");
    {
      Tracer::Scope scope = run.tracer.span("suite.build", "suite");
      suite_matrices = suite::build_dsab_suite(suite_options);
    }

    // Fig. 10: cold HiSM stages and the config-independent STM traces, then
    // the 16-point grid over them.
    std::vector<kernels::StmTraceSet> traces;
    for (const suite::SuiteMatrix& entry : suite_matrices) {
      const auto stage = hism_stage(run, entry.matrix, config.section);
      Tracer::Scope scope = run.tracer.span("stm.trace", "stm");
      traces.push_back(kernels::stm_block_traces(stage->hism));
    }
    u64 block_passes = 0;
    std::vector<double> utilization;
    {
      Tracer::Scope scope = run.tracer.span("stm.grid", "stm");
      for (const u32 bandwidth : {1u, 2u, 4u, 8u}) {
        for (const u32 lines : {1u, 2u, 4u, 8u}) {
          StmConfig stm;
          stm.bandwidth = bandwidth;
          stm.lines = lines;
          double sum = 0.0;
          for (const auto& trace : traces) {
            const kernels::UtilizationBreakdown breakdown = kernels::stm_utilization(trace, stm);
            sum += breakdown.utilization;
            block_passes += breakdown.block_passes;
          }
          utilization.push_back(sum / static_cast<double>(traces.size()));
        }
      }
    }
    run.counts["stm.block_passes"] = block_passes;

    // Figs. 11-13: both kernels per matrix, as bench::compare_transposes runs
    // them (HiSM stage warm from Fig. 10, CRS stage cold).
    const FigureSet sets[] = {
        {suite::kSetLocality, "locality",
         [](const suite::MatrixMetrics& m) { return m.locality; }},
        {suite::kSetAnz, "nnz/row", [](const suite::MatrixMetrics& m) { return m.avg_nnz_per_row; }},
        {suite::kSetSize, "nnz",
         [](const suite::MatrixMetrics& m) { return static_cast<double>(m.nnz); }},
    };
    std::vector<std::vector<bench::MatrixRecord>> figure_records;
    for (const FigureSet& figure : sets) {
      std::vector<bench::MatrixRecord> records;
      for (const suite::SuiteMatrix& entry : suite_matrices) {
        if (entry.set != figure.set) continue;
        Tracer::Scope scope = run.tracer.span("bench.compare", "bench");
        const auto hism = hism_stage(run, entry.matrix, config.section);
        const auto crs = crs_stage(run, entry.matrix);
        bench::TransposeComparison comparison;
        comparison.hism_stats = interpret_hism(run, *hism, config);
        comparison.crs_stats = interpret_crs(run, *crs, config);
        comparison.hism_cycles = comparison.hism_stats.cycles;
        comparison.crs_cycles = comparison.crs_stats.cycles;
        const double nnz = static_cast<double>(std::max<usize>(entry.matrix.nnz(), 1));
        comparison.hism_cycles_per_nnz = static_cast<double>(comparison.hism_cycles) / nnz;
        comparison.crs_cycles_per_nnz = static_cast<double>(comparison.crs_cycles) / nnz;
        comparison.speedup = static_cast<double>(comparison.crs_cycles) /
                             static_cast<double>(std::max<u64>(comparison.hism_cycles, 1));
        records.push_back({entry.name, entry.set, figure.metric_header,
                           figure.metric(entry.metrics), entry.matrix.nnz(), comparison});
      }
      all_records.insert(all_records.end(), records.begin(), records.end());
      figure_records.push_back(std::move(records));
    }

    // Storage claim: warm lookups of both stages plus the HiSM statistics.
    double ratio_sum = 0.0;
    for (const suite::SuiteMatrix& entry : suite_matrices) {
      const auto crs = crs_stage(run, entry.matrix);
      const auto hism = hism_stage(run, entry.matrix, config.section);
      Tracer::Scope scope = run.tracer.span("hism.stats", "hism");
      ratio_sum += static_cast<double>(compute_stats(hism->hism).storage_bytes) /
                   static_cast<double>(crs->csr.storage_bytes());
    }

    // Report emission: the per-figure tables and the records artifact.
    {
      Tracer::Scope scope = run.tracer.span("bench.report", "bench");
      std::ofstream report(out_dir + "/REPORT.md");
      SMTU_CHECK_MSG(static_cast<bool>(report), "cannot write " + out_dir + "/REPORT.md");
      for (const auto& records : figure_records) {
        TextTable table({"matrix", records.front().metric_name, "nnz", "HiSM cyc/nnz",
                         "CRS cyc/nnz", "speedup"});
        for (const auto& record : records) {
          table.add_row({record.name, format("%.2f", record.metric), format("%zu", record.nnz),
                         format("%.2f", record.comparison.hism_cycles_per_nnz),
                         format("%.2f", record.comparison.crs_cycles_per_nnz),
                         format("%.1f", record.comparison.speedup)});
        }
        table.print_markdown(report);
        const bench::SpeedupSummary summary = bench::summarize_speedups(records);
        report << format("measured speedup: min %.1f, max %.1f, avg %.1f\n\n", summary.min,
                         summary.max, summary.avg);
      }
      report << format("storage ratio avg %.2f; grid points %zu\n",
                       ratio_sum / static_cast<double>(suite_matrices.size()),
                       utilization.size());
      std::ofstream records_json(out_dir + "/records.json");
      bench::write_bench_report_json(records_json, "perfbench_trace", config, suite_options,
                                     all_records);
    }
  }
  split_cold_stages(run);

  u64 nnz = 0;
  for (const auto& entry : suite_matrices) nnz += entry.matrix.nnz();
  run.counts["suite.nnz"] = nnz;
  set_common_counts(run);

  // Per-matrix cycles, cross-checked against the binary's BENCH_repro.json.
  std::ostringstream cycles;
  JsonWriter json(cycles);
  json.begin_array();
  for (const auto& record : all_records) {
    json.begin_object();
    json.key("name");
    json.value(record.name);
    json.key("hism_cycles");
    json.value(static_cast<u64>(record.comparison.hism_cycles));
    json.key("crs_cycles");
    json.value(static_cast<u64>(record.comparison.crs_cycles));
    json.end_object();
  }
  json.end_array();
  write_spans(out_dir + "/spans.json", run, {{"matrices", cycles.str()}});
  return 0;
}

// ---- smtu_serve --replay ---------------------------------------------------

serve::GeneratorOptions generator_options(CommandLine& cli) {
  serve::GeneratorOptions gen;
  gen.seed = static_cast<u64>(cli.get_int("seed", static_cast<i64>(gen.seed)));
  gen.requests = static_cast<u32>(cli.get_int("requests", gen.requests));
  gen.arrival.rate_rps = cli.get_double("rate", gen.arrival.rate_rps);
  return gen;
}

int traced_serve(CommandLine& cli) {
  const serve::GeneratorOptions gen = generator_options(cli);
  serve::ServeOptions options;
  options.dedup = !cli.get_flag("no-dedup");
  options.jobs = 1;
  const std::string out_dir = cli.get_string("out", ".");
  cli.finish();
  const std::string trace_path = out_dir + "/trace.json";
  TracedRun run;

  {
    Tracer::Scope root = run.tracer.span("setup", "serve");
    Tracer::Scope scope = run.tracer.span("serve.trace_gen", "serve");
    serve::write_trace_file(trace_path, serve::generate_trace(gen));
  }

  serve::Trace trace;
  serve::ServeReport report;
  std::vector<suite::SuiteMatrix> set;
  {
    Tracer::Scope root = run.tracer.span("run", "serve");
    {
      Tracer::Scope scope = run.tracer.span("serve.trace_load", "serve");
      trace = serve::load_trace_file(trace_path);
    }
    {
      Tracer::Scope scope = run.tracer.span("suite.build", "suite");
      set = suite::build_dsab_set(trace.set, trace.suite);
    }
    SMTU_CHECK_MSG(set.size() == trace.matrix_count, "trace matrix count mismatch");

    // The host simulations in the order serve_trace issues them: distinct
    // keys grouped by matrix, or every request in arrival order.
    std::vector<serve::SimKey> keys;
    if (options.dedup) {
      std::unordered_set<serve::SimKey, serve::SimKeyHash> seen;
      for (const serve::Request& request : trace.requests) {
        if (seen.insert(serve::key_of(request)).second) keys.push_back(serve::key_of(request));
      }
      std::stable_sort(keys.begin(), keys.end(), [](const serve::SimKey& a, const serve::SimKey& b) {
        return std::tie(a.matrix, a.kernel, a.config) < std::tie(b.matrix, b.kernel, b.config);
      });
    } else {
      for (const serve::Request& request : trace.requests) keys.push_back(serve::key_of(request));
    }
    std::unordered_map<serve::SimKey, u64, serve::SimKeyHash> key_cycles;
    {
      Tracer::Scope sim = run.tracer.span("serve.sim", "serve");
      for (const serve::SimKey& key : keys) {
        Tracer::Scope scope = run.tracer.span("serve.sim_key", "serve");
        const vsim::MachineConfig config =
            serve::machine_config_for(trace.configs[key.config]);
        const Coo& matrix = set[key.matrix].matrix;
        u64 cycles = 0;
        if (key.kernel == serve::Kernel::kHism) {
          cycles = interpret_hism(run, *hism_stage(run, matrix, config.section), config).cycles;
        } else {
          cycles = interpret_crs(run, *crs_stage(run, matrix), config).cycles;
        }
        key_cycles[key] = cycles;
      }
    }
    report.host.jobs = 1;
    report.host.simulations = keys.size();
    {
      Tracer::Scope scope = run.tracer.span("serve.virtual", "serve");
      report.virt = serve::run_virtual(trace.requests, key_cycles, options);
    }
    {
      Tracer::Scope scope = run.tracer.span("serve.report", "serve");
      serve::write_serve_report_file(out_dir + "/report.json", trace, options, report);
    }
  }

  split_cold_stages(run);

  u64 nnz = 0;
  for (const auto& entry : set) nnz += entry.matrix.nnz();
  run.counts["suite.nnz"] = nnz;
  run.counts["serve.requests"] = trace.requests.size();
  run.counts["serve.distinct_sims"] = report.virt.distinct_sims;
  run.counts["serve.simulations"] = report.host.simulations;
  set_common_counts(run);
  write_spans(out_dir + "/spans.json", run);
  return 0;
}

int serve_reference(CommandLine& cli) {
  const std::string trace_path = cli.get_string("trace", "");
  const std::string json_path = cli.get_string("json", "");
  serve::ServeOptions options;
  options.dedup = !cli.get_flag("no-dedup");
  options.jobs = 1;
  cli.finish();
  SMTU_CHECK_MSG(!trace_path.empty() && !json_path.empty(), "pass --trace=FILE and --json=FILE");

  const serve::Trace trace = serve::load_trace_file(trace_path);
  const auto key_cycles = serve::simulate_keys(trace, options);
  serve::ServeReport report;
  report.virt = serve::run_virtual(trace.requests, key_cycles, options);

  std::vector<std::pair<serve::SimKey, u64>> keys(key_cycles.begin(), key_cycles.end());
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.matrix, a.first.kernel, a.first.config) <
           std::tie(b.first.matrix, b.first.kernel, b.first.config);
  });
  std::ofstream out(json_path);
  SMTU_CHECK_MSG(static_cast<bool>(out), "cannot open " + json_path);
  JsonWriter json(out);
  json.begin_object();
  json.key("report");
  serve::write_serve_report_json(json, trace, options, report);
  json.key("keys");
  json.begin_array();
  for (const auto& [key, cycles] : keys) {
    json.begin_object();
    json.key("matrix");
    json.value(static_cast<u64>(key.matrix));
    json.key("kernel");
    json.value(serve::kernel_name(key.kernel));
    json.key("config");
    json.value(static_cast<u64>(key.config));
    json.key("cycles");
    json.value(cycles);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  out << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SMTU_CHECK_MSG(argc >= 2, "usage: perfbench_trace repro|serve|serve-reference [options]");
  const std::string mode = argv[1];
  CommandLine cli(argc - 1, argv + 1);
  if (mode == "repro") return traced_repro(cli);
  if (mode == "serve") return traced_serve(cli);
  if (mode == "serve-reference") return serve_reference(cli);
  SMTU_CHECK_MSG(false, "unknown mode " + mode);
  return 2;
}
