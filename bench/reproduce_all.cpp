// One-shot paper reproduction: runs every figure of §IV plus the headline
// and the storage claim, writes a single Markdown report with measured
// numbers next to the paper's, and a canonical machine-readable
// BENCH_repro.json (the "smtu-repro-v1" schema) for per-PR perf tracking
// via tools/bench_diff.py. The per-figure binaries remain the tools for
// focused runs and sweeps; this produces the shareable artifacts.
//
//   ./reproduce_all [--out=REPORT.md] [--json=BENCH_repro.json]
//                   [--scale=1.0] [--seed=...] [--profile] [--jobs=N]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "hism/stats.hpp"
#include "kernels/utilization.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/json_export.hpp"

namespace {

using namespace smtu;

void markdown_table(std::ostream& out, const TextTable& table) {
  table.print_markdown(out);
  out << '\n';
}

struct FigureResult {
  const char* figure;  // "fig11" ...
  const char* set;
  double paper_min, paper_max, paper_avg;
  std::vector<bench::MatrixRecord> records;
};

struct Fig10Grid {
  std::vector<u32> bandwidths{1, 2, 4, 8};
  std::vector<u32> lines{1, 2, 4, 8};
  std::vector<std::vector<double>> utilization;  // [bandwidth][lines]
};

struct StorageSummary {
  double hism_crs_byte_ratio_avg = 0.0;
  double overhead_fraction_avg = 0.0;
};

struct StorageRow {
  double ratio = 0.0;
  double overhead = 0.0;
};

struct Figure {
  const char* title;
  const char* figure;
  const char* set;
  const char* metric_header;
  double (*metric)(const suite::MatrixMetrics&);
  double paper_min, paper_max, paper_avg;
};

const Figure kFigures[] = {
    {"Fig. 11 — performance vs. locality", "fig11", suite::kSetLocality, "locality",
     [](const suite::MatrixMetrics& m) { return m.locality; }, 1.8, 32.0, 16.5},
    {"Fig. 12 — performance vs. avg non-zeros/row", "fig12", suite::kSetAnz, "nnz/row",
     [](const suite::MatrixMetrics& m) { return m.avg_nnz_per_row; }, 11.9, 28.9, 20.0},
    {"Fig. 13 — performance vs. size", "fig13", suite::kSetSize, "nnz",
     [](const suite::MatrixMetrics& m) { return static_cast<double>(m.nnz); }, 3.4, 28.2,
     15.5},
};

// The pieces of work one suite matrix contributes to the run, each its own
// pool task.
enum class Part : u8 {
  kHism,     // HiSM transpose simulation (Figs. 11-13)
  kCrs,      // CRS transpose simulation (Figs. 11-13)
  kFig10,    // its row of the Fig. 10 grid
  kStorage,  // its HiSM/CRS storage ratio
};

struct Task {
  usize matrix;  // suite index
  Part part;
};

// What the tasks of one suite matrix produce, stored by suite index so every
// sum below runs in suite order, whatever the schedule.
struct MatrixResults {
  bench::KernelRun hism;
  bench::KernelRun crs;
  std::vector<double> fig10;  // utilization at [bandwidth * lines.size() + line]
  StorageRow storage;
};

// Prints the figure banners to stderr in figure order while the tasks of all
// figures run at once: "Fig. 1x ..." when the previous figure's set is done,
// "  <set> done (N matrices)" once the last simulation of its set finished.
class FigureProgress {
 public:
  explicit FigureProgress(const std::vector<suite::SuiteMatrix>& suite) {
    for (const Figure& figure : kFigures) {
      usize matrices = 0;
      for (const auto& entry : suite) matrices += entry.set == figure.set ? 1 : 0;
      matrices_.push_back(matrices);
      remaining_.push_back(2 * matrices);  // one HiSM and one CRS simulation each
    }
    std::fprintf(stderr, "%s ...\n", kFigures[0].title);
    advance();
  }

  void simulated(const std::string& set) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (usize f = 0; f < std::size(kFigures); ++f) {
      if (set == kFigures[f].set) --remaining_[f];
    }
    advance();
  }

 private:
  void advance() {
    while (current_ < std::size(kFigures) && remaining_[current_] == 0) {
      std::fprintf(stderr, "  %s done (%zu matrices)\n", kFigures[current_].set,
                   matrices_[current_]);
      if (++current_ < std::size(kFigures)) {
        std::fprintf(stderr, "%s ...\n", kFigures[current_].title);
      }
    }
  }

  std::mutex mutex_;
  std::vector<usize> matrices_;
  std::vector<usize> remaining_;
  usize current_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const std::string out_path = cli.get_string("out", "REPORT.md");
  bench::BenchOptions options = bench::parse_options(cli);
  // The JSON artifact is always produced; it lands next to REPORT.md under
  // its canonical name unless --json overrides the path.
  if (!options.json_path) options.json_path = "BENCH_repro.json";
  const vsim::MachineConfig config;
  const auto started = std::chrono::steady_clock::now();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }

  out << "# Reproduction report — Sparse Matrix Transpose Unit (IPPS 2004)\n\n";
  out << format(
      "Machine: s = %u, p = %u, memory startup %u cycles (%u B/cycle contiguous, "
      "%u elem/cycle indexed), chaining %s; STM B = %u, L = %u. Suite scale %.2f.\n\n",
      config.section, config.lanes, config.mem_startup, config.mem_bytes_per_cycle,
      config.mem_indexed_elems_per_cycle, config.chaining ? "on" : "off",
      config.stm.bandwidth, config.stm.lines, options.suite.scale);

  // One pool serves the whole run. The suite is generated on it first
  // (setup ends at the "Fig. 10" banner); then every matrix's four parts —
  // both simulations, its Fig. 10 row and its storage row — are dispatched
  // together, largest matrix first, so the biggest tasks start early instead
  // of setting the tail of a per-section barrier. Storage rows only read
  // stages the other parts build, so they go last. Results land by suite
  // index and every table, sum and JSON row below is assembled in suite
  // order: identical for every -j value.
  ThreadPool pool(options.jobs);
  std::fprintf(stderr, "suite ...\n");
  const auto suite_matrices = suite::build_dsab_suite(pool, options.suite);

  std::fprintf(stderr, "Fig. 10 ...\n");
  Fig10Grid fig10;
  std::vector<MatrixResults> results(suite_matrices.size());
  std::vector<Task> tasks;
  for (const Part part : {Part::kHism, Part::kCrs, Part::kFig10, Part::kStorage}) {
    for (usize i = 0; i < suite_matrices.size(); ++i) tasks.push_back({i, part});
  }
  FigureProgress progress(suite_matrices);
  parallel_map(
      pool, tasks,
      [&](const Task& task) {
        const suite::SuiteMatrix& entry = suite_matrices[task.matrix];
        MatrixResults& result = results[task.matrix];
        auto& stages = kernels::MatrixStageCache::instance();
        switch (task.part) {
          case Part::kHism:
            result.hism = bench::run_hism_kernel(entry, config, options.verify, options.profile);
            progress.simulated(entry.set);
            break;
          case Part::kCrs:
            result.crs = bench::run_crs_kernel(entry, config, options.verify, options.profile);
            progress.simulated(entry.set);
            break;
          case Part::kFig10: {
            // The STM line traces are config-independent: extracted once,
            // they serve all 16 (B, L) grid points.
            const kernels::StmTraceSet traces =
                kernels::stm_block_traces(stages.hism(entry.matrix, config.section)->hism);
            for (const u32 bandwidth : fig10.bandwidths) {
              for (const u32 lines : fig10.lines) {
                StmConfig stm;
                stm.bandwidth = bandwidth;
                stm.lines = lines;
                result.fig10.push_back(kernels::stm_utilization(traces, stm).utilization);
              }
            }
            break;
          }
          case Part::kStorage: {
            const auto crs = stages.crs(entry.matrix);
            const HismStats stats = compute_stats(stages.hism(entry.matrix, config.section)->hism);
            result.storage = {static_cast<double>(stats.storage_bytes) /
                                  static_cast<double>(crs->csr.storage_bytes()),
                              stats.overhead_fraction};
            break;
          }
        }
      },
      [&](const Task& task) {
        return task.part == Part::kStorage ? 0 : suite_matrices[task.matrix].matrix.nnz();
      });

  // ---- Fig. 10 -----------------------------------------------------------
  out << "## Fig. 10 — buffer bandwidth utilization\n\n";
  {
    TextTable table({"B", "L=1", "L=2", "L=4", "L=8"});
    for (usize b = 0; b < fig10.bandwidths.size(); ++b) {
      std::vector<std::string> row = {format("%u", fig10.bandwidths[b])};
      std::vector<double> util_row;
      for (usize l = 0; l < fig10.lines.size(); ++l) {
        double sum = 0.0;
        for (const MatrixResults& result : results) {
          sum += result.fig10[b * fig10.lines.size() + l];
        }
        util_row.push_back(sum / static_cast<double>(results.size()));
        row.push_back(format("%.3f", util_row.back()));
      }
      fig10.utilization.push_back(std::move(util_row));
      table.add_row(std::move(row));
    }
    markdown_table(out, table);
    out << "Paper: BU max at B=1 (short of 1.0 only by the 6-cycle block penalty); "
           "grows with L, saturates past L=4 — the basis for fixing L=4.\n\n";
  }

  // ---- Figs. 11-13 ---------------------------------------------------------
  std::vector<FigureResult> figure_results;
  std::vector<bench::MatrixRecord> all_records;
  for (const Figure& figure : kFigures) {
    out << "## " << figure.title << "\n\n";
    FigureResult result{figure.figure, figure.set, figure.paper_min, figure.paper_max,
                        figure.paper_avg, {}};
    TextTable table(
        {"matrix", figure.metric_header, "nnz", "HiSM cyc/nnz", "CRS cyc/nnz", "speedup"});
    for (usize i = 0; i < suite_matrices.size(); ++i) {
      const suite::SuiteMatrix& entry = suite_matrices[i];
      if (entry.set != figure.set) continue;
      const bench::MatrixRecord& record = result.records.emplace_back(bench::MatrixRecord{
          entry.name, entry.set, figure.metric_header, figure.metric(entry.metrics),
          entry.matrix.nnz(),
          bench::combine_transposes(entry, options.profile, std::move(results[i].hism),
                                    std::move(results[i].crs))});
      table.add_row({record.name, format("%.2f", record.metric), format("%zu", record.nnz),
                     format("%.2f", record.comparison.hism_cycles_per_nnz),
                     format("%.2f", record.comparison.crs_cycles_per_nnz),
                     format("%.1f", record.comparison.speedup)});
    }
    markdown_table(out, table);
    const bench::SpeedupSummary summary = bench::summarize_speedups(result.records);
    out << format("measured speedup: min %.1f, max %.1f, avg %.1f — paper: %.1f / %.1f / %.1f\n\n",
                  summary.min, summary.max, summary.avg, figure.paper_min, figure.paper_max,
                  figure.paper_avg);
    all_records.insert(all_records.end(), result.records.begin(), result.records.end());
    figure_results.push_back(std::move(result));
  }

  // ---- Headline + storage --------------------------------------------------
  const bench::SpeedupSummary headline = bench::summarize_speedups(all_records);
  out << "## Headline\n\n";
  out << format("All %zu matrices: speedup %.1f .. %.1f, average %.1f "
                "(paper: 1.8 .. 32.0, average 17.6).\n\n",
                headline.count, headline.min, headline.max, headline.avg);

  out << "## Storage (§II claim)\n\n";
  StorageSummary storage;
  {
    double ratio_sum = 0.0;
    double overhead_sum = 0.0;
    for (const MatrixResults& result : results) {
      ratio_sum += result.storage.ratio;
      overhead_sum += result.storage.overhead;
    }
    storage.hism_crs_byte_ratio_avg = ratio_sum / static_cast<double>(results.size());
    storage.overhead_fraction_avg = overhead_sum / static_cast<double>(results.size());
    out << format("HiSM/CRS byte ratio averages %.2f over the suite; hierarchy overhead "
                  "averages %.1f%% (paper: ~2-5%% at s = 64).\n",
                  storage.hism_crs_byte_ratio_avg, 100.0 * storage.overhead_fraction_avg);
  }

  // ---- pointers beyond the paper ------------------------------------------
  out << "\n## Beyond the paper\n\n";
  out << "Results not part of the original evaluation live in their own benches "
         "(EXPERIMENTS.md records the measured numbers): `ext_multicore_scaling` "
         "runs the sharded HiSM and parallel CRS transposes at N = 1, 2, 4, 8 "
         "cores on the banked shared-memory system (docs/MULTICORE.md), and "
         "`ext_kernel_suite` runs the SELL-C-\xcf\x83 SpMV and the "
         "Gustavson-on-HiSM SpGEMM kernels across the locality and irregular "
         "sets (docs/KERNELS.md, docs/FORMATS.md). Both emit bench_diff-gated "
         "JSON reports next to this one.\n";

  // ---- harness -------------------------------------------------------------
  const bench::HarnessInfo harness{
      resolve_jobs(options.jobs),
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count()};
  out << "\n## Harness\n\n";
  out << format("Simulations fanned over %u worker thread(s) (--jobs) on a host with %u "
                "hardware thread(s); total wall time %.0f ms. Cycle counts are "
                "deterministic: identical for every -j value. Wall-clock speedup tracks "
                "the host's core count — on a single-core host the fan-out buys no time, "
                "only the determinism guarantee is exercised.\n",
                harness.jobs, std::thread::hardware_concurrency(), harness.wall_ms);

  // ---- machine-readable artifact -------------------------------------------
  {
    std::ofstream json_out(*options.json_path);
    SMTU_CHECK_MSG(static_cast<bool>(json_out),
                   "cannot open JSON output " + *options.json_path);
    JsonWriter json(json_out);
    json.begin_object();
    json.key("schema");
    json.value("smtu-repro-v1");
    json.key("bench");
    json.value("reproduce_all");
    json.key("config");
    vsim::write_machine_config_json(json, config);
    json.key("suite");
    json.begin_object();
    json.key("scale");
    json.value(options.suite.scale);
    json.key("seed");
    json.value(options.suite.seed);
    json.end_object();
    json.key("harness");
    bench::write_harness_json(json, harness);
    json.key("host");
    bench::write_host_json(json, bench::collect_host_counters());
    if (telemetry::enabled()) {
      // Telemetry-only key, skipped wholesale by tools/bench_diff.py, so
      // telemetry-on and -off reports stay bit-identical at threshold 0.
      json.key("telemetry");
      telemetry::write_telemetry_json(json);
    }
    json.key("fig10");
    json.begin_object();
    json.key("bandwidths");
    json.begin_array();
    for (const u32 bandwidth : fig10.bandwidths) json.value(static_cast<u64>(bandwidth));
    json.end_array();
    json.key("lines");
    json.begin_array();
    for (const u32 lines : fig10.lines) json.value(static_cast<u64>(lines));
    json.end_array();
    json.key("utilization");
    json.begin_array();
    for (const auto& row : fig10.utilization) {
      json.begin_array();
      for (const double utilization : row) json.value(utilization);
      json.end_array();
    }
    json.end_array();
    json.end_object();
    json.key("figures");
    json.begin_array();
    for (const FigureResult& result : figure_results) {
      json.begin_object();
      json.key("figure");
      json.value(result.figure);
      json.key("set");
      json.value(result.set);
      json.key("matrices");
      bench::write_matrix_records_json(json, result.records);
      json.key("summary");
      bench::write_speedup_summary_json(json, bench::summarize_speedups(result.records));
      json.key("paper");
      json.begin_object();
      json.key("min_speedup");
      json.value(result.paper_min);
      json.key("max_speedup");
      json.value(result.paper_max);
      json.key("avg_speedup");
      json.value(result.paper_avg);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.key("headline");
    bench::write_speedup_summary_json(json, headline);
    json.key("storage");
    json.begin_object();
    json.key("hism_crs_byte_ratio_avg");
    json.value(storage.hism_crs_byte_ratio_avg);
    json.key("overhead_fraction_avg");
    json.value(storage.overhead_fraction_avg);
    json.end_object();
    json.end_object();
    json_out << '\n';
    SMTU_CHECK_MSG(json.complete(), "BENCH_repro.json document left unbalanced");
  }

  std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  std::printf("wrote %s and %s\n", out_path.c_str(), options.json_path->c_str());
  bench::finish_telemetry(options);
  return 0;
}
