#include "kernels/utilization.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace smtu::kernels {
namespace {

// Drain cost without per-line occupancy bits: aligned groups of L lines are
// scanned in order, one cycle minimum even when empty, exactly as
// StmUnit::freeze_drain_schedule charges it. Returns the cumulative cycle
// at which the last entry moves (= BlockResult::read_cycles).
u32 grouped_drain_cycles(std::span<const LineRun> runs, const StmConfig& config) {
  u32 cumulative = 0;
  usize k = 0;
  for (u32 group = 0; group < config.section; group += config.lines) {
    u32 count = 0;
    while (k < runs.size() && runs[k].line < group + config.lines) count += runs[k++].count;
    cumulative += std::max<u32>(1, static_cast<u32>(ceil_div(count, config.bandwidth)));
    if (k == runs.size()) break;
  }
  return cumulative;
}

}  // namespace

StmTraceSet stm_block_traces(const HismMatrix& hism) {
  StmTraceSet traces;
  traces.section = hism.section();
  std::vector<u32> per_col(hism.section());
  for (u32 level = 0; level < hism.num_levels(); ++level) {
    for (const BlockArray& block : hism.level(level)) {
      if (block.size() == 0) continue;
      StmBlockTrace trace;
      trace.entries = static_cast<u32>(block.size());
      trace.passes = level > 0 ? 2 : 1;
      std::fill(per_col.begin(), per_col.end(), 0u);
      for (const BlockPos& pos : block.pos) {
        if (trace.fill.empty() || trace.fill.back().line != pos.row) {
          trace.fill.push_back({0, pos.row});
        }
        ++trace.fill.back().count;
        ++per_col[pos.col];
      }
      // Drain order = the transpose read out row-major: the stored
      // positions by column, so one run per occupied column, in order.
      for (u32 col = 0; col < per_col.size(); ++col) {
        if (per_col[col] != 0) trace.drain.push_back({per_col[col], static_cast<u8>(col)});
      }
      traces.blocks.push_back(std::move(trace));
    }
  }
  return traces;
}

UtilizationBreakdown stm_utilization(const StmTraceSet& traces, const StmConfig& config) {
  StmConfig stm_config = config;
  stm_config.section = traces.section;

  UtilizationBreakdown breakdown;
  for (const StmBlockTrace& block : traces.blocks) {
    const u32 fill = stream_cycles(block.fill, stm_config);
    const u32 drain = stm_config.skip_empty_lines ? stream_cycles(block.drain, stm_config)
                                                  : grouped_drain_cycles(block.drain, stm_config);
    const u64 pass_cycles = static_cast<u64>(fill) + drain +
                            stm_config.fill_pipeline_cycles +
                            stm_config.drain_pipeline_cycles;
    breakdown.transfers += static_cast<u64>(block.passes) * 2 * block.entries;
    breakdown.cycles += block.passes * pass_cycles;
    breakdown.block_passes += block.passes;
  }
  if (breakdown.cycles > 0) {
    breakdown.utilization =
        static_cast<double>(breakdown.transfers) /
        (static_cast<double>(breakdown.cycles) * static_cast<double>(config.bandwidth));
  }
  return breakdown;
}

UtilizationBreakdown stm_utilization(const HismMatrix& hism, const StmConfig& config) {
  return stm_utilization(stm_block_traces(hism), config);
}

}  // namespace smtu::kernels
