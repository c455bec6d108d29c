// The HiSM transposition kernel (Fig. 6/7 of the paper), hand-written in the
// vsim assembly language and executed on the simulated vector processor with
// the STM functional unit.
//
// The kernel is the paper's recursive transpose_block procedure with a real
// call stack in simulated memory. One deviation, forced by correctness and
// noted in DESIGN.md: for levels >= 1 the lengths-vector pass runs *before*
// the element pass (Fig. 6 lists it after). Both passes drain the s x s
// memory in the same order (they scatter the same positions), but the
// element pass rewrites the stored positions in place — running it first
// would leave the lengths pass without the original positions to scatter by.
// The lengths pass therefore goes first and stores only the permuted lengths
// (v_stbv), leaving positions for the element pass to consume and rewrite.
#pragma once

#include <string>

#include "hism/hism.hpp"
#include "kernels/staging.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

// The kernel source; independent of machine parameters (strip mining adapts
// via ssvl, recursion via the level argument).
//
// `split_drain_registers`: use vr3/vr4 for the drain loops instead of
// reusing vr1/vr2 — removes the write-after-read serialization between a
// block's drain and the next block's fill, which matters only on a
// double-buffered STM (StmConfig::double_buffer); the default matches the
// paper's Fig. 7 register usage.
std::string hism_transpose_source(bool split_drain_registers = false);

// Runs the kernel on a fresh machine that attaches the stage's shared
// snapshot copy-on-write (kernels/staging.hpp), so config sweeps over one
// matrix pay the image build once; a caller holding a matrix stages it with
// build_hism_stage. Every output is optional:
//   * `trace` collects per-instruction timing events (vsim/trace.hpp,
//     docs/TRACE.md); it is not cleared first.
//   * `profiler` receives cycle attribution (vsim/profiler.hpp,
//     docs/PROFILING.md); counters are not reset first.
//   * `transposed` receives the result decoded back from simulated memory.
//     Leave it null to time the kernel without paying for the decode.
vsim::RunStats time_hism_transpose(const HismStage& stage, const vsim::MachineConfig& config,
                                   bool split_drain_registers = false,
                                   vsim::ExecutionTrace* trace = nullptr,
                                   vsim::PerfCounters* profiler = nullptr,
                                   HismMatrix* transposed = nullptr);

// Software-pipelined variant for the double-buffered STM (extension E4):
// while leaf child k drains from one bank, child k+1 fills the other.
// Requires config.stm.double_buffer. A non-null `transposed` receives the
// decoded result, as above.
std::string hism_transpose_pipelined_source();
vsim::RunStats time_hism_transpose_pipelined(const HismStage& stage,
                                             const vsim::MachineConfig& config,
                                             HismMatrix* transposed = nullptr);

}  // namespace smtu::kernels
