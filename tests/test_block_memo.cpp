// The block-timing memo (HACKING.md "Block-timing memo") against the
// per-instruction path it stands in for. Machine::run() with nothing
// attached times memoizable scalar blocks from the memo; with a profiler
// attached it never does. Seeded random scalar programs run both ways on
// the same inputs must end in equal RunStats, registers and memory — the
// profile itself is never consulted, only the run it forces.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"

namespace smtu::vsim {
namespace {

// Registers the generated programs use: r1..r19 as data, r20 as the data
// base (never written), r21..r23 as loop counters by nesting depth, r24 and
// r25 for vl counts, r26 as a branch temporary, r31 as the link register.
constexpr u32 kDataRegs = 19;
constexpr u32 kBaseReg = 20;
constexpr Addr kDataBase = 0x1000;
constexpr u32 kDataWords = 256;

// A random scalar program as a prologue, top-level segments and called
// functions, so every prefix of its segments is a program too.
struct GeneratedProgram {
  std::string prologue;
  std::vector<std::string> segments;
  std::string functions;

  std::string prefix(usize count) const {
    std::string source = prologue;
    for (usize i = 0; i < count; ++i) source += segments[i];
    return source + "    halt\n" + functions;
  }
};

class ProgramGen {
 public:
  explicit ProgramGen(u64 seed) : rng_(seed) {}

  GeneratedProgram generate() {
    GeneratedProgram program;
    for (u32 r = 1; r <= kDataRegs; ++r) emit(format("li r%u, %llu", r, small()));
    emit(format("li r%u, %u", kBaseReg, static_cast<u32>(kDataBase)));
    program.prologue = take();
    const u32 segments = 3 + static_cast<u32>(rng_.below(8));
    for (u32 i = 0; i < segments; ++i) {
      segment(0);
      program.segments.push_back(take());
    }
    for (u32 f = 0; f < functions_; ++f) {
      out_ += format("fn%u:\n", f);
      straight_line(1 + static_cast<u32>(rng_.below(6)));
      emit("jr r31");
    }
    program.functions = take();
    return program;
  }

 private:
  std::string take() { return std::exchange(out_, std::string()); }
  unsigned long long small() { return static_cast<unsigned long long>(rng_.below(1000)); }
  u32 data_reg() { return 1 + static_cast<u32>(rng_.below(kDataRegs)); }
  // A small register pool makes dependence chains; the full one makes
  // blocks that touch more registers than a memo key holds.
  u32 reg(bool narrow) { return narrow ? 1 + static_cast<u32>(rng_.below(4)) : data_reg(); }
  u32 offset() { return 4 * static_cast<u32>(rng_.below(kDataWords)); }

  void emit(const std::string& line) { out_ += "    " + line + "\n"; }

  void instruction(bool narrow) {
    const u32 d = reg(narrow);
    const u32 a = reg(narrow);
    const u32 b = reg(narrow);
    switch (rng_.below(14)) {
      case 0: emit(format("add r%u, r%u, r%u", d, a, b)); break;
      case 1: emit(format("sub r%u, r%u, r%u", d, a, b)); break;
      case 2: emit(format("mul r%u, r%u, r%u", d, a, b)); break;
      case 3: emit(format("xor r%u, r%u, r%u", d, a, b)); break;
      case 4: emit(format("min r%u, r%u, r%u", d, a, b)); break;
      case 5: emit(format("addi r%u, r%u, %llu", d, a, small())); break;
      case 6: emit(format("muli r%u, r%u, 3", d, a)); break;
      case 7: emit(format("srli r%u, r%u, %u", d, a, static_cast<u32>(rng_.below(8)))); break;
      case 8: emit(format("lw r%u, %u(r%u)", d, offset(), kBaseReg)); break;
      case 9: emit(format("lbu r%u, %u(r%u)", d, offset(), kBaseReg)); break;
      case 10: emit(format("sw r%u, %u(r%u)", a, offset(), kBaseReg)); break;
      case 11: emit(format("sh r%u, %u(r%u)", a, offset(), kBaseReg)); break;
      // One float operand at most may be a NaN: with two, which payload
      // survives depends on the host compiler's operand order.
      case 12: emit(format("fadd r%u, r%u, r0", d, a)); break;
      default: emit(format("mv r%u, r%u", d, a)); break;
    }
  }

  void straight_line(u32 count) {
    const bool narrow = rng_.chance(0.5);
    for (u32 i = 0; i < count; ++i) instruction(narrow);
  }

  // A branch condition: two data registers, or the parity of the innermost
  // loop counter (alternating outcomes reach one block by both paths).
  std::string condition(u32 depth) {
    if (depth > 0 && rng_.chance(0.5)) {
      emit(format("andi r26, r%u, 1", 20 + depth));
      return "r26, r0";
    }
    return format("r%u, r%u", data_reg(), data_reg());
  }

  void segment(u32 depth) {
    const u32 label = labels_++;
    switch (rng_.below(depth < 2 ? 8 : 6)) {
      case 0:  // straight-line run, often past the key's register count
        straight_line(1 + static_cast<u32>(rng_.below(24)));
        break;
      case 1: {  // forward branch over 0-5 instructions: either outcome
        const char* ops[] = {"beq", "bne", "blt", "bge"};
        const std::string cond = condition(depth);
        emit(format("%s %s, L%u", ops[rng_.below(4)], cond.c_str(), label));
        straight_line(static_cast<u32>(rng_.below(6)));
        out_ += format("L%u:\n", label);
        break;
      }
      case 2: {  // if-else
        const std::string cond = condition(depth);
        emit(format("bge %s, E%u", cond.c_str(), label));
        straight_line(1 + static_cast<u32>(rng_.below(4)));
        emit(format("beq r0, r0, L%u", label));
        out_ += format("E%u:\n", label);
        straight_line(1 + static_cast<u32>(rng_.below(4)));
        out_ += format("L%u:\n", label);
        break;
      }
      case 3:  // call
        straight_line(static_cast<u32>(rng_.below(4)));
        emit(format("jal fn%u", functions_ < 3 ? functions_++ : static_cast<u32>(rng_.below(3))));
        break;
      case 4: {  // strip-mining bookkeeping in a scalar loop
        emit(format("li r24, %u", 1 + static_cast<u32>(rng_.below(300))));
        out_ += format("L%u:\n", label);
        if (rng_.chance(0.5)) {
          emit("ssvl r24");
        } else {
          emit("setvl r25, r24");
          emit("sub r24, r24, r25");
        }
        straight_line(static_cast<u32>(rng_.below(4)));
        emit(format("blt r0, r24, L%u", label));
        break;
      }
      case 5:  // a vector op between scalar blocks
        emit("setvl r25, r24");
        emit(format("v_bcast vr1, r%u", data_reg()));
        emit("v_add vr2, vr1, vr1");
        straight_line(static_cast<u32>(rng_.below(3)));
        break;
      default: {  // counted loop whose body is more segments
        const u32 counter = 21 + depth;
        emit(format("li r%u, %u", counter, 1 + static_cast<u32>(rng_.below(40))));
        out_ += format("L%u:\n", label);
        const u32 parts = 1 + static_cast<u32>(rng_.below(3));
        for (u32 i = 0; i < parts; ++i) segment(depth + 1);
        emit(format("addi r%u, r%u, -1", counter, counter));
        emit(format("bne r%u, r0, L%u", counter, label));
        break;
      }
    }
  }

  Rng rng_;
  std::string out_;
  u32 labels_ = 0;
  u32 functions_ = 0;
};

MachineConfig random_config(Rng& rng) {
  MachineConfig config;
  const u32 latencies[] = {1, 3, 8, 40, 200, 300};
  config.scalar_issue_width = 1 + static_cast<u32>(rng.below(4));
  config.scalar_mem_ports = 1 + static_cast<u32>(rng.below(2));
  config.scalar_load_latency = latencies[rng.below(6)];
  config.mul_latency = latencies[rng.below(6)];
  config.scalar_op_latency = 1 + static_cast<u32>(rng.below(2));
  config.branch_penalty = static_cast<u32>(rng.below(10));
  return config;
}

struct Outcome {
  RunStats stats;
  Cycle horizon = 0;  // the halt's issue cycle: every issue delay reaches it
  std::vector<u64> sregs;
  std::string memory;
};

Outcome run_once(const Program& program, const MachineConfig& config, bool profiled) {
  Machine machine(config);
  machine.memory().ensure(0, kDataBase + 4 * kDataWords);
  for (u32 i = 0; i < kDataWords; ++i) {
    machine.memory().write_u32(kDataBase + 4 * i, i * 2654435761u);
  }
  PerfCounters profiler;
  if (profiled) machine.attach_profiler(&profiler);
  Outcome outcome;
  outcome.stats = machine.run(program);
  outcome.horizon = machine.issue_horizon();
  for (u32 r = 0; r < kNumScalarRegs; ++r) outcome.sregs.push_back(machine.sreg(r));
  testing::SimHash hash;
  hash.update(machine.memory().raw());
  outcome.memory = hash.hex();
  return outcome;
}

// Runs `source` memoized and stepped; a failure names the source.
void expect_memo_matches_stepping(const std::string& source, const MachineConfig& config) {
  const Program program = assemble(source);
  const Outcome memoized = run_once(program, config, /*profiled=*/false);
  const Outcome stepped = run_once(program, config, /*profiled=*/true);
  EXPECT_EQ(memoized.stats, stepped.stats) << source;
  EXPECT_EQ(memoized.horizon, stepped.horizon) << source;
  EXPECT_EQ(memoized.sregs, stepped.sregs) << source;
  EXPECT_EQ(memoized.memory, stepped.memory) << source;
}

u64 memo_counter(const char* name) { return telemetry::counter(name).value(); }

TEST(BlockMemo, RandomScalarProgramsMatchThePerInstructionPath) {
  telemetry::MetricsRegistry::instance().reset_for_tests();
  telemetry::set_enabled(true);
  Rng config_rng(0xB10C);
  for (u64 seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(format("seed %llu", static_cast<unsigned long long>(seed)));
    const GeneratedProgram program = ProgramGen(seed).generate();
    const MachineConfig config = random_config(config_rng);
    // Every prefix ends in a halt, so each segment's timing reaches the
    // end of some run before later segments can absorb a difference.
    for (usize count = 1; count <= program.segments.size(); ++count) {
      expect_memo_matches_stepping(program.prefix(count), config);
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The comparison only means something if the memo did its three things.
  const u64 hits = memo_counter("vsim.block_memo.hits_total");
  const u64 misses = memo_counter("vsim.block_memo.misses_total");
  const u64 fast_forwards = memo_counter("vsim.block_memo.fast_forward_total");
  telemetry::set_enabled(false);
  telemetry::MetricsRegistry::instance().reset_for_tests();
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(fast_forwards, 0u);
}

// Two loops that reach one block from two paths whose entry states differ
// in a single key field. A key without that field would replay one path's
// timing on the other.
TEST(BlockMemo, EntryStatesDifferingInOneFieldGetTheirOwnEntries) {
  // A register ready 42 vs 298 cycles past the block's base: 256 apart, so
  // the two offsets share their low byte. Past 255 the block steps instead.
  MachineConfig config;
  config.scalar_issue_width = 1;
  config.branch_penalty = 0;
  config.mul_latency = 44;
  config.scalar_load_latency = 300;
  expect_memo_matches_stepping(
      "    li r9, 6\n"
      "    li r6, 7\n"
      "loop:\n"
      "    andi r8, r9, 1\n"
      "    beq r8, r0, even\n"
      "    mul r5, r6, r6\n"
      "    beq r0, r0, join\n"
      "even:\n"
      "    lw r5, 0x100(r0)\n"
      "    beq r0, r0, join\n"
      "join:\n"
      "    addi r7, r5, 1\n"
      "    addi r9, r9, -1\n"
      "    bne r9, r0, loop\n"
      "    halt\n",
      config);

  // The scalar memory port full at the base (the odd path's second load
  // waited a cycle for it) vs free: the block's store issues a cycle apart.
  config = MachineConfig{};
  config.scalar_issue_width = 4;
  config.scalar_mem_ports = 1;
  expect_memo_matches_stepping(
      "    li r2, 0x100\n"
      "    li r9, 8\n"
      "loop:\n"
      "    andi r8, r9, 1\n"
      "    addi r9, r9, -1\n"
      "    bne r8, r0, odd\n"
      "    beq r0, r0, vec\n"
      "odd:\n"
      "    lw r5, 0(r2)\n"
      "    lw r6, 4(r2)\n"
      "vec:\n"
      "    v_bcast vr1, r0\n"
      "    sw r9, 8(r2)\n"
      "    bne r9, r0, loop\n"
      "    halt\n",
      config);
}

TEST(BlockMemo, BlocksAreDescribedOncePerProgram) {
  const Program program = assemble(
      "    li r1, 5\n"          // 0: block [0, 4): li, li, addi, bne
      "    li r2, 0\n"          // 1
      "loop:\n"
      "    addi r2, r2, 1\n"    // 2: block [2, 4)
      "    bne r2, r1, loop\n"  // 3: a lone terminator is not memoized
      "    v_bcast vr1, r2\n"   // 4: vector ops end blocks
      "    sw r2, (r0)\n"       // 5: block [5, 6) is one instruction
      "    halt\n");
  ASSERT_EQ(program.blocks.size(), program.size());
  EXPECT_EQ(program.blocks[0].length, 4u);
  EXPECT_EQ(program.blocks[0].num_regs, 2u);
  EXPECT_EQ(program.blocks[0].written, 0b11);
  EXPECT_EQ(program.blocks[1].length, 3u);
  EXPECT_EQ(program.blocks[2].length, 2u);
  EXPECT_FALSE(program.blocks[2].scalar_mem);
  EXPECT_EQ(program.blocks[3].length, 0u);
  EXPECT_EQ(program.blocks[4].length, 0u);
  EXPECT_EQ(program.blocks[5].length, 0u);
  EXPECT_EQ(program.blocks[6].length, 0u);

  // Fourteen registers in one block is one too many for the key.
  std::string wide;
  for (u32 r = 1; r <= 14; ++r) wide += format("li r%u, %u\n", r, r);
  wide += "halt\n";
  const Program too_wide = assemble(wide);
  EXPECT_EQ(too_wide.blocks[0].length, 0u);
  EXPECT_EQ(too_wide.blocks[1].length, 13u);
  EXPECT_EQ(too_wide.blocks[1].num_regs, 13u);
}

TEST(BlockMemo, BudgetEqualToTheRunCompletes) {
  const Program program = assemble(
      "    li r1, 0\n"
      "    li r2, 100\n"
      "loop:\n"
      "    addi r1, r1, 3\n"
      "    sw r1, 0x100(r0)\n"
      "    addi r2, r2, -1\n"
      "    bne r2, r0, loop\n"
      "    halt\n");
  MachineConfig config;
  const RunStats reference = Machine(config).run(program);
  config.max_instructions = reference.instructions;
  Machine machine(config);
  EXPECT_EQ(machine.run(program), reference);
  EXPECT_EQ(machine.sreg(1), 300u);
}

TEST(BlockMemoDeathTest, BudgetRunningOutInsideAFastForwardedLoopAborts) {
  const Program program = assemble(
      "    li r2, 1000\n"
      "loop:\n"
      "    addi r1, r1, 1\n"
      "    addi r2, r2, -1\n"
      "    bne r2, r0, loop\n"
      "    halt\n");
  MachineConfig config;
  config.max_instructions = 1 + 3 * 500 + 1;  // dies inside iteration 501
  EXPECT_DEATH(Machine(config).run(program), "instruction budget exceeded");
  config.max_instructions = 1 + 3 * 1000;  // one short of the halt
  EXPECT_DEATH(Machine(config).run(program), "instruction budget exceeded");
}

TEST(BlockMemoDeathTest, MemoizableBlockFallingOffTheProgramAborts) {
  const Program program = assemble("li r1, 1\naddi r1, r1, 2\nmv r2, r1\n");
  ASSERT_EQ(program.blocks[0].length, 3u);
  EXPECT_DEATH(Machine(MachineConfig{}).run(program), "pc ran off the end");
}

}  // namespace
}  // namespace smtu::vsim
