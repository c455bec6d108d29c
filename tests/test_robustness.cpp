// Robustness tests: malformed inputs must produce clean diagnostics
// (AssemblyError / std::runtime_error / SMTU_CHECK aborts), never crashes
// or silent corruption.
#include <gtest/gtest.h>

#include <sstream>

#include "formats/matrix_market.hpp"
#include "support/rng.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"

namespace smtu {
namespace {

TEST(AssemblerRobustness, GarbageLinesRaiseNotCrash) {
  const char* cases[] = {
      "add",                        // missing operands
      "add r1 r2 r3 r4 r5",         // too many (whitespace split)
      "li r1",                      // missing immediate
      "li r1, banana",              // bad immediate
      "lw r1, (r2",                 // unbalanced parens
      "lw r1, )r2(",                // reversed parens
      "v_ld vr1, r2",               // missing memory operand form
      "v_ldb vr1, vr2, vr3, vr4",   // scalar regs expected
      "beq r1, r2",                 // missing label
      "jal",                        // missing label
      ":",                          // empty label
      "lone:\n  bne r1, r0, gone",  // undefined target
      "mv r1, v r2",                // junk register
      "addi r1, r2, 0x",            // truncated hex
      "ssvl vr1",                   // vector reg where scalar expected
  };
  for (const char* source : cases) {
    EXPECT_THROW(vsim::assemble(std::string(source) + "\nhalt\n"), vsim::AssemblyError)
        << "source: " << source;
  }
}

TEST(AssemblerRobustness, RandomTokenSoupNeverCrashes) {
  // Fuzz-ish: random printable junk must either assemble (unlikely) or
  // throw AssemblyError — never crash.
  Rng rng(42);
  const char alphabet[] = "abcdefgr v,()0123456789:_#-";
  for (int trial = 0; trial < 500; ++trial) {
    std::string source;
    const usize length = 1 + rng.below(60);
    for (usize i = 0; i < length; ++i) {
      source += alphabet[rng.below(sizeof(alphabet) - 1)];
      if (rng.chance(0.1)) source += '\n';
    }
    try {
      (void)vsim::assemble(source);
    } catch (const vsim::AssemblyError&) {
      // expected for junk
    }
  }
  SUCCEED();
}

TEST(AssemblerRobustness, ValidProgramsAcceptAnyWhitespace) {
  const vsim::Program p = vsim::assemble(
      "\t\tli\t r1 ,  7\n"
      "   loop:bne r1,r0,end\n"
      "end:   halt\n");
  EXPECT_EQ(p.size(), 3u);
}

TEST(MatrixMarketRobustness, MalformedInputsThrowWithLineNumbers) {
  const char* cases[] = {
      "",                                                     // empty
      "%%MatrixMarket\n",                                     // short header
      "%%MatrixMarket matrix coordinate real general\n",      // no size line
      "%%MatrixMarket matrix coordinate real general\nx y z\n",
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",   // arity
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n", // 0-index
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n",
      "%%MatrixMarket matrix array real general\n2 2\n1.0\n",  // truncated
      "%%MatrixMarket matrix coordinate hermitian general\n1 1 0\n",
      // A hostile declared nnz: more entries than cells, far past memory.
      "%%MatrixMarket matrix coordinate real general\n1 1 99999999999999999\n1 1 1\n",
  };
  for (const char* source : cases) {
    std::istringstream in(source);
    EXPECT_THROW(read_matrix_market(in), std::runtime_error) << source;
  }
}

// COO coordinates are 32-bit: a declared dimension past 2^32 - 1 must be
// refused, not truncated into a different matrix.
TEST(MatrixMarketRobustness, DimensionsPast32BitsThrow) {
  const char* cases[] = {
      "%%MatrixMarket matrix coordinate real general\n4294967296 2 1\n1 1 1\n",
      "%%MatrixMarket matrix coordinate real general\n2 4294967296 1\n1 1 1\n",
      "%%MatrixMarket matrix coordinate pattern symmetric\n18446744073709551615 3 0\n",
      "%%MatrixMarket matrix array real general\n4294967296 1\n1.0\n",
      "%%MatrixMarket matrix array real general\n1 4294967297\n1.0\n",
  };
  for (const char* source : cases) {
    std::istringstream in(source);
    EXPECT_THROW(read_matrix_market(in), std::runtime_error) << source;
  }
}

TEST(MatrixMarketRobustness, LargestDimensionsStillRead) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n4294967295 4294967295 2\n"
      "4294967295 1 2.5\n1 4294967295 -1\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_EQ(coo.rows(), kMaxCooDim);
  EXPECT_EQ(coo.cols(), kMaxCooDim);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (CooEntry{0, 4294967294u, -1.0f}));
  EXPECT_EQ(coo.entries()[1], (CooEntry{4294967294u, 0, 2.5f}));
}

TEST(CooRobustnessDeathTest, DimensionsPast32BitsAbort) {
  EXPECT_DEATH(Coo(kMaxCooDim + 1, 1), "32-bit");
  EXPECT_DEATH(Coo(1, kMaxCooDim + 1), "32-bit");
  EXPECT_DEATH(Coo(kMaxCooDim + 1, 1, {}), "32-bit");
}

TEST(CooRobustnessDeathTest, AddPast32BitsAborts) {
  Coo coo(kMaxCooDim, kMaxCooDim);
  coo.add(kMaxCooDim - 1, kMaxCooDim - 1, 1.0f);  // the last cell fits
  EXPECT_EQ(coo.entries().back().row, 4294967294u);
  EXPECT_DEATH(coo.add(kMaxCooDim, 0, 1.0f), "out of bounds");
  EXPECT_DEATH(coo.add(0, u64{1} << 32, 1.0f), "out of bounds");
}

TEST(MachineRobustness, RerunningAProgramIsDeterministic) {
  vsim::Machine machine{vsim::MachineConfig{}};
  const vsim::Program program = vsim::assemble(
      "li r1, 100\nli r2, 0\nloop: add r2, r2, r1\naddi r1, r1, -1\n"
      "bne r1, r0, loop\nhalt\n");
  const vsim::RunStats first = machine.run(program);
  const u64 result_first = machine.sreg(2);
  machine.set_sreg(2, 0);
  const vsim::RunStats second = machine.run(program);
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(result_first, machine.sreg(2));
}

TEST(MachineRobustness, MemoryPersistsAcrossRuns) {
  vsim::Machine machine{vsim::MachineConfig{}};
  machine.run(vsim::assemble("li r1, 0x500\nli r2, 77\nsw r2, (r1)\nhalt\n"));
  machine.run(vsim::assemble("li r1, 0x500\nlw r3, (r1)\nhalt\n"));
  EXPECT_EQ(machine.sreg(3), 77u);
}

TEST(MachineRobustness, EntryLabelSelectsStartPoint) {
  vsim::Machine machine{vsim::MachineConfig{}};
  const vsim::Program program = vsim::assemble(
      "alpha: li r1, 1\nhalt\n"
      "beta: li r1, 2\nhalt\n");
  machine.run(program, program.label("beta"));
  EXPECT_EQ(machine.sreg(1), 2u);
}

TEST(MachineRobustnessDeathTest, BadEntryPcAborts) {
  vsim::Machine machine{vsim::MachineConfig{}};
  const vsim::Program program = vsim::assemble("halt\n");
  EXPECT_DEATH(machine.run(program, 99), "entry pc");
}

}  // namespace
}  // namespace smtu
