// An assembled program: decoded instructions, the label map, and the
// profiler's debug info (source-line text plus `;; profile:` regions).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vsim/isa.hpp"

namespace smtu::vsim {

// A named instruction range opened by a `;; profile: <name>` assembler
// directive (closed by the next directive or the end of the program).
// Ranges are ordered and non-overlapping; `end` is one past the last pc.
struct ProfileRegion {
  std::string name;
  usize begin = 0;
  usize end = 0;
};

// Functional unit a vector instruction occupies. Values match the
// Machine's internal unit indices.
enum class ExecUnit : u8 { kVMem = 0, kVAlu = 1, kStm = 2 };

// Which MachineConfig field supplies an instruction's startup latency.
// Resolved to a cycle count once per run (the config is per-Machine, the
// kind is per-static-instruction).
enum class StartupKind : u8 { kMem = 0, kValu = 1, kStmFill = 2, kStmDrain = 3, kNone = 4 };
inline constexpr usize kStartupKindCount = static_cast<usize>(StartupKind::kNone) + 1;

// Per-opcode static properties, constexpr so the predecoder and the
// per-opcode handler templates (machine.cpp) resolve them from one source.

// Vector memory accesses that move one element per cycle (an address per
// element) rather than streaming at the port's byte rate.
constexpr bool op_indexed_vmem(Op op) {
  return op == Op::kVLdx || op == Op::kVStx || op == Op::kVLds || op == Op::kVSts ||
         op == Op::kVScaX;
}

// Scalar loads/stores contend for the scalar memory ports.
constexpr bool op_scalar_mem(Op op) {
  switch (op) {
    case Op::kLw:
    case Op::kLhu:
    case Op::kLbu:
    case Op::kSw:
    case Op::kSh:
    case Op::kSb:
    case Op::kAmoAdd:
      return true;
    default:
      return false;
  }
}

// Scalar ops that write a result into register `a`, and which latency
// that result pays (the handlers' retirement and the block describer's
// register sets read the same table).
enum class ResultLatency : u8 { kNone, kOp, kMul, kLoad };
constexpr ResultLatency op_result_latency(Op op) {
  switch (op) {
    case Op::kLi:
    case Op::kMv:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kSll:
    case Op::kSrl:
    case Op::kMin:
    case Op::kMax:
    case Op::kAddi:
    case Op::kAndi:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kJal:
    case Op::kSsvl:
    case Op::kSetvl:
      return ResultLatency::kOp;
    case Op::kMul:
    case Op::kMuli:
    case Op::kFAdd:
    case Op::kFMul:
      return ResultLatency::kMul;
    case Op::kLw:
    case Op::kLhu:
    case Op::kLbu:
    case Op::kAmoAdd:
      return ResultLatency::kLoad;
    default:
      return ResultLatency::kNone;
  }
}

// Control transfers: the last instruction of a scalar block.
constexpr bool op_block_terminator(Op op) {
  return op == Op::kBeq || op == Op::kBne || op == Op::kBlt || op == Op::kBge ||
         op == Op::kJal || op == Op::kJr;
}

// Functional unit a vector instruction occupies (meaningful only when
// op_is_vector(op)).
constexpr ExecUnit op_unit(Op op) {
  switch (op) {
    case Op::kVLd:
    case Op::kVSt:
    case Op::kVLdx:
    case Op::kVStx:
    case Op::kVLds:
    case Op::kVSts:
    case Op::kVLdb:
    case Op::kVStb:
    case Op::kVStbv:
    case Op::kVGthC:
    case Op::kVScaR:
    case Op::kVGthR:
    case Op::kVScaC:
    case Op::kVScaX:
      return ExecUnit::kVMem;
    case Op::kIcm:
    case Op::kVStcr:
    case Op::kVLdcc:
      return ExecUnit::kStm;
    default:
      return ExecUnit::kVAlu;
  }
}

constexpr StartupKind op_startup(Op op) {
  switch (op) {
    case Op::kIcm:
      return StartupKind::kNone;
    case Op::kVStcr:
      return StartupKind::kStmFill;
    case Op::kVLdcc:
      return StartupKind::kStmDrain;
    default:
      return op_unit(op) == ExecUnit::kVMem ? StartupKind::kMem : StartupKind::kValu;
  }
}

// The interpreter's hot state bundle (vsim/machine.hpp).
struct ExecState;

// Dispatch-friendly predecode of one static instruction: everything the
// interpreter's issue logic derives from the opcode alone (unit, startup
// kind, operand register lists) is computed once at assembly time instead
// of per dynamic execution. Register numbers are resolved from the
// Instruction fields, in the same order the Machine's hazard checks
// evaluated them.
//
// `handler` and `observed_handler` are the threaded-code dispatch targets:
// two instantiations of one per-opcode template that executes the
// instruction end to end (timing model + functional semantics) and
// advances es.pc. They differ only in the hooks: `observed_handler` feeds
// an attached PerfCounters, ExecutionTrace or enable_trace budget, while
// `handler` compiles those branches out. Machine::begin_run picks one of
// the two for the whole run from what is attached, so a predecoded Program
// stays immutable and shareable (ProgramCache) whichever way it runs.
//
// `functional_handler` and `timing_handler` are the same template's two
// halves, bound for the scalar ops a ScalarBlock may hold (null otherwise):
// the block-timing memo runs a block's functional halves, and replays the
// timing halves only when its memo has no entry for the block's state.
struct DecodedInst {
  bool is_vector = false;
  bool indexed_vmem = false;  // 1-element/cycle vmem access (v_ldx/v_stx/v_lds/v_sts)
  bool scalar_mem = false;    // scalar load/store (uses the scalar memory port)
  ExecUnit unit = ExecUnit::kVAlu;
  StartupKind startup = StartupKind::kNone;
  u8 num_sregs = 0;  // scalar source registers read at issue
  u8 num_srcs = 0;   // vector source registers
  u8 num_dsts = 0;   // vector destination registers
  u8 sregs[2] = {0, 0};
  u8 srcs[3] = {0, 0, 0};
  u8 dsts[2] = {0, 0};
  void (*handler)(ExecState&, const Instruction&, const DecodedInst&) = nullptr;
  void (*observed_handler)(ExecState&, const Instruction&, const DecodedInst&) = nullptr;
  void (*functional_handler)(ExecState&, const Instruction&, const DecodedInst&) = nullptr;
  void (*timing_handler)(ExecState&, const Instruction&, const DecodedInst&) = nullptr;
};

// Pre-bound per-opcode execute handler (see DecodedInst::handler).
using OpHandler = void (*)(ExecState&, const Instruction&, const DecodedInst&);

// Which instantiation of the per-opcode template a handler is: a whole
// instruction without or with the observer hooks, or one of the two halves
// a memoized scalar block runs (registers and memory only; the timing
// model only, with the block's recorded branch outcome).
enum class HandlerMode : u8 { kUnobserved, kObserved, kFunctional, kTiming };

// The handler for one opcode, from one of the four process-global
// per-opcode tables (defined next to the Machine in machine.cpp). The
// half tables hold null for the ops a ScalarBlock never contains. Stable
// for the process lifetime, so predecoded programs cached by ProgramCache
// stay valid.
OpHandler opcode_handler(Op op, HandlerMode mode);

// A scalar block: the maximal run of scalar instructions other than
// `barrier`/`halt` starting at one pc, ending at (and including) the first
// control transfer (op_block_terminator) or at the program's end. The
// unobserved Machine::run() times memoizable blocks from a per-run memo
// keyed on the scoreboard state of `regs` relative to the block's entry
// (HACKING.md "Block-timing memo"). A block is memoizable when it holds at
// least two instructions and touches at most kMaxBlockRegs registers
// (r0 excluded: it never waits and never retires).
inline constexpr u32 kMaxBlockRegs = 13;
struct ScalarBlock {
  u32 length = 0;  // instructions; 0 = not memoizable (step one at a time)
  u8 num_regs = 0;
  bool scalar_mem = false;  // holds a load, store or amo_add
  bool sets_vl = false;     // holds a setvl or ssvl
  u16 written = 0;          // bit i: regs[i] is some instruction's destination
  u8 regs[kMaxBlockRegs] = {};  // read or written, ascending
};

// One ScalarBlock per pc (the block starting there), from the program's
// instructions and their predecode.
std::vector<ScalarBlock> describe_blocks(const std::vector<Instruction>& instructions,
                                        const std::vector<DecodedInst>& decoded);

// Predecode of a single instruction / an instruction sequence. Machine::run
// uses Program::decoded when present and falls back to decoding on the fly
// for hand-built Programs.
DecodedInst decode_instruction(const Instruction& inst);
std::vector<DecodedInst> decode_instructions(const std::vector<Instruction>& instructions);

struct Program {
  std::vector<Instruction> instructions;
  std::map<std::string, usize> labels;
  std::vector<ProfileRegion> regions;
  // Source text by 1-based line number (index 0 unused) — what
  // Instruction::source_line points into; feeds the profiler's per-line
  // hot-spot tables.
  std::vector<std::string> source_lines;
  // One entry per instruction when predecoded (assemble() always fills
  // this); empty on hand-built programs until predecode() is called.
  std::vector<DecodedInst> decoded;
  // One entry per instruction when predecoded, like `decoded`.
  std::vector<ScalarBlock> blocks;

  usize size() const { return instructions.size(); }

  // (Re)builds `decoded` and `blocks` from `instructions`.
  void predecode() {
    decoded = decode_instructions(instructions);
    blocks = describe_blocks(instructions, decoded);
  }
  bool has_label(const std::string& name) const { return labels.count(name) > 0; }
  usize label(const std::string& name) const;

  // The region containing `pc`, or nullptr when the pc is outside every
  // `;; profile:` range.
  const ProfileRegion* region_of(usize pc) const;

  // The source text of 1-based `line` ("" when unavailable, e.g. programs
  // built directly from Instruction records).
  const std::string& source_line_text(u32 line) const;

  // Disassembly listing with labels, for debugging kernels.
  std::string listing() const;
};

}  // namespace smtu::vsim
