#include "vsim/program.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "support/assert.hpp"

namespace smtu::vsim {
namespace {

void decode_vector(const Instruction& inst, DecodedInst& d) {
  d.is_vector = true;
  d.indexed_vmem = op_indexed_vmem(inst.op);

  // Scalar sources the instruction needs at issue.
  switch (inst.op) {
    case Op::kVLd:
    case Op::kVSt:
    case Op::kVLdx:
    case Op::kVStx:
    case Op::kVBcast:
    case Op::kVStbv:
    case Op::kVGthC:
    case Op::kVScaR:
    case Op::kVGthR:
    case Op::kVScaC:
    case Op::kVScaX:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVLds:
    case Op::kVSts:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAdds:
    case Op::kVExtract:
    case Op::kVSeqS:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVLdb:
    case Op::kVStb:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.d);
      break;
    default:
      break;
  }

  // Vector sources and destinations by opcode.
  switch (inst.op) {
    case Op::kVLd:
    case Op::kVLds:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      break;
    case Op::kVSt:
    case Op::kVSts:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      break;
    case Op::kVLdx:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVStx:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAdd:
    case Op::kVSub:
    case Op::kVMul:
    case Op::kVAnd:
    case Op::kVOr:
    case Op::kVXor:
    case Op::kVMin:
    case Op::kVMax:
    case Op::kVFAdd:
    case Op::kVFMul:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAddi:
    case Op::kVAdds:
    case Op::kVSeqS:
    case Op::kVSlideUp:
    case Op::kVSlideDown:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVSeq:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVGthC:
    case Op::kVGthR:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVScaR:
    case Op::kVScaC:
    case Op::kVScaX:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVBcast:
    case Op::kVBcasti:
    case Op::kVIota:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      break;
    case Op::kVRedSum:
    case Op::kVFRedSum:
    case Op::kVExtract:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kIcm:
      break;
    case Op::kVLdb:
    case Op::kVLdcc:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.b);
      break;
    case Op::kVStcr:
    case Op::kVStb:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVStbv:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      break;
    default:
      break;
  }

  // Functional unit and which config field supplies the startup latency
  // (shared constexpr tables, program.hpp).
  d.unit = op_unit(inst.op);
  d.startup = op_startup(inst.op);
}

void decode_scalar(const Instruction& inst, DecodedInst& d) {
  d.is_vector = false;
  d.scalar_mem = op_scalar_mem(inst.op);
  switch (inst.op) {
    case Op::kLi:
      break;
    case Op::kMv:
    case Op::kAddi:
    case Op::kMuli:
    case Op::kAndi:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kJr:
    case Op::kSsvl:
    case Op::kSetvl:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      if (inst.op == Op::kJr || inst.op == Op::kSsvl) {
        d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      }
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kSll:
    case Op::kSrl:
    case Op::kMin:
    case Op::kMax:
    case Op::kFAdd:
    case Op::kFMul:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kLw:
    case Op::kLhu:
    case Op::kLbu:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kSw:
    case Op::kSh:
    case Op::kSb:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kJal:
    case Op::kHalt:
    case Op::kNop:
    case Op::kBarrier:
      break;
    case Op::kAmoAdd:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    default:
      SMTU_CHECK_MSG(false, "unhandled scalar op in decode");
  }
}

}  // namespace

DecodedInst decode_instruction(const Instruction& inst) {
  DecodedInst d;
  if (op_is_vector(inst.op)) {
    decode_vector(inst, d);
  } else {
    decode_scalar(inst, d);
  }
  // Bind the threaded-dispatch target once per static instruction; the
  // handlers index register-timing arrays with these numbers, so validate
  // them here rather than per dynamic execution.
  d.handler = opcode_handler(inst.op, HandlerMode::kUnobserved);
  d.observed_handler = opcode_handler(inst.op, HandlerMode::kObserved);
  d.functional_handler = opcode_handler(inst.op, HandlerMode::kFunctional);
  d.timing_handler = opcode_handler(inst.op, HandlerMode::kTiming);
  for (u32 i = 0; i < d.num_sregs; ++i) {
    SMTU_CHECK_MSG(d.sregs[i] < kNumScalarRegs, "scalar register out of range");
  }
  for (u32 i = 0; i < d.num_srcs; ++i) {
    SMTU_CHECK_MSG(d.srcs[i] < kNumVectorRegs, "vector register out of range");
  }
  for (u32 i = 0; i < d.num_dsts; ++i) {
    SMTU_CHECK_MSG(d.dsts[i] < kNumVectorRegs, "vector register out of range");
  }
  return d;
}

std::vector<DecodedInst> decode_instructions(const std::vector<Instruction>& instructions) {
  std::vector<DecodedInst> decoded;
  decoded.reserve(instructions.size());
  for (const Instruction& inst : instructions) decoded.push_back(decode_instruction(inst));
  return decoded;
}

std::vector<ScalarBlock> describe_blocks(const std::vector<Instruction>& instructions,
                                        const std::vector<DecodedInst>& decoded) {
  SMTU_CHECK(decoded.size() == instructions.size());
  // The block at pc is the instruction at pc followed by the block at pc + 1
  // unless pc ends one, so one backward sweep of register masks and flags
  // describes every start.
  struct Run {
    usize length = 0;
    u32 touched = 0;
    u32 written = 0;
    bool scalar_mem = false;
    bool sets_vl = false;
  };
  std::vector<ScalarBlock> blocks(instructions.size());
  Run next;  // the run starting at pc + 1
  for (usize pc = instructions.size(); pc-- > 0;) {
    const Instruction& inst = instructions[pc];
    const DecodedInst& dec = decoded[pc];
    if (dec.is_vector || inst.op == Op::kBarrier || inst.op == Op::kHalt) {
      next = {};
      continue;
    }
    Run run = op_block_terminator(inst.op) ? Run{} : next;
    ++run.length;
    for (u32 i = 0; i < dec.num_sregs; ++i) run.touched |= 1u << dec.sregs[i];
    if (op_result_latency(inst.op) != ResultLatency::kNone) {
      if (inst.a < kNumScalarRegs) {
        run.touched |= 1u << inst.a;
        run.written |= 1u << inst.a;
      } else {
        run.touched = ~0u;  // never memoized: stepping aborts where it always did
      }
    }
    run.scalar_mem |= dec.scalar_mem;
    run.sets_vl |= inst.op == Op::kSsvl || inst.op == Op::kSetvl;
    next = run;

    const u32 regs = run.touched & ~(1u << kRegZero);
    if (run.length < 2 || std::popcount(regs) > static_cast<int>(kMaxBlockRegs)) continue;
    ScalarBlock& block = blocks[pc];
    block.length = static_cast<u32>(run.length);
    block.scalar_mem = run.scalar_mem;
    block.sets_vl = run.sets_vl;
    for (u32 r = 0; r < kNumScalarRegs; ++r) {
      if ((regs >> r & 1u) == 0) continue;
      if (run.written >> r & 1u) block.written |= static_cast<u16>(1u << block.num_regs);
      block.regs[block.num_regs++] = static_cast<u8>(r);
    }
  }
  return blocks;
}

usize Program::label(const std::string& name) const {
  const auto it = labels.find(name);
  SMTU_CHECK_MSG(it != labels.end(), "unknown label: " + name);
  return it->second;
}

const ProfileRegion* Program::region_of(usize pc) const {
  // Regions are ordered and non-overlapping: binary search on begin.
  auto it = std::upper_bound(regions.begin(), regions.end(), pc,
                             [](usize value, const ProfileRegion& region) {
                               return value < region.begin;
                             });
  if (it == regions.begin()) return nullptr;
  --it;
  return pc < it->end ? &*it : nullptr;
}

const std::string& Program::source_line_text(u32 line) const {
  static const std::string kEmpty;
  if (line == 0 || line >= source_lines.size()) return kEmpty;
  return source_lines[line];
}

std::string Program::listing() const {
  std::map<usize, std::vector<std::string>> labels_at;
  for (const auto& [name, pc] : labels) labels_at[pc].push_back(name);

  std::ostringstream out;
  for (usize pc = 0; pc < instructions.size(); ++pc) {
    if (const auto it = labels_at.find(pc); it != labels_at.end()) {
      for (const std::string& name : it->second) out << name << ":\n";
    }
    out << "  " << pc << ": " << to_string(instructions[pc]) << '\n';
  }
  return out.str();
}

}  // namespace smtu::vsim
