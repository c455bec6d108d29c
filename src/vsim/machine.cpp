#include "vsim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <utility>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/profiler.hpp"

// Marks the element-wise inner loops that are safe to vectorize: every
// iteration touches only lane i of its operands, so there are no loop-carried
// dependences even when destination and source registers alias. Never put
// this on float reductions (reassociation changes the result bits) or on
// read-modify-write scatters (later lanes may hit earlier lanes' addresses).
#if defined(SMTU_SIMD_OMP)
#define SMTU_VEC_LOOP _Pragma("omp simd")
#elif defined(__clang__)
#define SMTU_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define SMTU_VEC_LOOP _Pragma("GCC ivdep")
#else
#define SMTU_VEC_LOOP
#endif

namespace smtu::vsim {
namespace {

StmConfig stm_config_for(const MachineConfig& config) {
  StmConfig stm = config.stm;
  stm.section = config.section;  // the s x s memory matches the section size
  stm.lines = std::min(stm.lines, stm.section);  // L cannot exceed s
  return stm;
}

void check_config(const MachineConfig& config) {
  SMTU_CHECK_MSG(config.section >= 2 && config.section <= 256,
                 "section size must be in [2, 256]");
  SMTU_CHECK(config.lanes >= 1);
  SMTU_CHECK(config.scalar_issue_width >= 1);
  SMTU_CHECK(config.mem_bytes_per_cycle >= 1);
}

template <Op>
inline constexpr bool always_false_op = false;

constexpr u32 ceil_rate(u64 amount, u64 per_cycle) {
  return static_cast<u32>(ceil_div(amount, per_cycle));
}

// Machine::enable_trace's stderr line, kept out of line: it formats a
// string, and only the observed handlers can reach it.
[[gnu::cold, gnu::noinline]] void print_trace_line(usize pc, const Instruction& inst) {
  std::fprintf(stderr, "[trace] pc=%zu %s\n", pc, to_string(inst).c_str());
}

// Shared front of every handler: budget check, instruction count, and (in
// the observed instantiation) the optional stderr trace. Returns the
// watermark before this instruction (the profiler's conservation bracket).
template <bool kObserved>
inline Cycle step_prologue(ExecState& es, const Instruction& inst) {
  SMTU_CHECK_MSG(es.stats.instructions < es.max_instructions,
                 "instruction budget exceeded (runaway program?)");
  ++es.stats.instructions;
  if constexpr (kObserved) {
    if (es.trace_remaining > 0) [[unlikely]] {
      --es.trace_remaining;
      print_trace_line(es.pc, inst);
    }
  }
  return es.watermark;
}

// Main-memory footprint of a vector memory instruction (primary base
// address + total bytes moved), for bank arbitration. The bank model
// arbitrates one request per vector memory instruction: the instruction's
// total traffic laid out from its primary base. Multi-stream instructions
// (v_ldb/v_stb move a position and a value stream) fold into one request so
// an instruction can never contend with itself. Must be evaluated before the
// functional body: v_ldb/v_stb auto-increment their base regs.
template <Op OP>
inline void vmem_footprint_for(const ExecState& es, const Instruction& inst, Addr* addr,
                               u64* bytes) {
  const u64 vl = es.vl;
  if constexpr (OP == Op::kVLdb || OP == Op::kVStb) {
    *addr = es.sreg(inst.c);
    *bytes = 6ull * vl;
  } else if constexpr (OP == Op::kVStbv) {
    *addr = es.sreg(inst.b);
    *bytes = 4ull * vl;
  } else if constexpr (OP == Op::kVScaR || OP == Op::kVScaC || OP == Op::kVScaX) {
    // Read-modify-write: both directions count.
    *addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    *bytes = 8ull * vl;
  } else {
    *addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    *bytes = 4ull * vl;
  }
}

// Functional execution of one vector instruction; returns its duration in
// cycles at full streaming rate (excluding startup). Contiguous accesses
// move through one bounds check + memcpy per stream instead of a checked
// call per element (the abort condition is the same: the span is exactly
// the union of the element accesses).
template <Op OP>
inline u32 exec_vector_body(ExecState& es, const Instruction& inst) {
  [[maybe_unused]] const u32 vl = es.vl;

  if constexpr (OP == Op::kVLd) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    if (vl != 0) std::memcpy(es.vreg_row(inst.a), mem.read_span(base, 4ull * vl), 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVSt) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    if (vl != 0) std::memcpy(mem.write_span(base, 4ull * vl), es.vreg_row(inst.a), 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVLdx) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) dst[i] = mem.read_u32(base + 4ull * idx[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVStx) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    const u32* src = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) mem.write_u32(base + 4ull * idx[i], src[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVLds) {
    // Strided accesses hit one bank per element, like indexed ones.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u64 stride = es.sreg(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) dst[i] = mem.read_u32(base + i * stride);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVSts) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u64 stride = es.sreg(inst.c);
    const u32* src = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) mem.write_u32(base + i * stride, src[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVAdd || OP == Op::kVSub || OP == Op::kVMul ||
                       OP == Op::kVAnd || OP == Op::kVOr || OP == Op::kVXor ||
                       OP == Op::kVMin || OP == Op::kVMax || OP == Op::kVSeq) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32* c = es.vreg_row(inst.c);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVAdd) a[i] = b[i] + c[i];
      else if constexpr (OP == Op::kVSub) a[i] = b[i] - c[i];
      else if constexpr (OP == Op::kVMul) a[i] = b[i] * c[i];
      else if constexpr (OP == Op::kVAnd) a[i] = b[i] & c[i];
      else if constexpr (OP == Op::kVOr) a[i] = b[i] | c[i];
      else if constexpr (OP == Op::kVXor) a[i] = b[i] ^ c[i];
      else if constexpr (OP == Op::kVMin) a[i] = std::min(b[i], c[i]);
      else if constexpr (OP == Op::kVMax) a[i] = std::max(b[i], c[i]);
      else a[i] = b[i] == c[i] ? 1 : 0;
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVFAdd || OP == Op::kVFMul) {
    // Lane-wise float: no reassociation, so vectorizing is bit-exact.
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32* c = es.vreg_row(inst.c);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVFAdd) {
        a[i] = std::bit_cast<u32>(std::bit_cast<float>(b[i]) + std::bit_cast<float>(c[i]));
      } else {
        a[i] = std::bit_cast<u32>(std::bit_cast<float>(b[i]) * std::bit_cast<float>(c[i]));
      }
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVAddi) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32 imm = static_cast<u32>(inst.imm);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = b[i] + imm;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVAdds || OP == Op::kVSeqS) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32 scalar = static_cast<u32>(es.sreg(inst.c));
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVAdds) a[i] = b[i] + scalar;
      else a[i] = b[i] == scalar ? 1 : 0;
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVBcast || OP == Op::kVBcasti) {
    u32* a = es.vreg_row(inst.a);
    const u32 value = OP == Op::kVBcast ? static_cast<u32>(es.sreg(inst.b))
                                        : static_cast<u32>(inst.imm);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = value;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVIota) {
    u32* a = es.vreg_row(inst.a);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = i;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVSlideUp || OP == Op::kVSlideDown) {
    const u32 shift = static_cast<u32>(inst.imm);
    es.slide_scratch.assign(vl, 0);
    const u32* src = es.vreg_row(inst.b);
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVSlideUp) {
        if (i >= shift) es.slide_scratch[i] = src[i - shift];
      } else {
        if (i + shift < vl) es.slide_scratch[i] = src[i + shift];
      }
    }
    std::copy(es.slide_scratch.begin(), es.slide_scratch.end(), es.vreg_row(inst.a));
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVRedSum) {
    const u32* b = es.vreg_row(inst.b);
    u64 total = 0;
    for (u32 i = 0; i < vl; ++i) total += b[i];
    es.set_sreg(inst.a, total);
    // Lane-parallel partial sums plus a log-depth combine.
    return ceil_rate(vl, es.lanes) + log2_ceil(es.lanes + 1);
  } else if constexpr (OP == Op::kVFRedSum) {
    // Sequential accumulation order is architectural: do not vectorize.
    const u32* b = es.vreg_row(inst.b);
    float total = 0.0f;
    for (u32 i = 0; i < vl; ++i) total += std::bit_cast<float>(b[i]);
    es.set_sreg(inst.a, std::bit_cast<u32>(total));
    return ceil_rate(vl, es.lanes) + log2_ceil(es.lanes + 1);
  } else if constexpr (OP == Op::kVExtract) {
    const u64 lane = es.sreg(inst.c);
    SMTU_CHECK_MSG(lane < es.section, "v_extract lane out of range");
    es.set_sreg(inst.a, es.vreg_row(inst.b)[lane]);
    return 1;
  } else if constexpr (OP == Op::kVGthC || OP == Op::kVGthR) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* pos = es.vreg_row(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 lane = OP == Op::kVGthC ? (pos[i] >> 8) & 0xff : pos[i] & 0xff;
      dst[i] = mem.read_u32(base + 4ull * lane);
    }
    // Positional access touches an s-element window only, which the HiSM
    // hardware banks like the s x s memory: full lane-parallel rate.
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVScaR || OP == Op::kVScaC) {
    // Read-modify-write scatter: lanes may collide on an address, so the
    // sequential order is architectural — do not vectorize.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* pos = es.vreg_row(inst.c);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 lane = OP == Op::kVScaR ? pos[i] & 0xff : (pos[i] >> 8) & 0xff;
      const Addr addr = base + 4ull * lane;
      mem.write_u32(addr, std::bit_cast<u32>(std::bit_cast<float>(mem.read_u32(addr)) +
                                             std::bit_cast<float>(val[i])));
    }
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.lanes);  // banked s-element window
  } else if constexpr (OP == Op::kVScaX) {
    // General-index sibling of v_scac: full 32-bit indices, so it streams
    // at the indexed rate (one address per element) like v_ldx/v_stx.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const Addr addr = base + 4ull * idx[i];
      mem.write_u32(addr, std::bit_cast<u32>(std::bit_cast<float>(mem.read_u32(addr)) +
                                             std::bit_cast<float>(val[i])));
    }
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kIcm) {
    es.stm->clear();
    return 1;
  } else if constexpr (OP == Op::kVLdb) {
    Memory& mem = *es.memory;
    const Addr pos_addr = es.sreg(inst.c);
    const Addr val_addr = es.sreg(inst.d);
    u32* val = es.vreg_row(inst.a);
    u32* pos = es.vreg_row(inst.b);
    if (vl != 0) {
      const u8* pos_src = mem.read_span(pos_addr, 2ull * vl);
      SMTU_VEC_LOOP
      for (u32 i = 0; i < vl; ++i) {
        pos[i] = static_cast<u32>(pos_src[2 * i]) | static_cast<u32>(pos_src[2 * i + 1]) << 8;
      }
      std::memcpy(val, mem.read_span(val_addr, 4ull * vl), 4ull * vl);
    }
    es.set_sreg(inst.c, pos_addr + 2ull * vl);
    es.set_sreg(inst.d, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 6ull * vl;
    return ceil_rate(6ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStb) {
    // The position and value streams must not overlap (kernel contract).
    // Finish the position bytes before taking the value span: write_span
    // may reallocate the backing store and invalidate earlier pointers.
    Memory& mem = *es.memory;
    const Addr pos_addr = es.sreg(inst.c);
    const Addr val_addr = es.sreg(inst.d);
    const u32* val = es.vreg_row(inst.a);
    const u32* pos = es.vreg_row(inst.b);
    if (vl != 0) {
      u8* pos_dst = mem.write_span(pos_addr, 2ull * vl);
      SMTU_VEC_LOOP
      for (u32 i = 0; i < vl; ++i) {
        pos_dst[2 * i] = static_cast<u8>(pos[i]);
        pos_dst[2 * i + 1] = static_cast<u8>(pos[i] >> 8);
      }
      std::memcpy(mem.write_span(val_addr, 4ull * vl), val, 4ull * vl);
    }
    es.set_sreg(inst.c, pos_addr + 2ull * vl);
    es.set_sreg(inst.d, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 6ull * vl;
    return ceil_rate(6ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStbv) {
    Memory& mem = *es.memory;
    const Addr val_addr = es.sreg(inst.b);
    if (vl != 0) std::memcpy(mem.write_span(val_addr, 4ull * vl), es.vreg_row(inst.a), 4ull * vl);
    es.set_sreg(inst.b, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStcr) {
    es.stm_batch_scratch.resize(vl);
    const u32* pos = es.vreg_row(inst.b);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 p = pos[i];
      es.stm_batch_scratch[i] = {static_cast<u8>(p & 0xff), static_cast<u8>((p >> 8) & 0xff),
                                 val[i]};
    }
    es.stats.stm_elements += vl;
    return es.stm->write_batch(es.stm_batch_scratch);
  } else if constexpr (OP == Op::kVLdcc) {
    const StmUnit::ReadBatch batch = es.stm->read_batch(vl);
    u32* val = es.vreg_row(inst.a);
    u32* pos = es.vreg_row(inst.b);
    for (u32 i = 0; i < vl; ++i) {
      val[i] = batch.entries[i].value_bits;
      pos[i] = static_cast<u32>(batch.entries[i].row) |
               static_cast<u32>(batch.entries[i].col) << 8;
    }
    es.stats.stm_elements += vl;
    return batch.cycles;
  } else {
    static_assert(always_false_op<OP>, "not a vector op");
  }
}

// Full execution of one vector instruction under the resource-time model:
// hazards, issue slots, unit occupancy, chaining, STM bank ordering, bank
// contention, then the functional body. The per-opcode instantiation lets
// the unit/startup/trace classification and the STM special cases resolve
// at compile time; kObserved = false compiles out the trace and profiler
// hooks (the stall reason and profile brackets are then dead code).
template <Op OP, bool kObserved>
void exec_vector(ExecState& es, const Instruction& inst, const DecodedInst& dec) {
  const Cycle profile_w_before = step_prologue<kObserved>(es, inst);
  ++es.stats.vector_instructions;
  es.stats.vector_elements += es.vl;

  // Scalar sources the instruction needs at issue (predecoded). Alongside
  // the ready time, track which constraint set it (the profiler's stall
  // reason); strictly-later constraints win, so ties keep the first-listed
  // reason.
  Cycle ready = es.pc_redirect;
  StallReason stall_why = StallReason::kScalarFetch;
  if (es.vl_ready > ready) {
    ready = es.vl_ready;
    stall_why = StallReason::kRawHazard;
  }
  for (u32 i = 0; i < dec.num_sregs; ++i) {
    const Cycle r = es.sreg_ready[dec.sregs[i]];
    if (r > ready) {
      ready = r;
      stall_why = StallReason::kRawHazard;
    }
  }
  // Start absent hazard/resource constraints: the fetch point plus
  // sequential issue — the profiler's baseline for constraint delay.
  const Cycle profile_unblocked = std::max(es.pc_redirect, es.last_issue + 1);
  const Cycle t_issue = es.take_issue_slot(std::max(ready, es.last_issue));
  es.last_issue = t_issue;
  if (t_issue > ready) stall_why = StallReason::kIssueLimit;

  constexpr ExecUnit kUnit = op_unit(OP);
  constexpr usize kUnitIdx = static_cast<usize>(kUnit);
  const u32 startup = es.startup_by_kind[static_cast<usize>(op_startup(OP))];

  // Which bank an STM instruction touches (known before execution: the
  // fill side for icm/v_stcr, the peeked drain bank for v_ldcc).
  [[maybe_unused]] u32 stm_op_bank = 0;
  Cycle resource_ready = es.unit_free[kUnitIdx];
  if constexpr (OP == Op::kVLdcc) {
    stm_op_bank = es.stm->peek_drain_bank();
    // A bank drains only after its fill completed; a separate drain
    // datapath exists only with the second buffer.
    resource_ready = es.stm_double
                         ? std::max(es.stm_drain_free, es.stm_fill_done[stm_op_bank])
                         : std::max(es.unit_free[kUnitIdx], es.stm_fill_done[stm_op_bank]);
  } else if constexpr (OP == Op::kIcm) {
    if (es.stm_double) {
      // Switching banks: the incoming bank's drain must have finished.
      stm_op_bank = es.stm->fill_bank() ^ 1;
      resource_ready = std::max(es.unit_free[kUnitIdx], es.stm_drain_done[stm_op_bank]);
    }
  } else if constexpr (kUnit == ExecUnit::kStm) {
    stm_op_bank = es.stm_double ? es.stm->fill_bank() : 0u;
  }

  // Start time: issue, unit availability, producers' first element (or
  // completion without chaining), and hazards on the destinations.
  Cycle t_start = t_issue;
  const auto bind = [&](Cycle term, StallReason reason) {
    if (term > t_start) {
      t_start = term;
      stall_why = reason;
    }
  };
  bind(resource_ready,
       kUnit == ExecUnit::kVMem
           ? (es.vmem_last_indexed ? StallReason::kMemIndexedSerial : StallReason::kMemPort)
           : (kUnit == ExecUnit::kStm ? StallReason::kStmBusy : StallReason::kValuBusy));
  Cycle src_last = 0;
  for (u32 i = 0; i < dec.num_srcs; ++i) {
    const u8 r = dec.srcs[i];
    bind(es.chaining ? es.vreg_first[r] : es.vreg_last[r],
         es.chaining ? StallReason::kChainingWait : StallReason::kRawHazard);
    src_last = std::max(src_last, es.vreg_last[r]);
  }
  for (u32 i = 0; i < dec.num_dsts; ++i) {
    const u8 r = dec.dsts[i];
    bind(std::max(es.vreg_readers_done[r], es.vreg_last[r]), StallReason::kVregBusy);
  }

  // Shared banked memory: the access may be pushed back behind another
  // core's occupancy of the banks it touches. A lone core never pushes
  // itself back (its per-bank occupancy is bounded by its own access
  // duration), which keeps the N=1 system bit-identical.
  if constexpr (kUnit == ExecUnit::kVMem) {
    if (es.memory_system != nullptr) {
      Addr mem_addr = 0;
      u64 mem_bytes = 0;
      vmem_footprint_for<OP>(es, inst, &mem_addr, &mem_bytes);
      const Cycle granted = es.memory_system->request(mem_addr, mem_bytes, t_start);
      if (granted > t_start) {
        t_start = granted;
        stall_why = StallReason::kMemBankContention;
      }
    }
  }

  const u32 duration = exec_vector_body<OP>(es, inst);

  const Cycle first_out = t_start + startup + 1;
  const Cycle last_out =
      std::max(t_start + startup + duration, src_last == 0 ? 0 : src_last + startup);
  // Pipelined units are occupied for their transfer slots only; the
  // startup is latency that later, independent instructions overlap.
  // The STM is the exception: the s x s memory is a single buffer, so
  // the unit stays busy until its results drain.
  const bool pipelined =
      (kUnit == ExecUnit::kVMem && es.mem_pipelined_startup) || kUnit == ExecUnit::kVAlu;
  const Cycle busy_until = pipelined ? std::max(t_start + duration, src_last) : last_out;
  if constexpr (OP == Op::kVLdcc) {
    if (es.stm_double) {
      es.stm_drain_free = std::max(es.stm_drain_free, busy_until);
    } else {
      es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    }
    es.stm_drain_done[stm_op_bank] = std::max(es.stm_drain_done[stm_op_bank], last_out);
  } else if constexpr (kUnit == ExecUnit::kStm) {
    es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    es.stm_fill_done[stm_op_bank] = std::max(es.stm_fill_done[stm_op_bank], last_out);
  } else {
    es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    if constexpr (kUnit == ExecUnit::kVMem) es.vmem_last_indexed = op_indexed_vmem(OP);
  }
  const u64 busy = busy_until - t_start;
  if constexpr (kUnit == ExecUnit::kVMem) {
    es.stats.vmem_busy_cycles += busy;
  } else if constexpr (kUnit == ExecUnit::kVAlu) {
    es.stats.valu_busy_cycles += busy;
  } else {
    es.stats.stm_busy_cycles += busy;
  }

  if constexpr (kObserved) {
    if (es.trace_sink != nullptr) [[unlikely]] {
      constexpr TraceUnit kTraceUnit = kUnit == ExecUnit::kVMem   ? TraceUnit::kVMem
                                       : kUnit == ExecUnit::kVAlu ? TraceUnit::kVAlu
                                                                  : TraceUnit::kStm;
      es.trace_sink->record(
          {es.pc, OP, es.vl, kTraceUnit, t_issue, t_start, first_out, last_out, es.core_id});
    }
  }
  for (u32 i = 0; i < dec.num_dsts; ++i) {
    const u8 r = dec.dsts[i];
    es.vreg_first[r] = first_out;
    es.vreg_last[r] = last_out;
    es.vreg_readers_done[r] = last_out;
  }
  for (u32 i = 0; i < dec.num_srcs; ++i) {
    const u8 r = dec.srcs[i];
    es.vreg_readers_done[r] = std::max(es.vreg_readers_done[r], last_out);
  }

  // Scalar side effects of vector instructions.
  if constexpr (OP == Op::kVLdb || OP == Op::kVStb) {
    es.retire_scalar(inst.c, t_issue + es.scalar_op_latency);
    es.retire_scalar(inst.d, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kVStbv) {
    es.retire_scalar(inst.b, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kVRedSum || OP == Op::kVFRedSum || OP == Op::kVExtract) {
    es.retire_scalar(inst.a, last_out + 1);
  }
  es.bump_watermark(last_out);
  if constexpr (kObserved) {
    if (es.profiler != nullptr) {
      constexpr BusyKind kBusy =
          kUnit == ExecUnit::kVMem
              ? (op_indexed_vmem(OP) ? BusyKind::kVMemIndexed : BusyKind::kVMemStream)
              : (kUnit == ExecUnit::kStm ? BusyKind::kStm : BusyKind::kVAlu);
      es.profiler->record({es.pc, OP, es.vl, kBusy, stall_why, t_start, profile_unblocked,
                           profile_w_before, es.watermark, busy});
    }
  }
  ++es.pc;
}

// One scalar instruction under the in-order issue model: hazards, issue
// slot, memory port, functional body, retirement, and (observed only)
// trace/profile. kUnobserved and kObserved run the whole instruction. The
// two halves split it for the block-timing memo (Machine::run_to_halt):
// kFunctional does the registers, memory, next pc and branch outcome and
// nothing else (es.pc holds the fall-through pc throughout); kTiming does the rest — everything that touches the
// scoreboard — with the outcome the functional half recorded, and leaves
// es.pc alone. One template keeps the timing rules in one place.
template <Op OP, HandlerMode kMode>
void exec_scalar(ExecState& es, const Instruction& inst, const DecodedInst& dec) {
  constexpr bool kObserved = kMode == HandlerMode::kObserved;
  constexpr bool kWhole = kMode == HandlerMode::kUnobserved || kObserved;
  constexpr bool kTimed = kMode != HandlerMode::kFunctional;
  constexpr bool kExecuted = kMode != HandlerMode::kTiming;
  constexpr ResultLatency kLatency = op_result_latency(OP);
  constexpr bool kBranch =
      OP == Op::kBeq || OP == Op::kBne || OP == Op::kBlt || OP == Op::kBge;

  [[maybe_unused]] Cycle profile_w_before = 0;
  if constexpr (kWhole) {
    profile_w_before = step_prologue<kObserved>(es, inst);
    ++es.stats.scalar_instructions;
  }
  [[maybe_unused]] Cycle t_issue = 0;
  [[maybe_unused]] Cycle profile_unblocked = 0;
  [[maybe_unused]] StallReason stall_why = StallReason::kScalarFetch;
  if constexpr (kTimed) {
    Cycle ready = es.pc_redirect;
    for (u32 i = 0; i < dec.num_sregs; ++i) {
      const Cycle r = es.sreg_ready[dec.sregs[i]];
      if (r > ready) {
        ready = r;
        stall_why = StallReason::kRawHazard;
      }
    }
    profile_unblocked = std::max(es.pc_redirect, es.last_issue + 1);
    t_issue = es.take_issue_slot(std::max(ready, es.last_issue));
    if (t_issue > ready) stall_why = StallReason::kIssueLimit;
    if constexpr (op_scalar_mem(OP)) {
      const Cycle slot = es.take_scalar_mem_slot(t_issue);
      if (slot > t_issue) {
        t_issue = slot;
        stall_why = StallReason::kMemPort;
      }
    }
    es.last_issue = t_issue;
    es.bump_watermark(t_issue);
  }

  // The functional half runs with es.pc already at the block's fall-through
  // pc (one past its terminator), so only a control transfer writes it.
  [[maybe_unused]] const usize fall_through =
      kMode == HandlerMode::kFunctional ? es.pc : es.pc + 1;
  [[maybe_unused]] usize next_pc = fall_through;
  [[maybe_unused]] bool taken = false;
  if constexpr (kExecuted) {
    if constexpr (OP == Op::kLi) {
      es.set_sreg(inst.a, static_cast<u64>(inst.imm));
    } else if constexpr (OP == Op::kMv) {
      es.set_sreg(inst.a, es.sreg(inst.b));
    } else if constexpr (OP == Op::kAdd) {
      es.set_sreg(inst.a, es.sreg(inst.b) + es.sreg(inst.c));
    } else if constexpr (OP == Op::kSub) {
      es.set_sreg(inst.a, es.sreg(inst.b) - es.sreg(inst.c));
    } else if constexpr (OP == Op::kMul) {
      es.set_sreg(inst.a, es.sreg(inst.b) * es.sreg(inst.c));
    } else if constexpr (OP == Op::kAnd) {
      es.set_sreg(inst.a, es.sreg(inst.b) & es.sreg(inst.c));
    } else if constexpr (OP == Op::kOr) {
      es.set_sreg(inst.a, es.sreg(inst.b) | es.sreg(inst.c));
    } else if constexpr (OP == Op::kXor) {
      es.set_sreg(inst.a, es.sreg(inst.b) ^ es.sreg(inst.c));
    } else if constexpr (OP == Op::kSll) {
      es.set_sreg(inst.a, es.sreg(inst.b) << (es.sreg(inst.c) & 63));
    } else if constexpr (OP == Op::kSrl) {
      es.set_sreg(inst.a, es.sreg(inst.b) >> (es.sreg(inst.c) & 63));
    } else if constexpr (OP == Op::kMin) {
      es.set_sreg(inst.a, std::min(es.sreg(inst.b), es.sreg(inst.c)));
    } else if constexpr (OP == Op::kMax) {
      es.set_sreg(inst.a, std::max(es.sreg(inst.b), es.sreg(inst.c)));
    } else if constexpr (OP == Op::kFAdd) {
      es.set_sreg(inst.a,
                  std::bit_cast<u32>(std::bit_cast<float>(static_cast<u32>(es.sreg(inst.b))) +
                                     std::bit_cast<float>(static_cast<u32>(es.sreg(inst.c)))));
    } else if constexpr (OP == Op::kFMul) {
      es.set_sreg(inst.a,
                  std::bit_cast<u32>(std::bit_cast<float>(static_cast<u32>(es.sreg(inst.b))) *
                                     std::bit_cast<float>(static_cast<u32>(es.sreg(inst.c)))));
    } else if constexpr (OP == Op::kAddi) {
      es.set_sreg(inst.a, es.sreg(inst.b) + static_cast<u64>(inst.imm));
    } else if constexpr (OP == Op::kMuli) {
      es.set_sreg(inst.a, es.sreg(inst.b) * static_cast<u64>(inst.imm));
    } else if constexpr (OP == Op::kAndi) {
      es.set_sreg(inst.a, es.sreg(inst.b) & static_cast<u64>(inst.imm));
    } else if constexpr (OP == Op::kSlli) {
      es.set_sreg(inst.a, es.sreg(inst.b) << (inst.imm & 63));
    } else if constexpr (OP == Op::kSrli) {
      es.set_sreg(inst.a, es.sreg(inst.b) >> (inst.imm & 63));
    } else if constexpr (OP == Op::kLw) {
      es.set_sreg(inst.a, es.memory->read_u32(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    } else if constexpr (OP == Op::kLhu) {
      es.set_sreg(inst.a, es.memory->read_u16(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    } else if constexpr (OP == Op::kLbu) {
      es.set_sreg(inst.a, es.memory->read_u8(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    } else if constexpr (OP == Op::kSw) {
      es.memory->write_u32(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                           static_cast<u32>(es.sreg(inst.a)));
    } else if constexpr (OP == Op::kSh) {
      es.memory->write_u16(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                           static_cast<u16>(es.sreg(inst.a)));
    } else if constexpr (OP == Op::kSb) {
      es.memory->write_u8(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                          static_cast<u8>(es.sreg(inst.a)));
    } else if constexpr (OP == Op::kAmoAdd) {
      // Atomic fetch-and-add: atomicity comes for free because the system
      // interleaves whole instructions; the memory round trip costs a
      // scalar load latency.
      const Addr addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
      const u32 old = es.memory->read_u32(addr);
      es.memory->write_u32(addr, old + static_cast<u32>(es.sreg(inst.c)));
      es.set_sreg(inst.a, old);
    } else if constexpr (kBranch) {
      const i64 lhs = static_cast<i64>(es.sreg(inst.a));
      const i64 rhs = static_cast<i64>(es.sreg(inst.b));
      if constexpr (OP == Op::kBeq) taken = lhs == rhs;
      else if constexpr (OP == Op::kBne) taken = lhs != rhs;
      else if constexpr (OP == Op::kBlt) taken = lhs < rhs;
      else taken = lhs >= rhs;
      if (taken) next_pc = static_cast<usize>(inst.imm);
    } else if constexpr (OP == Op::kJal) {
      es.set_sreg(inst.a, static_cast<u64>(fall_through));
      next_pc = static_cast<usize>(inst.imm);
    } else if constexpr (OP == Op::kJr) {
      next_pc = static_cast<usize>(es.sreg(inst.a));
    } else if constexpr (OP == Op::kSsvl) {
      const u64 remaining = es.sreg(inst.a);
      es.vl = static_cast<u32>(std::min<u64>(es.section, remaining));
      es.set_sreg(inst.a, remaining - es.vl);
    } else if constexpr (OP == Op::kSetvl) {
      es.vl = static_cast<u32>(std::min<u64>(es.section, es.sreg(inst.b)));
      es.set_sreg(inst.a, es.vl);
    } else if constexpr (OP == Op::kBarrier || OP == Op::kHalt || OP == Op::kNop) {
      // barrier/halt act below, on the whole-instruction path only.
    } else {
      static_assert(always_false_op<OP>, "unhandled scalar op in execute");
    }
  }
  if constexpr (kMode == HandlerMode::kFunctional && op_block_terminator(OP)) {
    es.block_taken = kBranch ? taken : true;
  }

  if constexpr (kTimed) {
    if constexpr (kLatency != ResultLatency::kNone) {
      const u32 latency = kLatency == ResultLatency::kMul    ? es.mul_latency
                          : kLatency == ResultLatency::kLoad ? es.scalar_load_latency
                                                             : es.scalar_op_latency;
      es.retire_scalar(inst.a, t_issue + latency);
    }
    if constexpr (kBranch) {
      if (kMode == HandlerMode::kTiming ? es.block_taken : taken) {
        es.pc_redirect = t_issue + 1 + es.branch_penalty;
      }
    } else if constexpr (OP == Op::kJal || OP == Op::kJr) {
      es.pc_redirect = t_issue + 1 + es.branch_penalty;
    } else if constexpr (OP == Op::kSsvl || OP == Op::kSetvl) {
      es.vl_ready = std::max(es.vl_ready, t_issue + es.scalar_op_latency);
    }
  }

  if constexpr (kWhole) {
    if constexpr (OP == Op::kBarrier) {
      // Rendezvous: this core is done when everything it issued completes
      // (the watermark). The trace/profiler sample is deferred to
      // release_barrier(), where the wait's true extent is known.
      es.status = StepStatus::kAtBarrier;
      es.barrier_arrival = es.watermark;
      es.barrier_issue = t_issue;
      es.barrier_unblocked = profile_unblocked;
      es.barrier_w_before = profile_w_before;
      es.barrier_pc = es.pc;
      es.barrier_why = stall_why;
      es.pc = next_pc;
      return;
    } else if constexpr (OP == Op::kHalt) {
      es.status = StepStatus::kHalted;
    }
  }
  if constexpr (kObserved) {
    if (es.trace_sink != nullptr) [[unlikely]] {
      const Cycle done = inst.a != kRegZero ? es.sreg_ready[inst.a] : t_issue;
      es.trace_sink->record({es.pc, OP, 0, TraceUnit::kScalar, t_issue, t_issue,
                             std::max(t_issue, done), std::max(t_issue, done), es.core_id});
    }
    if (es.profiler != nullptr) {
      es.profiler->record({es.pc, OP, 0, BusyKind::kScalar, stall_why, t_issue,
                           profile_unblocked, profile_w_before, es.watermark, 1});
    }
  }
  if constexpr (kWhole || op_block_terminator(OP)) {
    if constexpr (kExecuted) es.pc = next_pc;
  }
}

// The handler one table holds for one opcode. Vector ops have no halves:
// they never sit in a ScalarBlock, and neither do barrier and halt.
template <Op OP, HandlerMode kMode>
constexpr OpHandler handler_for() {
  constexpr bool kWhole = kMode == HandlerMode::kUnobserved || kMode == HandlerMode::kObserved;
  if constexpr (op_is_vector(OP)) {
    if constexpr (kWhole) {
      return &exec_vector<OP, kMode == HandlerMode::kObserved>;
    } else {
      return nullptr;
    }
  } else if constexpr (!kWhole && (OP == Op::kBarrier || OP == Op::kHalt)) {
    return nullptr;
  } else {
    return &exec_scalar<OP, kMode>;
  }
}

// All four handler tables come from the two templates: a handler edit is
// made once, in the template, and lands in every table.
template <HandlerMode kMode, usize... Is>
constexpr std::array<OpHandler, kOpCount> make_handler_table(std::index_sequence<Is...>) {
  return {handler_for<static_cast<Op>(Is), kMode>()...};
}

template <HandlerMode kMode>
constexpr std::array<OpHandler, kOpCount> kHandlerTable =
    make_handler_table<kMode>(std::make_index_sequence<kOpCount>{});

}  // namespace

OpHandler opcode_handler(Op op, HandlerMode mode) {
  const usize index = static_cast<usize>(op);
  SMTU_CHECK_MSG(index < kOpCount, "opcode out of range");
  switch (mode) {
    case HandlerMode::kUnobserved:
      return kHandlerTable<HandlerMode::kUnobserved>[index];
    case HandlerMode::kObserved:
      return kHandlerTable<HandlerMode::kObserved>[index];
    case HandlerMode::kFunctional:
      return kHandlerTable<HandlerMode::kFunctional>[index];
    case HandlerMode::kTiming:
      return kHandlerTable<HandlerMode::kTiming>[index];
  }
  SMTU_CHECK_MSG(false, "handler mode out of range");
  return nullptr;
}

Machine::Machine(const MachineConfig& config) : config_(config) {
  check_config(config_);
  owned_memory_ = std::make_unique<Memory>(config_.memory_limit);
  owned_stm_ = std::make_unique<StmUnit>(stm_config_for(config_));
  es_.memory = owned_memory_.get();
  es_.stm = owned_stm_.get();
  init_exec_state();
}

Machine::Machine(const MachineConfig& config, const CoreContext& context) : config_(config) {
  check_config(config_);
  SMTU_CHECK_MSG(context.memory != nullptr, "CoreContext requires a memory");
  es_.memory = context.memory;
  es_.memory_system = context.memory_system;
  owned_stm_ = std::make_unique<StmUnit>(stm_config_for(config_));
  es_.stm = owned_stm_.get();
  es_.profiler = context.profiler;
  es_.trace_sink = context.trace;
  es_.core_id = context.core_id;
  init_exec_state();
}

void Machine::init_exec_state() {
  es_.section = config_.section;
  es_.vreg_data.assign(static_cast<usize>(kNumVectorRegs) * config_.section, 0);
  es_.lanes = config_.lanes;
  es_.scalar_issue_width = config_.scalar_issue_width;
  es_.scalar_mem_ports = config_.scalar_mem_ports;
  es_.mem_bytes_per_cycle = config_.mem_bytes_per_cycle;
  es_.mem_indexed_elems_per_cycle = config_.mem_indexed_elems_per_cycle;
  es_.scalar_op_latency = config_.scalar_op_latency;
  es_.scalar_load_latency = config_.scalar_load_latency;
  es_.mul_latency = config_.mul_latency;
  es_.branch_penalty = config_.branch_penalty;
  es_.chaining = config_.chaining;
  es_.mem_pipelined_startup = config_.mem_pipelined_startup;
  es_.stm_double = config_.stm.double_buffer;
  es_.max_instructions = config_.max_instructions;
}

std::span<const u32> Machine::vreg(u32 index) const {
  SMTU_CHECK(index < kNumVectorRegs);
  return {es_.vreg_row(index), es_.section};
}

void Machine::begin_run(const Program& program, usize entry_pc) {
  SMTU_CHECK_MSG(entry_pc < program.size(), "entry pc out of range");

  // Programs from assemble() arrive predecoded; hand-built ones (tests,
  // generators) get a local decode so the hot loop has a single path.
  es_.insts = program.instructions.data();
  es_.decoded = program.decoded.data();
  es_.blocks = program.blocks.data();
  es_.program_size = program.size();
  if (program.decoded.size() != program.instructions.size()) {
    local_decode_ = decode_instructions(program.instructions);
    es_.decoded = local_decode_.data();
  }
  if (program.blocks.size() != program.instructions.size()) {
    local_blocks_ = describe_blocks(
        program.instructions,
        es_.decoded == local_decode_.data() ? local_decode_ : program.decoded);
    es_.blocks = local_blocks_.data();
  }
  // Startup latencies by StartupKind, resolved from the config once per run
  // (indexed by the predecoded kind instead of re-deriving per dynamic
  // instruction).
  es_.startup_by_kind = {config_.mem_startup, config_.valu_startup,
                         config_.stm.fill_pipeline_cycles,
                         config_.stm.drain_pipeline_cycles, 0};

  // Reset timing and statistics; architectural state persists.
  es_.sreg_ready.fill(0);
  es_.vreg_first.fill(0);
  es_.vreg_last.fill(0);
  es_.vreg_readers_done.fill(0);
  es_.unit_free.fill(0);
  es_.vl_ready = 0;
  es_.last_issue = 0;
  es_.pc_redirect = 0;
  es_.watermark = 0;
  es_.issue_cycle = 0;
  es_.issue_used = 0;
  es_.scalar_mem_cycle = 0;
  es_.scalar_mem_used = 0;
  es_.stm_fill_done[0] = 0;
  es_.stm_fill_done[1] = 0;
  es_.stm_drain_done[0] = 0;
  es_.stm_drain_done[1] = 0;
  es_.stm_drain_free = 0;
  es_.vmem_last_indexed = false;
  es_.stats = {};
  es_.memo_hits = 0;
  es_.memo_misses = 0;
  es_.memo_fast_forwards = 0;
  stm_before_ = es_.stm->stats();
  es_.pc = entry_pc;
  es_.status = StepStatus::kRunning;
  // The handler table for this run: observed when anything would record or
  // print, so the common unobserved run carries no hook branches.
  observed_ = es_.profiler != nullptr || es_.trace_sink != nullptr || es_.trace_remaining > 0;
  if (es_.profiler != nullptr) es_.profiler->begin_run(program);
}

StepStatus Machine::step() {
  SMTU_CHECK_MSG(es_.status == StepStatus::kRunning,
                 "step() on a core that is halted or waiting at a barrier");
  SMTU_CHECK_MSG(es_.pc < es_.program_size,
                 "pc ran off the end of the program (missing halt?)");
  const DecodedInst& dec = es_.decoded[es_.pc];
  (observed_ ? dec.observed_handler : dec.handler)(es_, es_.insts[es_.pc], dec);
  return es_.status;
}

void Machine::release_barrier(Cycle release) {
  SMTU_CHECK_MSG(es_.status == StepStatus::kAtBarrier,
                 "release_barrier() on a core not waiting at a barrier");
  SMTU_CHECK(release >= es_.barrier_arrival);
  // The front end resumes at the release; everything after the barrier is
  // ordered behind it.
  es_.pc_redirect = std::max(es_.pc_redirect, release);
  es_.bump_watermark(release);
  if (es_.trace_sink != nullptr) {
    es_.trace_sink->record({es_.barrier_pc, Op::kBarrier, 0, TraceUnit::kScalar,
                            es_.barrier_issue, es_.barrier_issue, release, release,
                            es_.core_id});
  }
  if (es_.profiler != nullptr) {
    // Cycles spent past the core's own arrival are the barrier's fault;
    // anything before that keeps the reason the issue path found.
    const StallReason why =
        release > es_.barrier_arrival ? StallReason::kBarrierWait : es_.barrier_why;
    es_.profiler->record({es_.barrier_pc, Op::kBarrier, 0, BusyKind::kScalar, why, release,
                          es_.barrier_unblocked, es_.barrier_w_before, es_.watermark, 1});
  }
  es_.status = StepStatus::kRunning;
}

RunStats Machine::finish_run() {
  SMTU_CHECK_MSG(es_.status == StepStatus::kHalted, "finish_run() before halt");
  es_.stats.cycles = es_.watermark;
  const StmUnit::Stats& stm_stats = es_.stm->stats();
  es_.stats.stm_blocks = stm_stats.blocks - stm_before_.blocks;
  es_.stats.stm_write_cycles = stm_stats.write_cycles - stm_before_.write_cycles;
  es_.stats.stm_read_cycles = stm_stats.read_cycles - stm_before_.read_cycles;
  if (es_.profiler != nullptr) es_.profiler->end_run(es_.stats.cycles);
  if (telemetry::enabled()) {
    static telemetry::Counter& hits = telemetry::counter("vsim.block_memo.hits_total");
    static telemetry::Counter& misses = telemetry::counter("vsim.block_memo.misses_total");
    static telemetry::Counter& fast_forwards =
        telemetry::counter("vsim.block_memo.fast_forward_total");
    hits.add(es_.memo_hits);
    misses.add(es_.memo_misses);
    fast_forwards.add(es_.memo_fast_forwards);
  }
  return es_.stats;
}

// ---- block-timing memo (HACKING.md "Block-timing memo") --------------------

namespace {

// Entries one block may record; later states of a block past this many
// run its timing pass unrecorded.
constexpr u8 kMaxEntriesPerBlock = 16;

// Packs the scoreboard state `block` depends on, relative to its base cycle
// `base` = max(pc_redirect, last_issue): one byte per register for
// max(0, ready - base), then the issue slot's fill when the slot sits at
// base, the scalar memory port's likewise (blocks with memory ops) and the
// vl ready offset (blocks that set vl). Every issue inside the block is at
// or after base, so a time at or before base never binds it, and retirement
// is max(old, t >= base): the clamped state times the block exactly as the
// full one does. Fails (returns false) when a field does not fit a byte.
bool block_key(const ExecState& es, const ScalarBlock& block, Cycle base, u64 (&key)[2]) {
  u8 bytes[16] = {};
  Cycle fields = 0;  // OR of every field: > 255 iff one of them is
  for (u32 i = 0; i < block.num_regs; ++i) {
    const Cycle ready = es.sreg_ready[block.regs[i]];
    const Cycle offset = ready > base ? ready - base : 0;
    fields |= offset;
    bytes[i] = static_cast<u8>(offset);
  }
  if (es.issue_cycle == base) {
    fields |= es.issue_used;
    bytes[kMaxBlockRegs] = static_cast<u8>(es.issue_used);
  }
  if (block.scalar_mem && es.scalar_mem_cycle == base) {
    fields |= es.scalar_mem_used;
    bytes[kMaxBlockRegs + 1] = static_cast<u8>(es.scalar_mem_used);
  }
  if (block.sets_vl) {
    const Cycle offset = es.vl_ready > base ? es.vl_ready - base : 0;
    fields |= offset;
    bytes[kMaxBlockRegs + 2] = static_cast<u8>(offset);
  }
  std::memcpy(key, bytes, sizeof(bytes));
  return fields <= 0xff;
}
static_assert(kMaxBlockRegs + 3 == 16, "the key is 16 bytes: registers, issue, port, vl");

// The block's timing pass, on the live timing state.
void time_block(ExecState& es, const ScalarBlock& block, usize start) {
  for (u32 i = 0; i < block.length; ++i) {
    const DecodedInst& dec = es.decoded[start + i];
    dec.timing_handler(es, es.insts[start + i], dec);
  }
}

// Applies a recorded timing at base cycle `base`.
void apply_timing(ExecState& es, const ScalarBlock& block, const BlockTiming& timing,
                  Cycle base) {
  es.last_issue = base + timing.last_issue;
  es.issue_cycle = base + timing.issue_cycle;
  es.issue_used = timing.issue_used;
  if (block.scalar_mem) {
    es.scalar_mem_cycle = base + timing.scalar_mem_cycle;
    es.scalar_mem_used = timing.scalar_mem_used;
  }
  if (timing.taken) es.pc_redirect = base + timing.pc_redirect;
  if (block.sets_vl) es.vl_ready = std::max(es.vl_ready, base + timing.vl_ready);
  for (u32 i = 0; i < block.num_regs; ++i) {
    if ((block.written >> i & 1u) == 0) continue;
    Cycle& ready = es.sreg_ready[block.regs[i]];
    ready = std::max(ready, base + timing.sreg_ready[i]);
  }
  es.bump_watermark(base + timing.watermark);
}

}  // namespace

u32 Machine::time_block_from_memo(const ScalarBlock& block, usize start) {
  ExecState& es = es_;
  const bool taken = es.block_taken;
  const Cycle base = std::max(es.pc_redirect, es.last_issue);
  u64 key[2];
  if (!block_key(es, block, base, key)) {
    ++es.memo_misses;
    time_block(es, block, start);
    return BlockTiming::kNoEntry;
  }
  for (u32 index = memo_head_[start]; index != BlockTiming::kNoEntry;
       index = memo_[index].next) {
    const BlockTiming& timing = memo_[index];
    if (timing.key[0] == key[0] && timing.key[1] == key[1] && timing.taken == taken) {
      ++es.memo_hits;
      apply_timing(es, block, timing, base);
      return timing.fixed_point && es.pc == start ? index : BlockTiming::kNoEntry;
    }
  }

  // Miss: time the block on the live state from a watermark of `base`, so
  // the watermark it reaches is the block's own, then record the result.
  ++es.memo_misses;
  const Cycle watermark = es.watermark;
  es.watermark = base;
  time_block(es, block, start);
  BlockTiming timing;
  timing.key[0] = key[0];
  timing.key[1] = key[1];
  timing.taken = taken;
  timing.issue_used = es.issue_used;
  timing.last_issue = es.last_issue - base;
  timing.issue_cycle = es.issue_cycle - base;
  if (block.scalar_mem) {
    timing.scalar_mem_used = es.scalar_mem_used;
    timing.scalar_mem_cycle = es.scalar_mem_cycle - base;
  }
  if (taken) timing.pc_redirect = es.pc_redirect - base;
  timing.vl_ready = es.vl_ready > base ? es.vl_ready - base : 0;
  timing.watermark = es.watermark - base;
  for (u32 i = 0; i < block.num_regs; ++i) {
    const Cycle ready = es.sreg_ready[block.regs[i]];
    timing.sreg_ready[i] = ready > base ? ready - base : 0;
  }
  es.watermark = std::max(watermark, es.watermark);
  if (memo_count_[start] == kMaxEntriesPerBlock) return BlockTiming::kNoEntry;

  // A taken iteration whose exit state carries its own key is a fixed
  // point: every later iteration with the same outcome applies it again.
  if (taken) {
    u64 exit_key[2];
    timing.fixed_point =
        block_key(es, block, std::max(es.pc_redirect, es.last_issue), exit_key) &&
        exit_key[0] == key[0] && exit_key[1] == key[1];
  }
  timing.next = memo_head_[start];
  const u32 index = static_cast<u32>(memo_.size());
  memo_.push_back(timing);
  memo_head_[start] = index;
  ++memo_count_[start];
  return timing.fixed_point && es.pc == start ? index : BlockTiming::kNoEntry;
}

template <bool kObserved>
void Machine::run_to_halt() {
  // The hot loop: indirect call through the pre-bound handler, no
  // per-instruction status branching beyond the exit check. The unobserved
  // loop runs a memoizable scalar block whole when the budget covers all of
  // it, so a runaway program still aborts at the same instruction: first
  // the block's functional halves (registers, memory, next pc, outcome),
  // then its timing — applied straight from `fast_forward` when the
  // previous iteration of this self-loop left the state keyed exactly as
  // that entry is, else looked up (or recorded) by time_block_from_memo.
  ExecState& es = es_;
  [[maybe_unused]] u32 fast_forward = BlockTiming::kNoEntry;
  while (true) {
    SMTU_CHECK_MSG(es.pc < es.program_size,
                   "pc ran off the end of the program (missing halt?)");
    if constexpr (!kObserved) {
      const usize start = es.pc;
      const ScalarBlock& block = es.blocks[start];
      if (block.length != 0 && es.max_instructions - es.stats.instructions >= block.length) {
        es.block_taken = false;
        es.pc = start + block.length;
        for (u32 i = 0; i < block.length; ++i) {
          const DecodedInst& dec = es.decoded[start + i];
          dec.functional_handler(es, es.insts[start + i], dec);
        }
        es.stats.instructions += block.length;
        es.stats.scalar_instructions += block.length;
        if (fast_forward != BlockTiming::kNoEntry && es.block_taken) {
          apply_timing(es, block, memo_[fast_forward], std::max(es.pc_redirect, es.last_issue));
          ++es.memo_fast_forwards;
          if (es.pc != start) fast_forward = BlockTiming::kNoEntry;
        } else {
          fast_forward = time_block_from_memo(block, start);
        }
        continue;
      }
      fast_forward = BlockTiming::kNoEntry;
    }
    const DecodedInst& dec = es.decoded[es.pc];
    (kObserved ? dec.observed_handler : dec.handler)(es, es.insts[es.pc], dec);
    if (es.status != StepStatus::kRunning) [[unlikely]] {
      if (es.status == StepStatus::kHalted) break;
      // A lone core's barrier releases the moment it arrives.
      release_barrier(es.barrier_arrival);
    }
  }
}

RunStats Machine::run(const Program& program, usize entry_pc) {
  begin_run(program, entry_pc);
  if (observed_) {
    run_to_halt<true>();
  } else {
    // A fresh memo per run: entries are keyed by pc, so they belong to
    // this program only.
    memo_head_.assign(es_.program_size, BlockTiming::kNoEntry);
    memo_count_.assign(es_.program_size, 0);
    memo_.clear();
    run_to_halt<false>();
  }
  return finish_run();
}

std::string run_stats_summary(const RunStats& stats) {
  const double cycles = static_cast<double>(std::max<Cycle>(1, stats.cycles));
  std::string out;
  out += format("cycles:        %llu\n", static_cast<unsigned long long>(stats.cycles));
  out += format("instructions:  %llu (%llu scalar, %llu vector; %.2f instr/cycle)\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.scalar_instructions),
                static_cast<unsigned long long>(stats.vector_instructions),
                static_cast<double>(stats.instructions) / cycles);
  out += format("vector elems:  %llu (avg vl %.1f)\n",
                static_cast<unsigned long long>(stats.vector_elements),
                stats.vector_instructions == 0
                    ? 0.0
                    : static_cast<double>(stats.vector_elements) /
                          static_cast<double>(stats.vector_instructions));
  out += format("memory:        %llu streamed bytes, %llu indexed elements\n",
                static_cast<unsigned long long>(stats.mem_contiguous_bytes),
                static_cast<unsigned long long>(stats.mem_indexed_elements));
  out += format("unit busy:     vmem %.1f%%, valu %.1f%%, stm %.1f%%\n",
                100.0 * static_cast<double>(stats.vmem_busy_cycles) / cycles,
                100.0 * static_cast<double>(stats.valu_busy_cycles) / cycles,
                100.0 * static_cast<double>(stats.stm_busy_cycles) / cycles);
  if (stats.stm_blocks > 0) {
    out += format("stm:           %llu block passes, %llu fill + %llu drain cycles, "
                  "%llu elements\n",
                  static_cast<unsigned long long>(stats.stm_blocks),
                  static_cast<unsigned long long>(stats.stm_write_cycles),
                  static_cast<unsigned long long>(stats.stm_read_cycles),
                  static_cast<unsigned long long>(stats.stm_elements));
  }
  return out;
}

}  // namespace smtu::vsim
