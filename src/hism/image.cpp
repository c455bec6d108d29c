#include "hism/image.hpp"

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu {
namespace {

void put_u32(std::vector<u8>& bytes, usize offset, u32 value) {
  bytes[offset + 0] = static_cast<u8>(value);
  bytes[offset + 1] = static_cast<u8>(value >> 8);
  bytes[offset + 2] = static_cast<u8>(value >> 16);
  bytes[offset + 3] = static_cast<u8>(value >> 24);
}

u32 get_u32(std::span<const u8> bytes, u64 offset) {
  SMTU_CHECK_MSG(offset + 4 <= bytes.size(), "HiSM image read out of bounds");
  return static_cast<u32>(bytes[offset]) | static_cast<u32>(bytes[offset + 1]) << 8 |
         static_cast<u32>(bytes[offset + 2]) << 16 | static_cast<u32>(bytes[offset + 3]) << 24;
}

}  // namespace

u64 block_array_image_bytes(usize entries, bool has_lengths) {
  const u64 n = entries;
  return round_up(2 * n, 4) + 4 * n + (has_lengths ? 4 * n : 0);
}

HismImage build_hism_image(const HismMatrix& hism, Addr base) {
  std::vector<u8> bytes;
  HismImage image = build_hism_image_into(hism, base, base, bytes);
  image.bytes = std::move(bytes);
  return image;
}

HismImage build_hism_image_into(const HismMatrix& hism, Addr base, Addr origin,
                                std::vector<u8>& out) {
  SMTU_CHECK_MSG(base % 4 == 0, "HiSM image base must be 4-byte aligned");
  SMTU_CHECK(origin <= base);
  SMTU_CHECK_MSG(hism.validate(), "cannot serialize an invalid HiSM matrix");

  HismImage image;
  image.base = base;
  image.levels = hism.num_levels();
  image.section = hism.section();
  image.rows = hism.rows();
  image.cols = hism.cols();

  // Pass 1: assign addresses, level 0 first (children precede parents so the
  // slot of a parent entry can be filled in one pass).
  std::vector<std::vector<Addr>> addr_of(image.levels);
  Addr cursor = base;
  for (u32 k = 0; k < image.levels; ++k) {
    addr_of[k].reserve(hism.level(k).size());
    for (const BlockArray& block : hism.level(k)) {
      addr_of[k].push_back(cursor);
      cursor += block_array_image_bytes(block.size(), /*has_lengths=*/k > 0);
    }
  }
  image.end = cursor;
  out.assign(cursor - origin, 0);
  image.root_addr = addr_of[image.levels - 1][hism.root_id()];
  image.root_len = static_cast<u32>(hism.root().size());

  // Pass 2: fill content.
  for (u32 k = 0; k < image.levels; ++k) {
    const auto& pool = hism.level(k);
    for (usize b = 0; b < pool.size(); ++b) {
      const BlockArray& block = pool[b];
      const usize at = addr_of[k][b] - origin;
      const usize n = block.size();
      const usize slots_at = at + round_up(2 * n, 4);
      for (usize i = 0; i < n; ++i) {
        out[at + 2 * i] = block.pos[i].row;
        out[at + 2 * i + 1] = block.pos[i].col;
        const u32 slot_value =
            k == 0 ? block.slot[i] : static_cast<u32>(addr_of[k - 1][block.slot[i]]);
        put_u32(out, slots_at + 4 * i, slot_value);
        if (k > 0) put_u32(out, slots_at + 4 * n + 4 * i, block.child_len[i]);
      }
    }
  }
  SMTU_CHECK_MSG(cursor <= 0xffffffffULL, "HiSM image exceeds 32-bit pointer range");
  return image;
}

HismMatrix decode_hism_image(std::span<const u8> memory, Addr memory_base, Addr root_addr,
                             u32 root_len, u32 levels, u32 section, Index rows, Index cols) {
  SMTU_CHECK(levels >= 1);
  SMTU_CHECK(section >= 2 && section <= HismMatrix::kMaxSection);

  std::vector<std::vector<BlockArray>> pools(levels);

  struct Decoder {
    std::vector<std::vector<BlockArray>>& pools;
    std::span<const u8> memory;
    Addr memory_base;

    u32 decode(Addr addr, u32 len, u32 level) {
      SMTU_CHECK_MSG(addr >= memory_base, "block address before image base");
      const u64 at = addr - memory_base;
      const u64 n = len;
      SMTU_CHECK_MSG(at + 2 * n <= memory.size(), "block positions out of bounds");
      const u64 slots_at = at + round_up(2 * n, 4);

      BlockArray block;
      block.pos.reserve(n);
      block.slot.reserve(n);
      if (level > 0) block.child_len.reserve(n);
      for (u64 i = 0; i < n; ++i) {
        block.pos.push_back({memory[at + 2 * i], memory[at + 2 * i + 1]});
        const u32 slot = get_u32(memory, slots_at + 4 * i);
        if (level == 0) {
          block.slot.push_back(slot);
        } else {
          const u32 child_len = get_u32(memory, slots_at + 4 * n + 4 * i);
          const u32 child_id = decode(slot, child_len, level - 1);
          block.slot.push_back(child_id);
          block.child_len.push_back(child_len);
        }
      }
      auto& pool = pools[level];
      pool.push_back(std::move(block));
      return static_cast<u32>(pool.size() - 1);
    }
  };

  Decoder decoder{pools, memory, memory_base};
  const u32 root_id = decoder.decode(root_addr, root_len, levels - 1);
  return HismMatrix::assemble(section, rows, cols, std::move(pools), root_id);
}

}  // namespace smtu
