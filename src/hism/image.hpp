// Serialization of a HiSM matrix into the byte-addressable memory of the
// simulated machine, and decoding back.
//
// Block-array layout at a 4-byte-aligned address A for n entries at level k:
//
//   A            .. A + 2n          : position pairs, entry i at A + 2i as
//                                     (row byte, col byte)
//   P = align4(A + 2n)
//   P            .. P + 4n          : 32-bit little-endian slots — value bits
//                                     at level 0, absolute child block-array
//                                     address at level >= 1
//   P + 4n       .. P + 8n          : (level >= 1 only) 32-bit child lengths,
//                                     the paper's "lengths vector"
//
// The matrix is referenced by (root address, root length), exactly as §II
// describes. The transpose kernel rewrites positions, slots, and lengths in
// place; no allocation is needed for the transposed matrix.
#pragma once

#include <span>
#include <vector>

#include "hism/hism.hpp"
#include "support/types.hpp"

namespace smtu {

struct HismImage {
  std::vector<u8> bytes;  // image content; bytes[0] lives at address `base`
  Addr base = 0;
  Addr end = 0;  // first address past the image
  Addr root_addr = 0;
  u32 root_len = 0;
  u32 levels = 0;
  u32 section = 0;
  Index rows = 0;
  Index cols = 0;
};

// Bytes occupied by one block-array (including alignment padding).
u64 block_array_image_bytes(usize entries, bool has_lengths);

// Serializes `hism` with the image starting at `base` (must be 4-aligned).
HismImage build_hism_image(const HismMatrix& hism, Addr base);

// The same image serialized into `out` instead of the descriptor's `bytes`
// (left empty): `out` is resized to cover [origin, image end), zero-filled,
// with out[0] at address `origin` <= base. The stage cache uses origin 0 to
// build a memory snapshot in place.
HismImage build_hism_image_into(const HismMatrix& hism, Addr base, Addr origin,
                                std::vector<u8>& out);

// Decodes an image from a memory snapshot. `memory` is the machine memory
// starting at address `memory_base`; the root and shape parameters come from
// the original HismImage (transposition changes none of them, only rows/cols
// swap — pass them swapped when decoding a transposed image).
HismMatrix decode_hism_image(std::span<const u8> memory, Addr memory_base, Addr root_addr,
                             u32 root_len, u32 levels, u32 section, Index rows, Index cols);

}  // namespace smtu
