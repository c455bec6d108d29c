// Staging of matrix images in simulated memory for the transpose kernels.
#pragma once

#include "formats/csr.hpp"
#include "hism/image.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

// Where workload images are placed. The stack for the recursive HiSM kernel
// sits below the image region and grows downward.
inline constexpr Addr kImageBase = 0x10000;
inline constexpr Addr kStackTop = 0x10000;

// CRS image: the six arrays of the paper's Fig. 8/9, 16-byte aligned.
struct CrsImage {
  Addr an = 0;   // AN : float values, row-wise
  Addr ja = 0;   // JA : u32 column indices
  Addr ia = 0;   // IA : u32 row pointers (rows + 1)
  Addr ant = 0;  // ANT: output values
  Addr jat = 0;  // JAT: output column indices
  Addr iat = 0;  // IAT: output row pointers (cols + 1)
  Index rows = 0;
  Index cols = 0;
  usize nnz = 0;
  Addr end = 0;  // first free address past the image
};

// Serializes AN/JA/IA at their image addresses into `bytes`, which on
// return covers [base, image.end); the output arrays stay zeroed. stage_crs
// writes it into machine memory as one block.
CrsImage build_crs_image(const Csr& csr, Addr base, std::vector<u8>& bytes);

// The same input arrays serialized into `out`, which on return covers
// [origin, end of IA) with out[0] at address `origin` <= base: the all-zero
// output arrays past IA are left out. The stage cache (kernels/staging.hpp)
// builds its snapshot in place with origin 0.
CrsImage build_crs_image_into(const Csr& csr, Addr base, Addr origin, std::vector<u8>& out);

// Writes AN/JA/IA into machine memory and reserves zeroed output arrays.
CrsImage stage_crs(vsim::Machine& machine, const Csr& csr, Addr base = kImageBase);

// Reads the transposed matrix (ANT/JAT/IAT) back as COO.
Coo read_back_crs_transpose(const vsim::Memory& memory, const CrsImage& image);

// Writes a HiSM image into machine memory (image built at `base`).
HismImage stage_hism(vsim::Machine& machine, const HismMatrix& hism, Addr base = kImageBase);

// Decodes the (possibly transposed, in-place) HiSM image from machine
// memory. Pass swap_dims = true after running the transpose kernel.
HismMatrix read_back_hism(const vsim::Machine& machine, const HismImage& image,
                          bool swap_dims);

}  // namespace smtu::kernels
