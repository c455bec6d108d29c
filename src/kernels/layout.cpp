#include "kernels/layout.hpp"

#include <cstring>
#include <span>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu::kernels {
namespace {

Addr align16(Addr addr) { return round_up(addr, 16); }

// The six array addresses and dimensions of `csr` staged at `base`.
CrsImage layout_crs_image(const Csr& csr, Addr base) {
  SMTU_CHECK_MSG(csr.validate(), "refusing to stage an invalid CSR matrix");

  CrsImage image;
  image.rows = csr.rows();
  image.cols = csr.cols();
  image.nnz = csr.nnz();

  Addr cursor = align16(base);
  auto reserve = [&](u64 size) {
    const Addr at = cursor;
    cursor = align16(cursor + size);
    return at;
  };
  image.an = reserve(4 * image.nnz);
  image.ja = reserve(4 * image.nnz);
  image.ia = reserve(4 * (image.rows + 1));
  image.ant = reserve(4 * image.nnz);
  image.jat = reserve(4 * image.nnz);
  image.iat = reserve(4 * (image.cols + 1));
  image.end = cursor;
  return image;
}

// Copies the three input arrays whole into zeroed `out` (out[0] at address
// `origin`); their element encodings match the machine's little-endian
// u32/f32 stores. An empty matrix's value/index vectors may have a null
// data(), which memcpy must never see.
void write_crs_inputs(const Csr& csr, const CrsImage& image, Addr origin, std::span<u8> out) {
  if (image.nnz != 0) {
    std::memcpy(out.data() + (image.an - origin), csr.values().data(), 4 * image.nnz);
    std::memcpy(out.data() + (image.ja - origin), csr.col_idx().data(), 4 * image.nnz);
  }
  std::memcpy(out.data() + (image.ia - origin), csr.row_ptr().data(), 4 * (image.rows + 1));
}

}  // namespace

CrsImage build_crs_image(const Csr& csr, Addr base, std::vector<u8>& bytes) {
  const CrsImage image = layout_crs_image(csr, base);
  bytes.assign(image.end - base, 0);
  write_crs_inputs(csr, image, base, bytes);
  return image;
}

CrsImage build_crs_image_into(const Csr& csr, Addr base, Addr origin, std::vector<u8>& out) {
  SMTU_CHECK(origin <= base);
  const CrsImage image = layout_crs_image(csr, base);
  out.assign(image.ia + 4 * (image.rows + 1) - origin, 0);
  write_crs_inputs(csr, image, origin, out);
  return image;
}

CrsImage stage_crs(vsim::Machine& machine, const Csr& csr, Addr base) {
  std::vector<u8> bytes;
  const CrsImage image = build_crs_image(csr, base, bytes);
  machine.memory().write_block(base, bytes);
  return image;
}

Coo read_back_crs_transpose(const vsim::Memory& mem, const CrsImage& image) {
  Coo coo(image.cols, image.rows);
  coo.entries().reserve(image.nnz);

  u32 begin = mem.read_u32(image.iat);
  SMTU_CHECK_MSG(begin == 0, "IAT[0] must be zero after the transpose kernel");
  for (Index row = 0; row < image.cols; ++row) {
    const u32 end = mem.read_u32(image.iat + 4 * (row + 1));
    SMTU_CHECK_MSG(begin <= end && end <= image.nnz, "IAT is not monotone");
    for (u32 k = begin; k < end; ++k) {
      coo.entries().push_back({static_cast<u32>(row), mem.read_u32(image.jat + 4 * k),
                               mem.read_f32(image.ant + 4 * k)});
    }
    begin = end;
  }
  SMTU_CHECK_MSG(begin == image.nnz, "IAT does not cover every non-zero");
  return coo;
}

HismImage stage_hism(vsim::Machine& machine, const HismMatrix& hism, Addr base) {
  HismImage image = build_hism_image(hism, align16(base));
  machine.memory().write_block(image.base, image.bytes);
  return image;
}

HismMatrix read_back_hism(const vsim::Machine& machine, const HismImage& image,
                          bool swap_dims) {
  const vsim::Memory& mem = machine.memory();
  const std::span<const u8> raw = mem.raw();
  SMTU_CHECK(image.end <= raw.size());
  const std::span<const u8> window = raw.subspan(image.base, image.end - image.base);
  const Index rows = swap_dims ? image.cols : image.rows;
  const Index cols = swap_dims ? image.rows : image.cols;
  return decode_hism_image(window, image.base, image.root_addr, image.root_len,
                           image.levels, image.section, rows, cols);
}

}  // namespace smtu::kernels
