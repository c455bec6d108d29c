#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "hism/image.hpp"
#include "hism/transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/staging.hpp"
#include "suite/dsab.hpp"
#include "testing.hpp"
#include "vsim/memory.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

HismMatrix decode_back(const HismImage& image) {
  return decode_hism_image(image.bytes, image.base, image.root_addr, image.root_len,
                           image.levels, image.section, image.rows, image.cols);
}

TEST(HismImage, BlockArrayImageBytes) {
  // n entries: align4(2n) + 4n, plus 4n for the lengths vector.
  EXPECT_EQ(block_array_image_bytes(0, false), 0u);
  EXPECT_EQ(block_array_image_bytes(1, false), 8u);    // 4 + 4
  EXPECT_EQ(block_array_image_bytes(2, false), 12u);   // 4 + 8
  EXPECT_EQ(block_array_image_bytes(3, false), 20u);   // 8 + 12
  EXPECT_EQ(block_array_image_bytes(3, true), 32u);    // + 12 lengths
}

TEST(HismImage, RoundTripSingleLevel) {
  Rng rng(1);
  const Coo coo = random_coo(8, 8, 20, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  const HismImage image = build_hism_image(hism, 0x1000);
  EXPECT_EQ(image.root_addr, 0x1000u);
  EXPECT_TRUE(coo_equal(decode_back(image).to_coo(), coo));
}

TEST(HismImage, RoundTripMultiLevel) {
  Rng rng(2);
  const Coo coo = random_coo(300, 200, 900, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  ASSERT_GE(hism.num_levels(), 3u);
  const HismImage image = build_hism_image(hism, 0x4000);
  EXPECT_TRUE(coo_equal(decode_back(image).to_coo(), coo));
}

TEST(HismImage, RootIsLastRegion) {
  Rng rng(3);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(100, 100, 200, rng), 16);
  const HismImage image = build_hism_image(hism, 0);
  // Level pools are laid out bottom-up, so the root (top level) is last.
  const u64 root_size = block_array_image_bytes(image.root_len, image.levels > 1);
  EXPECT_EQ(image.root_addr + root_size, image.bytes.size());
}

TEST(HismImage, ImageSizeMatchesStats) {
  Rng rng(4);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(64, 64, 150, rng), 8);
  const HismImage image = build_hism_image(hism, 0);
  u64 expected = 0;
  for (u32 k = 0; k < hism.num_levels(); ++k) {
    for (const BlockArray& block : hism.level(k)) {
      expected += block_array_image_bytes(block.size(), k > 0);
    }
  }
  EXPECT_EQ(image.bytes.size(), expected);
}

TEST(HismImage, LengthsVectorIsSerialized) {
  Rng rng(5);
  const Coo coo = random_coo(60, 60, 100, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  ASSERT_EQ(hism.num_levels(), 2u);
  const HismMatrix decoded = decode_back(build_hism_image(hism, 0x100));
  const BlockArray& root = decoded.root();
  for (usize i = 0; i < root.size(); ++i) {
    EXPECT_EQ(root.child_len[i], decoded.level(0)[root.slot[i]].size());
  }
}

TEST(HismImage, TransposedImageDecodesTransposed) {
  // Serialize, transpose in the object domain, re-serialize at the same
  // base: the decode of the second image must be the transpose.
  Rng rng(6);
  const Coo coo = random_coo(90, 40, 300, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  const HismMatrix t = transposed(hism);
  const HismImage image_t = build_hism_image(t, 0x2000);
  EXPECT_TRUE(coo_equal(decode_back(image_t).to_coo(), coo.transposed()));
}

TEST(HismImage, EmptyMatrix) {
  const HismMatrix hism = HismMatrix::from_coo(Coo(30, 30), 8);
  const HismImage image = build_hism_image(hism, 0x40);
  EXPECT_EQ(image.root_len, 0u);
  EXPECT_TRUE(coo_equal(decode_back(image).to_coo(), Coo(30, 30)));
}

// ---- golden staged bytes -----------------------------------------------------
//
// The SimHash of every HiSM and CRS image built from these inputs was
// captured from the comparison-sort HiSM builder. Any builder change must
// reproduce the images byte for byte, not merely build a matrix that
// validates: the simulated cycle counts are a function of these bytes.

struct GoldenCase {
  std::string name;
  Coo matrix;
  u32 section = 64;
  HighLevelOrder order = HighLevelOrder::kRowMajor;
  const char* hism_hash;
  const char* crs_hash;
};

// `bytes` is the image content [base, end): image.bytes, or the same window
// of a memory a stage is attached to.
std::string hism_image_hash(const HismImage& image, std::span<const u8> bytes) {
  testing::SimHash hash;
  hash.update(bytes);
  for (const u64 field : {image.base, image.root_addr, static_cast<u64>(image.root_len),
                          static_cast<u64>(image.levels), static_cast<u64>(image.section),
                          image.rows, image.cols}) {
    hash.update_u64(field);
  }
  return hash.hex();
}

std::string hism_image_hash(const HismImage& image) { return hism_image_hash(image, image.bytes); }

std::string crs_image_hash(const kernels::CrsImage& image, std::span<const u8> bytes) {
  testing::SimHash hash;
  hash.update(bytes);
  for (const u64 field : {image.an, image.ja, image.ia, image.ant, image.jat, image.iat,
                          image.rows, image.cols, static_cast<u64>(image.nnz), image.end}) {
    hash.update_u64(field);
  }
  return hash.hex();
}

// Entries added as given: unsorted, duplicated or zero where the case says so.
Coo raw_coo(Index rows, Index cols,
            std::initializer_list<std::tuple<Index, Index, float>> entries) {
  Coo coo(rows, cols);
  for (const auto& [r, c, v] : entries) coo.add(r, c, v);
  return coo;
}

std::vector<GoldenCase> golden_cases() {
  suite::SuiteOptions options;
  options.scale = 0.05;
  const auto locality = suite::build_dsab_set(suite::kSetLocality, options);
  const auto anz = suite::build_dsab_set(suite::kSetAnz, options);
  const auto size = suite::build_dsab_set(suite::kSetSize, options);

  std::vector<GoldenCase> cases;
  cases.push_back({"locality[0]", locality[0].matrix, 64, HighLevelOrder::kRowMajor,
                   "9ba0dd54b97e649fe4dbef1c084c3aee", "b6e7674f6dc98cdc6b3a2e23cc75ed9d"});
  cases.push_back({"locality[9]", locality[9].matrix, 64, HighLevelOrder::kRowMajor,
                   "6428b2fda1a6b9eeeeb88f23c17eef13", "31730aeb74301502b00a935aa387b2d3"});
  cases.push_back({"anz[6]", anz[6].matrix, 64, HighLevelOrder::kRowMajor,
                   "625bd45eb476a8012821c8b57d4cf26c", "5199736392229f0340e009e4308c1162"});
  // 4469 rows: three levels at s = 64.
  cases.push_back({"size[9]", size[9].matrix, 64, HighLevelOrder::kRowMajor,
                   "3480f05e7d88595920c0116bb7e1dbdc", "cca83c58e2f0f805d913f5849fd31ad8"});
  cases.push_back({"size[9] col-major s=16", size[9].matrix, 16, HighLevelOrder::kColMajor,
                   "fc4fdd3958d2d930f409dc500b56faf9", "cca83c58e2f0f805d913f5849fd31ad8"});

  cases.push_back({"empty", Coo(100, 70), 64, HighLevelOrder::kRowMajor,
                   "06ce3df9fe501c70af3359ca3d4b2bc5", "d5093132ed49c3d2a8c20ad301eacdbf"});
  Coo row_vector(1, 5000);
  Coo col_vector(5000, 1);
  for (Index i = 0; i < 5000; i += 7) {
    row_vector.add(0, i, static_cast<float>(i) + 0.5f);
    col_vector.add(i, 0, static_cast<float>(i) + 0.5f);
  }
  cases.push_back({"1xn", row_vector, 64, HighLevelOrder::kRowMajor,
                   "adbbe59bf42f120d2b6c7d8e8d664938", "46479fc64050f1346d44be1981f1f215"});
  cases.push_back({"nx1", col_vector, 64, HighLevelOrder::kRowMajor,
                   "167c3625f4ede1439884468ed8de570e", "8c02d18a6249f6896c47bb61f9f47b40"});
  Coo dense_block(200, 200);
  for (Index r = 0; r < 64; ++r) {
    for (Index c = 0; c < 64; ++c) {
      dense_block.add(64 + r, 128 + c, static_cast<float>(r * 64 + c + 1));
    }
  }
  cases.push_back({"dense 64x64 block", dense_block, 64, HighLevelOrder::kRowMajor,
                   "1cb9b17ba1b460af7d864955f24ba70a", "e6319225ee28cc785e1766b10492955d"});
  Rng rng(77);
  cases.push_back({"hypersparse 200000^2", testing::random_coo(200000, 200000, 60, rng), 64,
                   HighLevelOrder::kRowMajor,
                   "78a1c4bbdf45752609d9c02c61b0863b", "30b9d6a8fbb6d56acc8e17672b9ae0c7"});

  // Out of order, with duplicates: (3,4) cancels to zero and drops, (10,2)
  // sums to 2.5.
  cases.push_back({"duplicates summing to zero",
                   raw_coo(20, 20, {{10, 2, 2.0f}, {3, 4, 1.5f}, {19, 0, 1.0f}, {3, 4, -1.5f},
                                    {10, 2, 0.5f}, {0, 19, 3.0f}, {1, 1, 1.0f}}),
                   8, HighLevelOrder::kRowMajor,
                   "41591ac09969f9e3b22299c431ef6102", "7cdc01973e6061927d200b392c198d63"});
  cases.push_back({"explicit zeros",
                   raw_coo(20, 20, {{5, 5, 0.0f}, {2, 3, 4.0f}, {17, 9, -0.0f}, {9, 17, 2.0f},
                                    {0, 0, 0.0f}, {12, 12, 1.0f}}),
                   8, HighLevelOrder::kRowMajor,
                   "af1260c1f188e6b046200b08799e5839", "c0a17edd526ce6c17c08752222bcf518"});
  return cases;
}

TEST(HismImageGolden, StagedBytesMatchCapturedHashes) {
  for (const GoldenCase& golden : golden_cases()) {
    SCOPED_TRACE(golden.name);
    const HismMatrix hism = HismMatrix::from_coo(golden.matrix, golden.section, golden.order);
    ASSERT_TRUE(hism.validate());
    EXPECT_EQ(hism_image_hash(build_hism_image(hism, kernels::kImageBase)), golden.hism_hash);
    std::vector<u8> bytes;
    const kernels::CrsImage crs =
        kernels::build_crs_image(Csr::from_coo(golden.matrix), kernels::kImageBase, bytes);
    EXPECT_EQ(crs_image_hash(crs, bytes), golden.crs_hash);
  }
}

// The stage cache builds its snapshots in place and stores only their
// non-zero prefix; a machine attached to one must still see the golden
// image bytes at [base, end).
TEST(HismImageGolden, StageSnapshotsMatchCapturedHashes) {
  for (const GoldenCase& golden : golden_cases()) {
    SCOPED_TRACE(golden.name);
    const kernels::HismStage hism = kernels::build_hism_stage(
        HismMatrix::from_coo(golden.matrix, golden.section, golden.order));
    vsim::Memory hism_memory;
    hism_memory.attach_base(hism.snapshot, hism.snapshot_size);
    EXPECT_EQ(hism_image_hash(hism.image, hism_memory.raw().subspan(
                                              hism.image.base, hism.image.end - hism.image.base)),
              golden.hism_hash);

    const kernels::CrsStage crs = kernels::build_crs_stage(Csr::from_coo(golden.matrix));
    vsim::Memory crs_memory;
    crs_memory.attach_base(crs.snapshot, crs.snapshot_size);
    EXPECT_EQ(crs_image_hash(crs.image, crs_memory.raw().subspan(
                                            kernels::kImageBase, crs.image.end - kernels::kImageBase)),
              golden.crs_hash);
  }
}

// The stored prefix ends at the last non-zero byte, so the snapshot's bytes
// and its implicit tail never overlap, and it is the stage's only copy of
// the image.
void expect_compact(const std::vector<u8>& snapshot, u64 snapshot_size, Addr image_end) {
  ASSERT_FALSE(snapshot.empty());
  EXPECT_NE(snapshot.back(), 0u);
  EXPECT_LE(snapshot.size(), image_end);
  EXPECT_GE(snapshot_size, image_end);
  EXPECT_LT(snapshot.capacity() - snapshot.size(), 4u);  // trimmed in place, at most a word
}

TEST(HismImageGolden, SuiteStagesStoreTheirNonZeroBytesOnce) {
  suite::SuiteOptions options;
  options.scale = 0.05;
  for (const suite::SuiteMatrix& entry : suite::build_dsab_suite(options)) {
    SCOPED_TRACE(entry.name);
    const kernels::HismStage hism =
        kernels::build_hism_stage(HismMatrix::from_coo(entry.matrix, 64));
    EXPECT_TRUE(hism.image.bytes.empty());
    expect_compact(*hism.snapshot, hism.snapshot_size, hism.image.end);
    const kernels::CrsStage crs = kernels::build_crs_stage(Csr::from_coo(entry.matrix));
    expect_compact(*crs.snapshot, crs.snapshot_size, crs.image.end);
    EXPECT_LE(crs.snapshot->size(), crs.image.ant);  // the zero outputs are not stored
  }
}

TEST(HismImageDeathTest, UnalignedBaseAborts) {
  const HismMatrix hism = HismMatrix::from_coo(Coo(8, 8), 8);
  EXPECT_DEATH(build_hism_image(hism, 0x1002), "aligned");
}

}  // namespace
}  // namespace smtu
