#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "vsim/memory.hpp"

namespace smtu::vsim {
namespace {

TEST(Memory, ReadBackWrites) {
  Memory mem;
  mem.write_u32(0x100, 0xdeadbeef);
  EXPECT_EQ(mem.read_u32(0x100), 0xdeadbeefu);
  mem.write_u16(0x200, 0x1234);
  EXPECT_EQ(mem.read_u16(0x200), 0x1234u);
  mem.write_u8(0x300, 0xab);
  EXPECT_EQ(mem.read_u8(0x300), 0xabu);
}

TEST(Memory, LittleEndianLayout) {
  Memory mem;
  mem.write_u32(0, 0x04030201);
  EXPECT_EQ(mem.read_u8(0), 0x01u);
  EXPECT_EQ(mem.read_u8(1), 0x02u);
  EXPECT_EQ(mem.read_u8(2), 0x03u);
  EXPECT_EQ(mem.read_u8(3), 0x04u);
  EXPECT_EQ(mem.read_u16(0), 0x0201u);
}

TEST(Memory, FloatRoundTrip) {
  Memory mem;
  mem.write_f32(16, 3.25f);
  EXPECT_FLOAT_EQ(mem.read_f32(16), 3.25f);
}

TEST(Memory, GrowsOnDemandZeroFilled) {
  Memory mem;
  mem.write_u8(10000, 1);
  EXPECT_GE(mem.size(), 10001u);
  EXPECT_EQ(mem.read_u32(9990), 0u);
}

TEST(Memory, WriteBlockAndRaw) {
  Memory mem;
  const std::vector<u8> data = {1, 2, 3, 4, 5};
  mem.write_block(64, data);
  EXPECT_EQ(mem.read_u8(64), 1u);
  EXPECT_EQ(mem.read_u8(68), 5u);
  EXPECT_EQ(mem.raw()[66], 3u);
}

TEST(MemoryDeathTest, ReadBeyondAllocationAborts) {
  Memory mem;
  mem.write_u8(8, 1);
  EXPECT_DEATH(mem.read_u32(1 << 20), "beyond allocated");
}

TEST(MemoryDeathTest, ExceedingLimitAborts) {
  Memory mem(1024);
  EXPECT_DEATH(mem.write_u8(2048, 1), "limit");
}

// ---- compact snapshots --------------------------------------------------------
//
// A snapshot stores [0, stored) and has a logical size past it; the memory
// must look exactly like a private one of the logical size.

// 100 stored bytes (i + 1 at address i), logical size 4096.
std::shared_ptr<const std::vector<u8>> compact_snapshot() {
  auto bytes = std::make_shared<std::vector<u8>>(100);
  for (usize i = 0; i < bytes->size(); ++i) (*bytes)[i] = static_cast<u8>(i + 1);
  return bytes;
}

TEST(MemoryCompactSnapshot, TailReadsReturnZero) {
  Memory mem;
  mem.attach_base(compact_snapshot(), 4096);
  EXPECT_EQ(mem.read_u8(99), 100u);
  EXPECT_EQ(mem.read_u8(100), 0u);
  EXPECT_EQ(mem.read_u16(4094), 0u);
  EXPECT_EQ(mem.read_u32(2048), 0u);
  EXPECT_EQ(mem.read_f32(4092), 0.0f);
  EXPECT_EQ(mem.read_u8(4095), 0u);
}

TEST(MemoryCompactSnapshot, EachAccessorReadsTheTailFirst) {
  // Every accessor must handle being the first to touch the tail.
  for (int accessor = 0; accessor < 4; ++accessor) {
    Memory mem;
    mem.attach_base(compact_snapshot(), 4096);
    switch (accessor) {
      case 0: EXPECT_EQ(mem.read_u8(3000), 0u); break;
      case 1: EXPECT_EQ(mem.read_u16(3000), 0u); break;
      case 2: EXPECT_EQ(mem.read_u32(3000), 0u); break;
      default: EXPECT_EQ(mem.read_f32(3000), 0.0f); break;
    }
    EXPECT_EQ(mem.read_u8(42), 43u);  // the stored prefix survives
  }
}

TEST(MemoryCompactSnapshot, SpanCrossingTheStoredEndReadsBytesThenZeros) {
  Memory mem;
  mem.attach_base(compact_snapshot(), 4096);
  const u8* span = mem.read_span(96, 8);
  const std::vector<u8> got(span, span + 8);
  EXPECT_EQ(got, (std::vector<u8>{97, 98, 99, 100, 0, 0, 0, 0}));
  // Straddling words too.
  EXPECT_EQ(mem.read_u32(98), 0x6463u);
}

TEST(MemoryCompactSnapshot, SizeAndRawReportTheLogicalLength) {
  const auto snapshot = compact_snapshot();
  Memory mem;
  mem.attach_base(snapshot, 4096);
  EXPECT_EQ(mem.size(), 4096u);
  const std::span<const u8> raw = mem.raw();
  ASSERT_EQ(raw.size(), 4096u);
  for (usize i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(raw[i], i < 100 ? static_cast<u8>(i + 1) : 0u) << i;
  }
  EXPECT_EQ(snapshot->size(), 100u);  // the shared snapshot is untouched
}

TEST(MemoryCompactSnapshot, StoredPrefixReadsDoNotPrivatize) {
  const auto snapshot = compact_snapshot();
  Memory mem;
  mem.attach_base(snapshot, 4096);
  EXPECT_EQ(mem.read_u32(0), 0x04030201u);
  EXPECT_EQ(mem.read_span(0, 100), snapshot->data());
}

TEST(MemoryCompactSnapshot, AttachedMemoriesNeverSeeEachOthersWrites) {
  const auto snapshot = compact_snapshot();
  Memory a;
  Memory b;
  a.attach_base(snapshot, 4096);
  b.attach_base(snapshot, 4096);
  a.write_u8(10, 0xEE);    // stored prefix
  a.write_u32(2000, 7);    // implicit tail
  EXPECT_EQ(b.read_u8(10), 11u);
  EXPECT_EQ(b.read_u32(2000), 0u);
  b.write_u32(2000, 9);
  EXPECT_EQ(a.read_u32(2000), 7u);
  EXPECT_EQ(a.read_u8(10), 0xEE);
  EXPECT_EQ((*snapshot)[10], 11u);
  EXPECT_EQ(snapshot->size(), 100u);
  EXPECT_EQ(a.size(), 4096u);
  EXPECT_EQ(b.size(), 4096u);
}

TEST(MemoryCompactSnapshotDeathTest, ReadAtTheLogicalSizeAborts) {
  Memory mem;
  mem.attach_base(compact_snapshot(), 4096);
  EXPECT_DEATH(mem.read_u8(4096), "beyond allocated");
  EXPECT_DEATH(mem.read_u32(4094), "beyond allocated");
  EXPECT_DEATH(mem.read_span(4000, 200), "beyond allocated");
}

TEST(MemoryCompactSnapshotDeathTest, LogicalSizeBelowStoredAborts) {
  Memory mem;
  EXPECT_DEATH(mem.attach_base(compact_snapshot(), 50), "stores more");
}

}  // namespace
}  // namespace smtu::vsim
