// Host-throughput caching layers: the process-wide program cache, the
// matrix stage cache, and the copy-on-write memory snapshots underneath
// them, plus the content hash the golden tests pin their captures with. The
// load-bearing property throughout is bit-identical reuse: a cached program
// or stage must time and decode exactly like a freshly built one (the
// InterpreterCorpus golden tests hold staged runs to directly staged
// records).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "formats/coo.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "testing.hpp"
#include "vsim/memory.hpp"
#include "vsim/program_cache.hpp"

namespace smtu {
namespace {

Coo small_matrix() {
  Coo coo(96, 96);
  for (Index i = 0; i < 96; ++i) {
    coo.add(i, (i * 37 + 5) % 96, static_cast<float>(i) + 0.5f);
    coo.add((i * 13) % 96, i, 1.0f);
  }
  coo.canonicalize();
  return coo;
}

TEST(SimHash, StableAndSensitive) {
  testing::SimHash a;
  a.update(std::string_view("hello"));
  a.update_u64(42);
  testing::SimHash b;
  b.update(std::string_view("hello"));
  b.update_u64(42);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);

  testing::SimHash c;
  c.update(std::string_view("hello"));
  c.update_u64(43);
  EXPECT_NE(a.hex(), c.hex());
}

TEST(ProgramCache, SharesOnePredecodedProgram) {
  const std::string source = kernels::hism_transpose_source();
  const auto first = vsim::ProgramCache::instance().get(source);
  const auto second = vsim::ProgramCache::instance().get(source);
  EXPECT_EQ(first.get(), second.get());
  // Predecode happened at assembly, once.
  EXPECT_EQ(first->decoded.size(), first->instructions.size());
}

TEST(MatrixStageCache, SharesOneStagePerMatrix) {
  const Coo coo = small_matrix();
  auto& cache = kernels::MatrixStageCache::instance();
  const auto first = cache.hism(coo, 64);
  const auto second = cache.hism(coo, 64);
  EXPECT_EQ(first.get(), second.get());
  // A different section stages a different image.
  EXPECT_NE(first.get(), cache.hism(coo, 32).get());
  EXPECT_EQ(cache.crs(coo).get(), cache.crs(coo).get());
}

TEST(MatrixStageCache, KeyChangesWithAnyInputBit) {
  auto& cache = kernels::MatrixStageCache::instance();
  cache.clear();
  const Coo base = Coo(8, 12, {{0, 1, 1.0f}, {2, 3, 2.0f}, {5, 7, 3.0f}});
  const auto staged = cache.hism(base, 64);
  ASSERT_EQ(cache.stats().misses, 1u);

  // An equal matrix at another address is the same content: a hit.
  const Coo copy = base;
  ASSERT_NE(copy.entries().data(), base.entries().data());
  EXPECT_EQ(cache.hism(copy, 64).get(), staged.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  Coo flipped = base;
  flipped.entries()[1].value = std::bit_cast<float>(std::bit_cast<u32>(2.0f) ^ 1u);
  Coo moved = base;
  moved.entries()[1].col = 4;
  // Same entries, rows and columns swapped in the shape only.
  const Coo reshaped = Coo(12, 8, base.entries());
  u64 misses = 1;
  for (const Coo& variant : {flipped, moved, reshaped}) {
    EXPECT_NE(cache.hism(variant, 64).get(), staged.get());
    EXPECT_EQ(cache.stats().misses, ++misses);
  }
  EXPECT_NE(cache.hism(base, 32).get(), staged.get());  // another section
  EXPECT_EQ(cache.stats().misses, ++misses);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(MatrixStageCache, RacingLookupsOfOneColdKeyBuildOnce) {
  auto& cache = kernels::MatrixStageCache::instance();
  cache.clear();
  Rng rng(11);
  const Coo coo = testing::random_coo(3000, 3000, 60000, rng);
  constexpr usize kThreads = 8;
  for (const bool hism : {true, false}) {
    std::atomic<bool> go{false};
    std::vector<const void*> stages(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (usize t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load()) std::this_thread::yield();
        stages[t] = hism ? static_cast<const void*>(cache.hism(coo, 64).get())
                         : static_cast<const void*>(cache.crs(coo).get());
      });
    }
    go = true;
    for (std::thread& thread : threads) thread.join();
    for (const void* stage : stages) EXPECT_EQ(stage, stages.front());
  }
  // One build per layout; every other lookup waited for it or found it.
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2 * kThreads - 2);
}

TEST(MemoryCow, SnapshotReadsAndPrivatizeOnWrite) {
  auto base = std::make_shared<std::vector<u8>>(4096, u8{0});
  (*base)[100] = 0xAB;
  (*base)[101] = 0xCD;

  vsim::Memory memory;
  memory.attach_base(base);
  EXPECT_EQ(memory.size(), 4096u);
  EXPECT_EQ(memory.read_u8(100), 0xAB);
  EXPECT_EQ(memory.read_u16(100), 0xCDAB);  // little-endian
  EXPECT_EQ(memory.raw().data(), base->data());

  // First write copies; the shared snapshot stays untouched.
  memory.write_u8(100, 0xFF);
  EXPECT_EQ(memory.read_u8(100), 0xFF);
  EXPECT_EQ((*base)[100], 0xAB);
  EXPECT_NE(memory.raw().data(), base->data());
  EXPECT_EQ(memory.read_u8(101), 0xCD);  // copied content preserved
}

}  // namespace
}  // namespace smtu
