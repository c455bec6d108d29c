// Host telemetry primitives (src/support/telemetry.*): log-bucket geometry,
// percentile extraction against a sorted-vector oracle, cross-thread shard
// merging, counter saturation, and the cache hit/miss counters fed by the
// process-wide caches. Everything here measures the host runtime, never the
// simulated machine (docs/TELEMETRY.md).
#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "formats/coo.hpp"
#include "kernels/staging.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"
#include "vsim/memory.hpp"
#include "vsim/profiler.hpp"
#include "vsim/program_cache.hpp"

namespace smtu::telemetry {
namespace {

// Deterministic 64-bit generator (splitmix64); tests must not consult the
// wall clock or a seeded-by-time RNG.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next() {
    state_ += 0x9e3779b97f4a7c15ull;
    u64 z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  u64 state_;
};

// Restores the global telemetry switch and zeroes the registry around each
// test that flips it, so test order never leaks state.
class TelemetryGuard {
 public:
  TelemetryGuard() { MetricsRegistry::instance().reset_for_tests(); }
  ~TelemetryGuard() {
    set_enabled(false);
    set_host_trace_enabled(false);
    MetricsRegistry::instance().reset_for_tests();
  }
};

TEST(Buckets, SmallValuesGetExactBuckets) {
  // 0..3 are their own buckets with exact bounds.
  for (u64 v = 0; v < 4; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper_bound(v), v);
  }
}

TEST(Buckets, IndexIsMonotonicAndBoundContainsValue) {
  // Dense sweep over the small range plus exponential probes up to 2^63:
  // bucket_index never decreases and every value is <= its bucket's bound.
  usize previous = 0;
  for (u64 v = 0; v < 4096; ++v) {
    const usize index = LatencyHistogram::bucket_index(v);
    EXPECT_GE(index, previous) << "index not monotonic at " << v;
    EXPECT_LE(v, LatencyHistogram::bucket_upper_bound(index)) << "value " << v;
    EXPECT_LT(index, LatencyHistogram::kBucketCount);
    previous = index;
  }
  for (int shift = 12; shift < 64; ++shift) {
    for (u64 offset : {u64{0}, u64{1}, (u64{1} << shift) - 1}) {
      const u64 v = (u64{1} << shift) + offset;
      if (v < (u64{1} << shift)) continue;  // overflow guard at shift 63
      const usize index = LatencyHistogram::bucket_index(v);
      EXPECT_LT(index, LatencyHistogram::kBucketCount);
      EXPECT_LE(v, LatencyHistogram::bucket_upper_bound(index));
      if (index > 0) {
        EXPECT_GT(v, LatencyHistogram::bucket_upper_bound(index - 1))
            << "value " << v << " below its bucket's lower edge";
      }
    }
  }
}

TEST(Buckets, BucketBoundariesAreExactAtPowersOfTwo) {
  // Each octave [2^k, 2^(k+1)) splits into 4 sub-buckets; the first value of
  // an octave starts a fresh bucket.
  for (int shift = 2; shift < 63; ++shift) {
    const u64 base = u64{1} << shift;
    EXPECT_EQ(LatencyHistogram::bucket_index(base),
              LatencyHistogram::bucket_index(base + (base >> 2) - 1))
        << "first quarter of octave 2^" << shift << " split";
    EXPECT_NE(LatencyHistogram::bucket_index(base - 1),
              LatencyHistogram::bucket_index(base))
        << "octave boundary 2^" << shift << " not a bucket boundary";
  }
}

TEST(Buckets, RelativeWidthAtMost25Percent) {
  // For every bucket above the exact range, (upper - lower + 1) / lower
  // <= 25%: the percentile error bound documented in TELEMETRY.md.
  for (usize index = 4; index < LatencyHistogram::kBucketCount; ++index) {
    const u64 lower = LatencyHistogram::bucket_upper_bound(index - 1) + 1;
    const u64 upper = LatencyHistogram::bucket_upper_bound(index);
    if (upper == std::numeric_limits<u64>::max()) continue;  // last bucket
    EXPECT_LE(upper - lower + 1, lower / 2)  // width = lower/4 exactly
        << "bucket " << index << " wider than 25% of its lower edge";
  }
}

TEST(Buckets, LastBucketCoversU64Max) {
  const u64 top = std::numeric_limits<u64>::max();
  const usize index = LatencyHistogram::bucket_index(top);
  EXPECT_EQ(index, LatencyHistogram::kBucketCount - 1);
  EXPECT_EQ(LatencyHistogram::bucket_upper_bound(index), top);
}

TEST(Histogram, EmptySnapshotIsAllZero) {
  LatencyHistogram hist;
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.percentile(50), 0u);
  EXPECT_EQ(snap.percentile(99), 0u);
}

TEST(Histogram, SingleSampleIsExactEverywhere) {
  LatencyHistogram hist;
  hist.record(1234);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.sum, 1234u);
  EXPECT_EQ(snap.min, 1234u);
  EXPECT_EQ(snap.max, 1234u);
  // Any percentile of one sample is that sample; the max clamp makes it
  // exact even though the bucket bound is coarser.
  EXPECT_EQ(snap.percentile(50), 1234u);
  EXPECT_EQ(snap.percentile(99), 1234u);
}

// The documented percentile contract, phrased against a sorted oracle: the
// reported value is the oracle sample's bucket upper bound, clamped to the
// exact maximum.
u64 oracle_percentile(const std::vector<u64>& sorted, double q) {
  const u64 count = sorted.size();
  u64 rank = static_cast<u64>(std::ceil(q / 100.0 * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  const u64 sample = sorted[rank - 1];
  const u64 bound = LatencyHistogram::bucket_upper_bound(
      LatencyHistogram::bucket_index(sample));
  return std::min(bound, sorted.back());
}

TEST(Histogram, PercentilesMatchSortedVectorOracle) {
  Rng rng(7);
  LatencyHistogram hist;
  std::vector<u64> oracle;
  for (int i = 0; i < 5000; ++i) {
    // Mix magnitudes: exact-range values, microsecond-scale, and huge.
    const u64 pick = rng.next();
    u64 value;
    switch (pick % 4) {
      case 0: value = pick % 4; break;
      case 1: value = pick % 1000; break;
      case 2: value = pick % 1000000; break;
      default: value = pick >> 12; break;
    }
    hist.record(value);
    oracle.push_back(value);
  }
  std::sort(oracle.begin(), oracle.end());
  const auto snap = hist.snapshot();
  ASSERT_EQ(snap.count, oracle.size());
  EXPECT_EQ(snap.min, oracle.front());
  EXPECT_EQ(snap.max, oracle.back());
  for (double q : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(snap.percentile(q), oracle_percentile(oracle, q)) << "q=" << q;
  }
}

TEST(Histogram, PercentileBoundWithin25PercentOfExact) {
  // End-to-end statement of the accuracy contract: the reported percentile
  // never undershoots the exact order statistic and overshoots by < 25%.
  Rng rng(99);
  LatencyHistogram hist;
  std::vector<u64> oracle;
  for (int i = 0; i < 2000; ++i) {
    const u64 value = 5 + rng.next() % 100000;
    hist.record(value);
    oracle.push_back(value);
  }
  std::sort(oracle.begin(), oracle.end());
  const auto snap = hist.snapshot();
  for (double q : {50.0, 90.0, 95.0, 99.0}) {
    const u64 rank = static_cast<u64>(
        std::ceil(q / 100.0 * static_cast<double>(oracle.size())));
    const u64 exact = oracle[rank - 1];
    const u64 reported = snap.percentile(q);
    EXPECT_GE(reported, exact) << "q=" << q;
    EXPECT_LT(static_cast<double>(reported),
              static_cast<double>(exact) * 1.25 + 1.0)
        << "q=" << q;
  }
}

TEST(Histogram, ResetZeroesInPlace) {
  LatencyHistogram hist;
  hist.record(10);
  hist.record(20);
  hist.reset();
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.percentile(50), 0u);
  hist.record(7);  // shards survive the reset and keep recording
  EXPECT_EQ(hist.snapshot().count, 1u);
  EXPECT_EQ(hist.snapshot().max, 7u);
}

TEST(Histogram, ShardsMergeAcrossThreads) {
  // Raw std::thread, not ThreadPool: the pool degenerates to inline
  // execution on single-hardware-thread hosts, which would leave every
  // sample in one shard. Each spawned thread gets its own shard slot;
  // snapshot() must see the union with exact count/sum/min/max.
  LatencyHistogram hist;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.record(static_cast<u64>(t * kPerThread + i + 1));
      }
    });
  }
  // Concurrent snapshots while recorders run: must be race-free (TSan) and
  // internally consistent, never over the final count.
  for (int probe = 0; probe < 50; ++probe) {
    const auto snap = hist.snapshot();
    EXPECT_LE(snap.count, u64{kThreads} * kPerThread);
  }
  for (auto& thread : threads) thread.join();
  const auto snap = hist.snapshot();
  const u64 n = u64{kThreads} * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.sum, n * (n + 1) / 2);  // values are exactly 1..n
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, n);
  u64 bucket_total = 0;
  for (u64 b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

TEST(Counter, SaturatesAtU64MaxInsteadOfWrapping) {
  Counter counter;
  counter.add(std::numeric_limits<u64>::max() - 5);
  counter.add(3);
  EXPECT_EQ(counter.value(), std::numeric_limits<u64>::max() - 2);
  counter.add(100);  // would wrap; must clamp
  EXPECT_EQ(counter.value(), std::numeric_limits<u64>::max());
  counter.add(1);  // stays saturated
  EXPECT_EQ(counter.value(), std::numeric_limits<u64>::max());
}

TEST(Gauge, KeepsHighWatermark) {
  Gauge gauge;
  gauge.update_max(5);
  gauge.update_max(3);
  EXPECT_EQ(gauge.value(), 5u);
  gauge.update_max(9);
  EXPECT_EQ(gauge.value(), 9u);
}

TEST(Registry, SameNameReturnsSameMetric) {
  TelemetryGuard guard;
  Counter& a = counter("test.registry.a_total");
  Counter& b = counter("test.registry.a_total");
  EXPECT_EQ(&a, &b);
  a.add(2);
  EXPECT_EQ(b.value(), 2u);
  EXPECT_EQ(&histogram("test.registry.h_us"), &histogram("test.registry.h_us"));
  EXPECT_EQ(&gauge("test.registry.g_peak"), &gauge("test.registry.g_peak"));
}

TEST(Instrumentation, DisabledTelemetryRecordsNothing) {
  TelemetryGuard guard;
  ASSERT_FALSE(enabled());
  {
    HostSpan span("test.off.span_us");
  }
  EXPECT_EQ(histogram("test.off.span_us").snapshot().count, 0u);
  EXPECT_TRUE(host_trace_events().empty());
}

TEST(Instrumentation, HostSpanRecordsWhenEnabled) {
  TelemetryGuard guard;
  set_enabled(true);
  {
    HostSpan span("test.on.span_us");
  }
  {
    HostSpan span("test.on.span_us");
  }
  EXPECT_EQ(histogram("test.on.span_us").snapshot().count, 2u);
}

// Scripted hit/miss sequence against the real process-wide caches: the
// counters must match the script exactly, not merely move.
TEST(CacheCounters, ProgramCacheScript) {
  TelemetryGuard guard;
  auto& cache = vsim::ProgramCache::instance();
  cache.clear();
  MetricsRegistry::instance().reset_for_tests();  // drop the eviction counts
  set_enabled(true);

  const std::string a = "halt\n";
  const std::string b = "addi r1, r1, 1\nhalt\n";
  cache.get(a);  // miss
  cache.get(a);  // hit
  cache.get(b);  // miss
  cache.get(a);  // hit
  cache.get(b);  // hit

  EXPECT_EQ(counter("cache.program.hits_total").value(), 3u);
  EXPECT_EQ(counter("cache.program.misses_total").value(), 2u);
  EXPECT_EQ(counter("cache.program.bytes_total").value(), a.size() + b.size());
  EXPECT_EQ(histogram("cache.program.lookup_us").snapshot().count, 5u);

  cache.clear();  // both entries evicted
  EXPECT_EQ(counter("cache.program.evictions_total").value(), 2u);
}

TEST(CacheCounters, StageCacheScript) {
  TelemetryGuard guard;
  auto& cache = kernels::MatrixStageCache::instance();
  cache.clear();
  MetricsRegistry::instance().reset_for_tests();
  set_enabled(true);

  Coo coo(8, 8);
  coo.add(0, 1, 1.0f);
  coo.add(3, 2, 2.0f);
  coo.add(7, 7, 3.0f);
  Coo other(8, 8);
  other.add(1, 0, 4.0f);

  cache.hism(coo, 64);    // miss
  cache.hism(coo, 64);    // hit
  cache.hism(coo, 32);    // miss: section size is part of the key
  cache.crs(coo);         // miss (separate namespace from hism)
  cache.crs(coo);         // hit
  cache.hism(other, 64);  // miss

  EXPECT_EQ(counter("cache.stage.hits_total").value(), 2u);
  EXPECT_EQ(counter("cache.stage.misses_total").value(), 4u);
  EXPECT_GT(counter("cache.stage.bytes_total").value(), 0u);
  EXPECT_EQ(histogram("cache.stage.lookup_us").snapshot().count, 6u);
}

// bytes_total counts what a stage stores: its snapshot's non-zero prefix,
// not the logical size machines see.
TEST(CacheCounters, StageBytesCountStoredSnapshotBytes) {
  TelemetryGuard guard;
  auto& cache = kernels::MatrixStageCache::instance();
  cache.clear();
  MetricsRegistry::instance().reset_for_tests();
  set_enabled(true);

  Coo coo(300, 300);
  for (Index i = 0; i < 300; i += 3) coo.add(i, (7 * i) % 300, 1.0f + static_cast<float>(i));
  const auto hism = cache.hism(coo, 64);
  const auto crs = cache.crs(coo);
  EXPECT_EQ(counter("cache.stage.bytes_total").value(),
            hism->snapshot->size() + crs->snapshot->size());
  EXPECT_LT(hism->snapshot->size(), hism->snapshot_size);
  EXPECT_LT(crs->snapshot->size(), crs->snapshot_size);
}

// A memory attached to a compact snapshot counts the logical size once, at
// its first write; reads of the stored prefix and later writes add nothing.
TEST(CacheCounters, PrivatizedBytesCountTheLogicalSizeOnce) {
  TelemetryGuard guard;
  set_enabled(true);
  auto snapshot = std::make_shared<std::vector<u8>>(100, u8{1});
  vsim::Memory memory;
  memory.attach_base(snapshot, 8192);
  EXPECT_EQ(memory.read_u8(5), 1u);
  EXPECT_EQ(counter("mem.privatized_bytes_total").value(), 0u);
  memory.write_u8(5, 2);
  memory.write_u8(6000, 2);
  EXPECT_EQ(counter("mem.privatized_bytes_total").value(), 8192u);

  vsim::Memory tail_reader;
  tail_reader.attach_base(snapshot, 4096);
  EXPECT_EQ(tail_reader.read_u32(200), 0u);  // a tail read privatizes too
  EXPECT_EQ(counter("mem.privatized_bytes_total").value(), 8192u + 4096u);
}

// The interpreter's block-timing memo counts per run and adds to the
// registry once, at finish_run, only while telemetry is on; observed runs
// never memoize, so they count nothing.
TEST(BlockMemoCounters, CountEveryMemoizedBlockOnceWhenEnabled) {
  TelemetryGuard guard;
  const vsim::Program program = vsim::assemble(
      "    li r2, 100\n"
      "loop:\n"
      "    addi r1, r1, 1\n"
      "    addi r2, r2, -1\n"
      "    bne r2, r0, loop\n"
      "    halt\n");
  const auto memo_total = [] {
    return counter("vsim.block_memo.hits_total").value() +
           counter("vsim.block_memo.misses_total").value() +
           counter("vsim.block_memo.fast_forward_total").value();
  };
  vsim::Machine machine{vsim::MachineConfig{}};
  machine.run(program);
  EXPECT_EQ(memo_total(), 0u);

  set_enabled(true);
  machine.run(program);
  // One block from pc 0 (its first iteration included), 99 from the loop.
  EXPECT_EQ(memo_total(), 100u);
  EXPECT_LE(counter("vsim.block_memo.misses_total").value(), 3u);
  EXPECT_GE(counter("vsim.block_memo.fast_forward_total").value(), 95u);

  vsim::PerfCounters profiler;
  machine.attach_profiler(&profiler);
  machine.run(program);
  EXPECT_EQ(memo_total(), 100u);
}

TEST(CacheCounters, CountersUntouchedWhileDisabled) {
  TelemetryGuard guard;
  auto& cache = vsim::ProgramCache::instance();
  cache.clear();
  MetricsRegistry::instance().reset_for_tests();
  ASSERT_FALSE(enabled());

  cache.get("halt\n");
  cache.get("halt\n");

  EXPECT_EQ(counter("cache.program.hits_total").value(), 0u);
  EXPECT_EQ(counter("cache.program.misses_total").value(), 0u);
  EXPECT_EQ(histogram("cache.program.lookup_us").snapshot().count, 0u);
  cache.clear();
  EXPECT_EQ(counter("cache.program.evictions_total").value(), 0u);
}

}  // namespace
}  // namespace smtu::telemetry
