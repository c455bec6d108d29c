#include "kernels/staging.hpp"

#include <algorithm>
#include <bit>

#include "support/assert.hpp"
#include "support/telemetry.hpp"

namespace smtu::kernels {
namespace {

// The size vsim::Memory's geometric growth (4096, doubling) would give a
// fresh memory after staging [0, end) — matching it keeps reads past the
// image (which return zero) behaving exactly like the per-machine path. It
// is the snapshot's logical size; only its non-zero prefix is stored.
u64 grown_size(u64 end) {
  u64 size = 4096;
  while (size < end) size *= 2;
  return size;
}

// `image` (a memory image from address zero) without its trailing zero
// bytes, which the snapshot's logical size covers instead. The cut is
// normally the zero high bytes of the image's last word, so shrinking in
// place (no reallocation, no second copy) leaves no more than that unused.
std::shared_ptr<const std::vector<u8>> make_snapshot(std::vector<u8> image) {
  const auto last = std::find_if(image.rbegin(), image.rend(), [](u8 byte) { return byte != 0; });
  image.resize(static_cast<usize>(image.rend() - last));
  return std::make_shared<const std::vector<u8>>(std::move(image));
}

// Two 64-bit multiply-xorshift lanes over whole words. In-process only, so
// it is free to change from one build to the next.
class WordDigest {
 public:
  void add(u64 word) {
    lo_ = (lo_ ^ word) * 0x9e3779b97f4a7c15ULL;
    lo_ ^= lo_ >> 29;
    hi_ = (hi_ + word) * 0xc2b2ae3d27d4eb4fULL;
    hi_ = std::rotl(hi_, 31);
  }

  StageKey finish() const { return {splitmix(lo_ ^ std::rotl(hi_, 17)), splitmix(hi_ + lo_)}; }

 private:
  static u64 splitmix(u64 z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  u64 lo_ = 0x6a09e667f3bcc908ULL;
  u64 hi_ = 0xbb67ae8584caa73bULL;
};

// Content key for a COO matrix: dimensions, the layout's salt (HiSM
// section; 0 for CRS) and every entry's row, column and value bits.
StageKey coo_key(const Coo& coo, u64 salt) {
  WordDigest digest;
  digest.add(salt);
  digest.add(coo.rows());
  digest.add(coo.cols());
  digest.add(coo.nnz());
  for (const CooEntry& entry : coo.entries()) {
    digest.add(entry.row);
    digest.add(entry.col);
    digest.add(std::bit_cast<u32>(entry.value));
  }
  return digest.finish();
}

}  // namespace

HismStage build_hism_stage(HismMatrix hism) {
  telemetry::HostSpan span("stage.build_us");
  HismStage stage;
  stage.hism = std::move(hism);
  std::vector<u8> image;
  stage.image = build_hism_image_into(stage.hism, kImageBase, 0, image);
  stage.snapshot = make_snapshot(std::move(image));
  stage.snapshot_size = grown_size(stage.image.end);
  return stage;
}

CrsStage build_crs_stage(Csr csr) {
  telemetry::HostSpan span("stage.build_us");
  CrsStage stage;
  stage.csr = std::move(csr);
  std::vector<u8> image;
  stage.image = build_crs_image_into(stage.csr, kImageBase, 0, image);
  stage.snapshot = make_snapshot(std::move(image));
  stage.snapshot_size = grown_size(stage.image.end);
  return stage;
}

MatrixStageCache& MatrixStageCache::instance() {
  static MatrixStageCache cache;
  return cache;
}

template <typename Stage, typename Build>
std::shared_ptr<const Stage> MatrixStageCache::lookup(Entries<Stage>& entries,
                                                      const StageKey& key, Build build) {
  std::promise<std::shared_ptr<const Stage>> promise;
  std::shared_future<std::shared_ptr<const Stage>> claimed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = entries.try_emplace(key);
    if (!inserted) {
      ++stats_.hits;
      claimed = it->second;
    } else {
      ++stats_.misses;
      it->second = promise.get_future().share();
    }
  }
  if (claimed.valid()) {
    if (telemetry::enabled()) telemetry::counter("cache.stage.hits_total").add(1);
    return claimed.get();  // waits while another thread builds this key
  }
  // This lookup claimed the key: build outside the lock (conversions are the
  // expensive part) and publish to every waiter.
  try {
    auto stage = std::make_shared<const Stage>(build());
    if (telemetry::enabled()) {
      telemetry::counter("cache.stage.misses_total").add(1);
      telemetry::counter("cache.stage.bytes_total").add(stage->snapshot->size());
    }
    promise.set_value(stage);
    return stage;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    entries.erase(key);  // let a later lookup retry
    throw;
  }
}

std::shared_ptr<const HismStage> MatrixStageCache::hism(const Coo& coo, u32 section) {
  telemetry::HostSpan span("cache.stage.lookup_us");
  return lookup(hism_entries_, coo_key(coo, section),
                [&] { return build_hism_stage(HismMatrix::from_coo(coo, section)); });
}

std::shared_ptr<const CrsStage> MatrixStageCache::crs(const Coo& coo) {
  telemetry::HostSpan span("cache.stage.lookup_us");
  return lookup(crs_entries_, coo_key(coo, 0), [&] { return build_crs_stage(Csr::from_coo(coo)); });
}

MatrixStageCache::Stats MatrixStageCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void MatrixStageCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const usize dropped = hism_entries_.size() + crs_entries_.size();
  if (telemetry::enabled() && dropped != 0) {
    telemetry::counter("cache.stage.evictions_total").add(dropped);
  }
  hism_entries_.clear();
  crs_entries_.clear();
  stats_ = {};
}

}  // namespace smtu::kernels
