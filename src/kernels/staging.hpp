// Shared, immutable staged matrix images.
//
// Every (matrix, layout) pair stages to the same bytes no matter which
// machine runs the kernel, so the conversion (from_coo) and the serialized
// image are built once and wrapped in a snapshot that machines attach
// copy-on-write (vsim::Memory::attach_base). Ablation ladders sweeping N
// configs over one matrix then share one image instead of rebuilding N.
//
// The snapshot is the stage's only copy of the image bytes. It covers
// [0, snapshot_size) from address zero with the image at its usual
// kImageBase. snapshot_size is what vsim::Memory's geometric growth would
// have sized a freshly staged memory, so reads behave bit-identically to the
// per-machine staging path; only the prefix up to the last non-zero byte is
// stored, and the zeros past it (the growth tail, and for CRS the output
// arrays) are the snapshot's implicit tail.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "hism/hism.hpp"
#include "kernels/layout.hpp"

namespace smtu::kernels {

// A HiSM matrix staged once: the hierarchy, its memory image descriptor
// (`image.bytes` stays empty) and the shared byte snapshot machines attach
// with attach_base(snapshot, snapshot_size).
struct HismStage {
  HismMatrix hism;
  HismImage image;
  std::shared_ptr<const std::vector<u8>> snapshot;
  u64 snapshot_size = 0;
};

// A CRS matrix staged once (input arrays serialized, outputs zeroed).
struct CrsStage {
  Csr csr;
  CrsImage image;
  std::shared_ptr<const std::vector<u8>> snapshot;
  u64 snapshot_size = 0;
};

// Stage builders (also usable without the cache).
HismStage build_hism_stage(HismMatrix hism);
CrsStage build_crs_stage(Csr csr);

// Process-local 128-bit content key of a staged matrix.
struct StageKey {
  u64 lo = 0;
  u64 hi = 0;

  friend bool operator==(const StageKey&, const StageKey&) = default;
};

struct StageKeyHash {
  usize operator()(const StageKey& key) const { return static_cast<usize>(key.lo); }
};

// Process-wide cache from matrix content to its staged image. Thread-safe;
// keyed by dimensions plus a content digest of the COO entries (and the
// section size for HiSM, whose layout depends on it). Each key is built
// once: the first lookup claims it and builds outside the lock, and racing
// lookups of the same key wait for that build instead of repeating it.
class MatrixStageCache {
 public:
  // misses counts builds; hits counts lookups served by a finished or
  // in-flight build.
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
  };

  static MatrixStageCache& instance();

  std::shared_ptr<const HismStage> hism(const Coo& coo, u32 section);
  std::shared_ptr<const CrsStage> crs(const Coo& coo);

  Stats stats() const;
  void clear();

 private:
  template <typename Stage>
  using Entries =
      std::unordered_map<StageKey, std::shared_future<std::shared_ptr<const Stage>>, StageKeyHash>;

  template <typename Stage, typename Build>
  std::shared_ptr<const Stage> lookup(Entries<Stage>& entries, const StageKey& key, Build build);

  mutable std::mutex mutex_;
  Entries<HismStage> hism_entries_;
  Entries<CrsStage> crs_entries_;
  Stats stats_;
};

}  // namespace smtu::kernels
