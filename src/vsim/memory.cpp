#include "vsim/memory.hpp"

#include <bit>

#include "support/assert.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace smtu::vsim {

void Memory::attach_base(std::shared_ptr<const std::vector<u8>> base, u64 size) {
  SMTU_CHECK_MSG(base != nullptr, "attach_base: null snapshot");
  SMTU_CHECK_MSG(base->size() <= size, "attach_base: snapshot stores more than its size");
  SMTU_CHECK_MSG(size <= limit_, "attach_base: snapshot exceeds the memory limit");
  bytes_.clear();
  base_ = std::move(base);
  size_ = size;
  refresh_view();
}

void Memory::attach_base(std::shared_ptr<const std::vector<u8>> base) {
  SMTU_CHECK_MSG(base != nullptr, "attach_base: null snapshot");
  const u64 size = base->size();
  attach_base(std::move(base), size);
}

void Memory::privatize() const {
  if (base_ == nullptr) return;
  bytes_.reserve(size_);
  bytes_.assign(base_->begin(), base_->end());
  bytes_.resize(size_, u8{0});
  if (telemetry::enabled()) telemetry::counter("mem.privatized_bytes_total").add(size_);
  base_.reset();
  refresh_view();
}

void Memory::read_slow(Addr addr, u64 len) const {
  const u64 end = addr + len;
  SMTU_CHECK_MSG(end >= addr && end <= size_,
                 format("read at 0x%llx beyond allocated memory",
                        static_cast<unsigned long long>(addr)));
  privatize();
}

void Memory::ensure_slow(Addr addr, u64 len) {
  const u64 end = addr + len;
  SMTU_CHECK_MSG(end >= addr, "address overflow");
  SMTU_CHECK_MSG(end <= limit_, format("memory access at 0x%llx exceeds the %llu-byte limit",
                                       static_cast<unsigned long long>(addr),
                                       static_cast<unsigned long long>(limit_)));
  privatize();
  if (end > bytes_.size()) {
    // Grow geometrically to keep amortized cost low.
    u64 new_size = bytes_.size() == 0 ? 4096 : bytes_.size();
    while (new_size < end) new_size *= 2;
    bytes_.resize(std::min(new_size, limit_), 0);
  }
  refresh_view();
}

float Memory::read_f32(Addr addr) const { return std::bit_cast<float>(read_u32(addr)); }

void Memory::write_f32(Addr addr, float value) { write_u32(addr, std::bit_cast<u32>(value)); }

void Memory::write_block(Addr addr, std::span<const u8> data) {
  ensure(addr, data.size());
  // An empty span may carry a null pointer, which memcpy must never see.
  if (!data.empty()) std::memcpy(bytes_.data() + addr, data.data(), data.size());
}

}  // namespace smtu::vsim
