#include "groups/partition.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <numeric>

#include "support/bits.h"
#include "support/check.h"

namespace omx::groups {

SqrtPartition::SqrtPartition(std::uint32_t n) : n_(n) {
  OMX_REQUIRE(n >= 1, "partition needs at least one process");
  const std::uint32_t root = isqrt(n);
  width_ = (root * root == n) ? root : root + 1;  // ⌈√n⌉
  num_groups_ = static_cast<std::uint32_t>(ceil_div(n, width_));
  ids_.resize(n);
  std::iota(ids_.begin(), ids_.end(), 0u);
}

namespace {
struct SharedEntry {
  std::once_flag once;
  std::shared_ptr<const SqrtPartition> partition;
};
std::atomic<std::uint64_t> shared_builds_count{0};
}  // namespace

std::shared_ptr<const SqrtPartition> SqrtPartition::shared_for(
    std::uint32_t n) {
  static std::mutex mu;
  static std::map<std::uint32_t, SharedEntry> cache;  // node-stable addresses

  SharedEntry* entry;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[n];
  }
  std::call_once(entry->once, [&] {
    entry->partition = std::make_shared<const SqrtPartition>(n);
    shared_builds_count.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->partition;
}

std::uint64_t SqrtPartition::shared_builds() {
  return shared_builds_count.load(std::memory_order_relaxed);
}

std::uint32_t SqrtPartition::group_of(std::uint32_t p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  return p / width_;
}

std::uint32_t SqrtPartition::group_size(std::uint32_t g) const {
  OMX_REQUIRE(g < num_groups_, "group out of range");
  const std::uint32_t lo = g * width_;
  const std::uint32_t hi = std::min(n_, lo + width_);
  return hi - lo;
}

std::span<const std::uint32_t> SqrtPartition::members(std::uint32_t g) const {
  OMX_REQUIRE(g < num_groups_, "group out of range");
  const std::uint32_t lo = g * width_;
  return {ids_.data() + lo, group_size(g)};
}

std::uint32_t SqrtPartition::index_in_group(std::uint32_t p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  return p % width_;
}

}  // namespace omx::groups
