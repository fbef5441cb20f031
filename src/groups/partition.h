// The √n-decomposition (paper §3, Algorithm 1 line 3).
//
// A predefined partition of P = {0..n-1} into ⌈√n⌉ groups of size at most
// ⌈√n⌉ each, computable locally by every process from n alone. We use
// contiguous id ranges: group g = { g·⌈√n⌉, ..., min((g+1)·⌈√n⌉, n) - 1 }.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace omx::groups {

class SqrtPartition {
 public:
  explicit SqrtPartition(std::uint32_t n);

  /// Memoized decomposition: the partition is a pure function of n, so
  /// repeated trials share one immutable instance (the member table is
  /// O(n)) instead of rebuilding per trial. Thread-safe with per-key once
  /// semantics and inherited by fork(2), like CommGraph::common_for_shared.
  static std::shared_ptr<const SqrtPartition> shared_for(std::uint32_t n);

  /// Partitions ever constructed by shared_for (not memo hits) — test
  /// observability.
  static std::uint64_t shared_builds();

  std::uint32_t n() const { return n_; }
  std::uint32_t num_groups() const { return num_groups_; }
  std::uint32_t group_of(std::uint32_t p) const;
  std::uint32_t group_size(std::uint32_t g) const;
  /// Global process ids of group g (contiguous, ascending).
  std::span<const std::uint32_t> members(std::uint32_t g) const;
  /// Index of p within its group.
  std::uint32_t index_in_group(std::uint32_t p) const;
  /// Largest group size (the tree decomposition is sized for this).
  std::uint32_t max_group_size() const { return width_; }

 private:
  std::uint32_t n_;
  std::uint32_t width_;       // ⌈√n⌉
  std::uint32_t num_groups_;  // ⌈n / width⌉ <= ⌈√n⌉
  std::vector<std::uint32_t> ids_;  // 0..n-1 (span storage)
};

}  // namespace omx::groups
