// Run-length-coded id sets: the doubling gossip's knowledge state.
//
// Fault-free doubling gossip is ring-symmetric: every process's knowledge
// is one master id set shifted by its own position, and that master set
// stays extremely run-compressible (measured: peak ~14k runs at n = 10^6
// against 10^6 ids). RunSet stores such a set as sorted disjoint half-open
// runs [lo, hi) over [0, n), immutable and shared via shared_ptr — a
// process's knowledge is (shared RunSet, rotation), so the per-process
// footprint is a pointer, and identical set algebra across processes
// collapses to one shared computation.
//
// Accounting: the wire bills a flooded (id, bit) pair at
// field_bits(id) + 1. A whole absolute-id interval [lo, hi) is billed in
// O(1) via the closed-form prefix F = field_bits_prefix (support/bits.h):
// (hi - lo) + F(hi) - F(lo). Rotation splits at the ring seam at most once
// per run, so billing a rotated RunSet is O(runs), not O(ids).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/bits.h"
#include "support/check.h"

namespace omx::support {

struct Run {
  std::uint32_t lo;  // inclusive
  std::uint32_t hi;  // exclusive, lo < hi
};

class RunSet;
using RunSetPtr = std::shared_ptr<const RunSet>;

class RunSet {
 public:
  RunSet() = default;
  /// Takes ownership of a normalized run list (sorted, disjoint,
  /// non-adjacent runs are not required — adjacency is tolerated but the
  /// builders below always merge it).
  explicit RunSet(std::vector<Run> runs) : runs_(std::move(runs)) {
    for (const Run& r : runs_) {
      OMX_CHECK(r.lo < r.hi, "RunSet run must be non-empty");
      count_ += r.hi - r.lo;
    }
  }

  static RunSetPtr empty_set() {
    static const RunSetPtr kEmpty = std::make_shared<RunSet>();
    return kEmpty;
  }

  /// The singleton set {id} (the gossip seed: a process knows its own pair).
  static RunSetPtr single(std::uint32_t id) {
    return std::make_shared<RunSet>(std::vector<Run>{Run{id, id + 1}});
  }

  const std::vector<Run>& runs() const { return runs_; }
  std::uint64_t count() const { return count_; }
  bool empty() const { return runs_.empty(); }

  bool contains(std::uint32_t id) const {
    auto it = std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [](std::uint32_t v, const Run& r) { return v < r.lo; });
    return it != runs_.begin() && id < std::prev(it)->hi;
  }

  template <class Fn>
  void for_each_id(Fn&& fn) const {
    for (const Run& r : runs_) {
      for (std::uint32_t id = r.lo; id < r.hi; ++id) fn(id);
    }
  }

 private:
  std::vector<Run> runs_;
  std::uint64_t count_ = 0;
};

/// One shifted union operand: ids { (x + shift) mod n : x in *set }.
struct ShiftedSet {
  const RunSet* set;
  std::uint32_t shift;
};

namespace detail {
/// Append `r` shifted by `shift` (mod n) to `out`, splitting at the ring
/// seam when the shifted run wraps.
inline void append_shifted(std::vector<Run>& out, const Run& r,
                           std::uint32_t shift, std::uint32_t n) {
  const std::uint64_t lo = static_cast<std::uint64_t>(r.lo) + shift;
  const std::uint64_t hi = static_cast<std::uint64_t>(r.hi) + shift;
  if (hi <= n) {
    out.push_back(Run{static_cast<std::uint32_t>(lo),
                      static_cast<std::uint32_t>(hi)});
  } else if (lo >= n) {
    out.push_back(Run{static_cast<std::uint32_t>(lo - n),
                      static_cast<std::uint32_t>(hi - n)});
  } else {
    out.push_back(Run{static_cast<std::uint32_t>(lo), n});
    out.push_back(Run{0, static_cast<std::uint32_t>(hi - n)});
  }
}

/// Sort-and-merge normalization (overlapping or adjacent runs coalesce).
inline std::vector<Run> normalize(std::vector<Run> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const Run& a, const Run& b) { return a.lo < b.lo; });
  std::vector<Run> out;
  out.reserve(runs.size());
  for (const Run& r : runs) {
    if (!out.empty() && r.lo <= out.back().hi) {
      out.back().hi = std::max(out.back().hi, r.hi);
    } else {
      out.push_back(r);
    }
  }
  return out;
}
}  // namespace detail

/// base ∪ (∪ over operands of shifted operand), all over the ring [0, n).
/// `base` itself is taken unshifted.
inline RunSetPtr union_shifted(const RunSet& base,
                               const std::vector<ShiftedSet>& operands,
                               std::uint32_t n) {
  std::vector<Run> all(base.runs());
  for (const ShiftedSet& op : operands) {
    for (const Run& r : op.set->runs()) {
      OMX_CHECK(r.hi <= n, "RunSet run outside the ring");
      detail::append_shifted(all, r, op.shift % n, n);
    }
  }
  return std::make_shared<RunSet>(detail::normalize(std::move(all)));
}

/// a \ b (same frame). Two-pointer sweep, O(runs(a) + runs(b)).
inline RunSetPtr difference(const RunSet& a, const RunSet& b) {
  std::vector<Run> out;
  std::size_t j = 0;
  const auto& bs = b.runs();
  for (const Run& r : a.runs()) {
    std::uint32_t cur = r.lo;
    while (j < bs.size() && bs[j].hi <= cur) ++j;
    std::size_t k = j;
    while (k < bs.size() && bs[k].lo < r.hi) {
      if (bs[k].lo > cur) out.push_back(Run{cur, bs[k].lo});
      cur = std::max(cur, bs[k].hi);
      ++k;
    }
    if (cur < r.hi) out.push_back(Run{cur, r.hi});
  }
  if (out.empty()) return RunSet::empty_set();
  return std::make_shared<RunSet>(std::move(out));
}

/// Wire billing for the absolute-id interval [lo, hi):
/// one (field_bits(id) + 1)-bit pair per id, summed in O(1).
inline std::uint64_t interval_pair_bits(std::uint32_t lo, std::uint32_t hi) {
  return (hi - lo) + field_bits_prefix(hi) - field_bits_prefix(lo);
}

/// Pair billing for a whole RunSet whose ids are rotated by `rot` (mod n)
/// into the absolute frame. O(runs).
inline std::uint64_t shifted_pair_bits(const RunSet& s, std::uint32_t rot,
                                       std::uint32_t n) {
  std::uint64_t bits = 0;
  for (const Run& r : s.runs()) {
    const std::uint64_t lo = static_cast<std::uint64_t>(r.lo) + rot % n;
    const std::uint64_t hi = static_cast<std::uint64_t>(r.hi) + rot % n;
    if (hi <= n) {
      bits += interval_pair_bits(static_cast<std::uint32_t>(lo),
                                 static_cast<std::uint32_t>(hi));
    } else if (lo >= n) {
      bits += interval_pair_bits(static_cast<std::uint32_t>(lo - n),
                                 static_cast<std::uint32_t>(hi - n));
    } else {
      bits += interval_pair_bits(static_cast<std::uint32_t>(lo), n);
      bits += interval_pair_bits(0, static_cast<std::uint32_t>(hi - n));
    }
  }
  return bits;
}

}  // namespace omx::support
