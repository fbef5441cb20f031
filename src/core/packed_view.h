// Packed knowledge view for the full-information exchange protocols.
//
// A view over member ids 0..n-1 is two word-packed bitsets: `known` marks
// ids whose input bit has been learned, `value` carries the bit (valid only
// where known). Set-union of two views is a word-wide OR; majority
// thresholding is two popcounts. The wire form (PackedFlood, shared
// immutable) carries both masks plus a bit size computed once per blob:
// 1 + sum over known ids of (field_bits(id) + 1), i.e. each pair billed as
// a self-delimiting id plus its bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/bits.h"
#include "support/check.h"
#include "support/packed_bits.h"

namespace omx::core {

/// Immutable wire blob of a packed view: one shared allocation per
/// broadcast, read in place by every receiver.
struct PackedFlood {
  /// Views holding at most this many pairs are stored inline (no dense
  /// word vectors at all). The first flood round is the hot case: every
  /// process broadcasts a 1-pair view, and each receiver walks all n of
  /// them — with the dense form that walk chases a heap vector per blob
  /// (~70 MB of scattered state at n=16384); inline, a blob is one cache
  /// line and round 1 runs out of LLC.
  static constexpr std::uint32_t kSparseMax = 4;

  std::uint32_t n = 0;
  std::uint64_t bits = 1;  // wire size, cached
  /// > 0: the view is the `sparse_count` pairs in `sparse` (id << 1 | bit,
  /// ascending id) and the dense vectors below are empty.
  std::uint32_t sparse_count = 0;
  std::array<std::uint64_t, kSparseMax> sparse{};
  std::vector<std::uint64_t> known;
  std::vector<std::uint64_t> value;
  /// Indices of the nonzero words of `known`, ascending. Relay rounds are
  /// sparse-ish (only newly-learned pairs are forwarded), so merges
  /// iterate this instead of every word: merging a k-pair blob costs O(k)
  /// words, not O(n/64).
  std::vector<std::uint32_t> nonzero;
};

class PackedView {
 public:
  PackedView() = default;
  explicit PackedView(std::uint32_t n) { reset(n); }

  /// Re-target at n members, empty. Capacity persists.
  void reset(std::uint32_t n) {
    n_ = n;
    known_.reset(n);
    value_.reset(n);
    known_count_ = 0;
    ones_ = 0;
  }

  /// Forget every pair, keeping size and capacity.
  void clear_keep_capacity() {
    known_.clear_all();
    value_.clear_all();
    known_count_ = 0;
    ones_ = 0;
  }

  std::uint32_t size() const { return n_; }
  std::uint64_t known_count() const { return known_count_; }
  std::uint64_t ones() const { return ones_; }
  std::uint64_t zeros() const { return known_count_ - ones_; }
  bool any() const { return known_count_ != 0; }
  bool full() const { return known_count_ == n_; }

  bool knows(std::uint32_t id) const { return known_.test(id); }
  std::uint8_t value_of(std::uint32_t id) const {
    OMX_CHECK(known_.test(id), "value_of an unknown id");
    return value_.test(id) ? 1 : 0;
  }

  /// Learn (id, bit); true iff the id was new.
  bool add(std::uint32_t id, std::uint8_t bit) {
    if (!known_.test_and_set(id)) return false;
    ++known_count_;
    if (bit != 0) {
      value_.set(id);
      ++ones_;
    }
    return true;
  }

  /// OR-merge an incoming wire view; ids new to this view are additionally
  /// accumulated into `fresh` (may be null). Returns the number of newly
  /// learned ids. O(words) regardless of how many pairs the wire carries.
  std::uint64_t merge_from(const PackedFlood& in, PackedView* fresh) {
    OMX_CHECK(in.n == n_, "packed view size mismatch");
    std::uint64_t learned = 0;
    if (in.sparse_count > 0) {
      for (std::uint32_t i = 0; i < in.sparse_count; ++i) {
        const auto id = static_cast<std::uint32_t>(in.sparse[i] >> 1);
        const auto bit = static_cast<std::uint8_t>(in.sparse[i] & 1u);
        if (add(id, bit)) {
          ++learned;
          if (fresh != nullptr) fresh->add(id, bit);
        }
      }
      return learned;
    }
    for (const std::uint32_t w : in.nonzero) {
      const std::uint64_t novel = in.known[w] & ~known_.word(w);
      if (novel == 0) continue;
      const std::uint64_t novel_ones = in.value[w] & novel;
      known_.or_word(w, novel);
      value_.or_word(w, novel_ones);
      learned += static_cast<std::uint64_t>(std::popcount(novel));
      ones_ += static_cast<std::uint64_t>(std::popcount(novel_ones));
      if (fresh != nullptr) {
        fresh->known_.or_word(w, novel);
        fresh->value_.or_word(w, novel_ones);
        fresh->known_count_ +=
            static_cast<std::uint64_t>(std::popcount(novel));
        fresh->ones_ += static_cast<std::uint64_t>(std::popcount(novel_ones));
      }
    }
    known_count_ += learned;
    return learned;
  }

  /// Snapshot this view into a shared immutable wire blob, with its bit
  /// size computed once (O(words)).
  std::shared_ptr<const PackedFlood> make_blob() const {
    auto blob = std::make_shared<PackedFlood>();
    blob->n = n_;
    if (known_count_ > 0 && known_count_ <= PackedFlood::kSparseMax) {
      std::uint64_t pair_bits = 0;
      for_each_pair([&](std::uint32_t id, std::uint8_t bit) {
        blob->sparse[blob->sparse_count++] =
            (static_cast<std::uint64_t>(id) << 1) | bit;
        pair_bits += field_bits(id) + 1;
      });
      blob->bits = 1 + pair_bits;
      return blob;
    }
    blob->known.assign(known_.words().begin(), known_.words().end());
    blob->value.assign(value_.words().begin(), value_.words().end());
    blob->bits = 1 + known_count_ + support::sum_field_bits(known_.words());
    blob->nonzero.reserve(blob->known.size());
    for (std::uint32_t w = 0; w < blob->known.size(); ++w) {
      if (blob->known[w] != 0) blob->nonzero.push_back(w);
    }
    return blob;
  }

  /// Visit every known (id, bit) pair in ascending id order.
  template <class Fn>
  void for_each_pair(Fn&& fn) const {
    known_.for_each_set([&](std::uint32_t id) {
      fn(id, static_cast<std::uint8_t>(value_.test(id) ? 1 : 0));
    });
  }

 private:
  std::uint32_t n_ = 0;
  std::uint64_t known_count_ = 0;
  std::uint64_t ones_ = 0;
  support::PackedBits known_;
  support::PackedBits value_;
};

}  // namespace omx::core
