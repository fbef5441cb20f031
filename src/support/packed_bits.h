// Word-packed bitset behind the flood-set views (core/packed_view.h).
//
// The full-information protocols (flood-set, the fallback tails of
// Algorithms 1 and 4 and of Ben-Or) spend their compute phase doing
// set-union and threshold counting over per-id knowledge: one OR + popcount
// per 64 ids. PackedBits is the flat storage: fixed size n,
// capacity-persistent reset, word-level access for merge loops, and an
// O(words) sum of the per-id `field_bits` wire billing (support/bits.h).
//
// Not a std::bitset/vector<bool> replacement in general — the API is
// deliberately the small surface the packed views need.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/bits.h"
#include "support/check.h"

namespace omx::support {

class PackedBits {
 public:
  PackedBits() = default;
  explicit PackedBits(std::uint32_t n) { reset(n); }

  /// Re-target at n bits, all clear. Capacity persists across resets.
  void reset(std::uint32_t n) {
    n_ = n;
    words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  }

  /// Clear every bit, keeping size and capacity.
  void clear_all() {
    std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t));
  }

  std::uint32_t size() const { return n_; }
  std::size_t num_words() const { return words_.size(); }
  std::span<const std::uint64_t> words() const { return words_; }
  std::uint64_t word(std::size_t w) const { return words_[w]; }
  void or_word(std::size_t w, std::uint64_t bits) { words_[w] |= bits; }

  bool test(std::uint32_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::uint32_t i) {
    OMX_CHECK(i < n_, "PackedBits::set out of range");
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }

  /// Set bit i; true iff it was previously clear.
  bool test_and_set(std::uint32_t i) {
    OMX_CHECK(i < n_, "PackedBits::test_and_set out of range");
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    const bool fresh = (w & mask) == 0;
    w |= mask;
    return fresh;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (const std::uint64_t w : words_) {
      c += static_cast<std::size_t>(std::popcount(w));
    }
    return c;
  }

  bool any() const {
    for (const std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// Visit every set bit in ascending order.
  template <class Fn>
  void for_each_set(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(bits));
        fn(static_cast<std::uint32_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::uint32_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Sum of field_bits(id) over every set id — the per-pair id billing of a
/// whole view, in O(words).
///
/// Width classes [2^(k-1), 2^k) are word-aligned for ids >= 64 (every power
/// of two >= 64 is a multiple of 64), so each word w >= 1 lies entirely in
/// one class and contributes popcount(word) * field_bits(64w). Word 0 spans
/// the sub-64 class boundaries and is handled with per-class masks.
inline std::uint64_t sum_field_bits(std::span<const std::uint64_t> words) {
  std::uint64_t sum = 0;
  if (!words.empty()) {
    const std::uint64_t w0 = words[0];
    // Classes inside word 0: [0,2) width 1, [2,4) width 2, [4,8) width 3,
    // [8,16) width 4, [16,32) width 5, [32,64) width 6.
    sum += static_cast<std::uint64_t>(std::popcount(w0 & 0x3u)) * 1;
    sum += static_cast<std::uint64_t>(std::popcount(w0 & 0xCu)) * 2;
    sum += static_cast<std::uint64_t>(std::popcount(w0 & 0xF0u)) * 3;
    sum += static_cast<std::uint64_t>(std::popcount(w0 & 0xFF00u)) * 4;
    sum += static_cast<std::uint64_t>(std::popcount(w0 & 0xFFFF0000u)) * 5;
    sum += static_cast<std::uint64_t>(
               std::popcount(w0 & 0xFFFFFFFF00000000u)) * 6;
  }
  for (std::size_t w = 1; w < words.size(); ++w) {
    sum += static_cast<std::uint64_t>(std::popcount(words[w])) *
           field_bits(static_cast<std::uint64_t>(w) << 6);
  }
  return sum;
}

inline std::uint64_t sum_field_bits(const PackedBits& b) {
  return sum_field_bits(b.words());
}

}  // namespace omx::support
