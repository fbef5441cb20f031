// Point-to-point messages of the synchronous network.
//
// The engine is templated on the protocol's payload type P. Requirements on
// P: movable, and `std::uint64_t bit_size(const P&)` must be findable by ADL
// (or P must have a `bit_size()` member). Bit accounting mirrors the paper's
// logical message contents; see support/bits.h for the convention.
#pragma once

#include <concepts>
#include <cstdint>
#include <utility>

namespace omx::sim {

using ProcessId = std::uint32_t;

template <class P>
concept HasBitSizeMember = requires(const P& p) {
  { p.bit_size() } -> std::convertible_to<std::uint64_t>;
};

template <class P>
  requires HasBitSizeMember<P>
std::uint64_t bit_size(const P& p) {
  return p.bit_size();
}

}  // namespace omx::sim
