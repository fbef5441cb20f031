// Message types of the core protocols (Algorithms 1–4).
//
// One variant serves Algorithm 1, Algorithm 4 (which embeds Algorithm 1)
// and the flood-set fallback; the lock-step schedule guarantees that only
// one message kind family is in flight in any given round, so no extra
// framing is needed. Bit accounting follows support/bits.h: each field is
// billed at its minimal self-delimiting width, mirroring the paper's
// "counts are O(log n)-bit numbers" bookkeeping.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "core/packed_view.h"
#include "support/bits.h"
#include "support/run_set.h"

namespace omx::core {

/// GroupRelay round 1: a source pushes its child-bag counts to the group.
struct RelayPush {
  std::uint16_t stage;      // tree layer being assembled
  std::uint32_t child_bag;  // index of the child bag the counts describe
  std::uint32_t ones;
  std::uint32_t zeros;
  std::uint64_t bit_size() const {
    return field_bits(stage) + field_bits(child_bag) + field_bits(ones) +
           field_bits(zeros);
  }
};

/// GroupRelay round 2: a transmitter confirms receipt to a source.
struct RelayAck {
  std::uint16_t stage;
  std::uint64_t bit_size() const { return field_bits(stage); }
};

/// GroupRelay round 3: a transmitter sends a source the aggregated counts
/// of both children of the source's current bag (presence flags per child).
struct RelayShare {
  std::uint16_t stage;
  std::uint8_t have_mask;  // bit 0: left child present, bit 1: right child
  std::uint32_t left_ones = 0;
  std::uint32_t left_zeros = 0;
  std::uint32_t right_ones = 0;
  std::uint32_t right_zeros = 0;
  std::uint64_t bit_size() const {
    std::uint64_t bits = field_bits(stage) + 2;
    if (have_mask & 1)
      bits += field_bits(left_ones) + field_bits(left_zeros);
    if (have_mask & 2)
      bits += field_bits(right_ones) + field_bits(right_zeros);
    return bits;
  }
};

/// One entry of the BitPacks array: a group's operative counts.
struct SpreadEntry {
  std::uint32_t group;
  std::uint32_t ones;
  std::uint32_t zeros;
};

/// GroupBitsSpreading gossip message: BitPacks entries not yet sent on this
/// link. An empty message is a heartbeat (keeps the link alive).
struct SpreadMsg {
  std::vector<SpreadEntry> entries;
  std::uint64_t bit_size() const {
    std::uint64_t bits = 1;  // heartbeat / framing
    for (const auto& e : entries)
      bits += field_bits(e.group) + field_bits(e.ones) + field_bits(e.zeros);
    return bits;
  }
};

/// A one-bit decision broadcast (Algorithm 1 line 14, fallback decision,
/// Algorithm 4 safety-rule vote).
struct DecisionMsg {
  std::uint8_t value;
  std::uint64_t bit_size() const { return 1; }
};

/// Flood-set relay: the (process id, input bit) pairs the sender learned
/// since its last relay, carried as two word-packed masks behind one shared
/// allocation (core/packed_view.h). bit_size is cached at construction:
/// 1 + Σ (field_bits(id) + 1), each pair billed as a self-delimiting id
/// plus its bit. A null view is the empty relay, 1 bit.
struct PackedFloodMsg {
  std::shared_ptr<const PackedFlood> view;
  std::uint64_t bit_size() const { return view == nullptr ? 1 : view->bits; }
};

/// Doubling-gossip reply: the ids { (x + rot) mod n : x in *delta } the
/// responder had not yet sent to this inquirer, run-length coded, with
/// their input bits implied by the receiver's global input lookup. bit_size
/// and the pair count are cached at construction (shifted_pair_bits) and
/// bill each pair like a flood-set relay does: 1 + Σ (field_bits(id) + 1).
/// An empty delta is the 1-bit sign-of-life heartbeat.
struct RunMsg {
  support::RunSetPtr delta;
  std::uint32_t rot = 0;
  std::uint32_t pairs = 0;
  std::uint64_t bits = 1;
  std::uint64_t bit_size() const { return bits; }
};

/// Multi-valued consensus: a candidate value announcement.
struct ValueMsg {
  std::uint32_t value;
  std::uint64_t bit_size() const { return field_bits(value) + 1; }
};

/// Inquiry token of the crash-amortized doubling gossip baseline (§B.3
/// demonstration): "send me what you know".
struct InquireMsg {
  std::uint64_t bit_size() const { return 1; }
};

/// Algorithm 4 decision gossip along G: either empty (heartbeat) or the
/// super-process's consensus decision.
struct GossipMsg {
  std::int8_t value;  // -1 = no decision yet
  std::uint64_t bit_size() const { return value < 0 ? 1 : 2; }
};

using Msg = std::variant<RelayPush, RelayAck, RelayShare, SpreadMsg,
                         DecisionMsg, GossipMsg, InquireMsg, ValueMsg,
                         PackedFloodMsg, RunMsg>;

std::uint64_t bit_size(const Msg& m);

}  // namespace omx::core
