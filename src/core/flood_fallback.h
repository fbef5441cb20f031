// Deterministic flood-set fallback (substitute for Dolev–Strong'83).
//
// Used at the tail of Algorithms 1 and 4 when some operative process failed
// to set `decided` (a whp-never event): participants flood (id, input)
// pairs for t+1 rounds, forwarding only newly-learned pairs, then decide
// the majority of the collected multiset and broadcast the decision.
//
// Why this substitutes the paper's authenticated protocol: under omission
// faults processes never lie, so authentication is vacuous; the chain
// argument (a value reaching a participant must traverse t+1 distinct
// first-senders, hence at least one non-faulty one who flooded it to
// everybody) gives all participants identical pair sets after t+1 rounds,
// and the majority rule preserves validity because non-faulty processes
// outnumber faulty ones by far (t < n/30).
//
// State: a participant holds two core::PackedView masks over the member
// ids, `know` (every pair learned) and `fresh` (learned but not yet
// relayed), and relays `fresh` as one PackedFloodMsg. Merging a received
// view is one OR + popcount per 64 ids, and a member already holding every
// pair skips the merge in O(1). The views are sized when a member
// registers (set_participant), so the runs that decide before their
// fallback — nearly all of them — allocate none.
//
// Round layout (local fallback rounds fr):
//   fr = 0        participants send their own pair to everyone
//   fr = 1..t     relay rounds (only new pairs are forwarded)
//   fr = t+1      last receipts consumed; participants decide the majority
//                 and broadcast DecisionMsg
//   fr = t+2      everyone else adopts the broadcast decision
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/io.h"
#include "core/packed_view.h"
#include "support/check.h"

namespace omx::core {

class FloodFallback {
 public:
  FloodFallback(std::uint32_t members, std::uint32_t t)
      : t_(t), members_(members), state_(members) {}

  std::uint32_t total_rounds() const { return t_ + 3; }

  /// True when member m's round-fr inbox provably cannot change its state:
  /// inboxes up to round t+1 carry only flood traffic (the DecisionMsg
  /// broadcast of round t+1 is first consumed in round t+2), and a
  /// participant whose view is full learns nothing from a flood message.
  /// Callers may then skip walking the inbox altogether — that walk is the
  /// only O(n) per-process cost left in the fault-free steady state, so
  /// skipping it makes full-information runs at n=16384 take seconds.
  /// A non-participant's view is never sized, and an empty view reads as
  /// full, hence the participant test.
  bool inbox_is_noop(std::uint32_t m, std::uint32_t fr) const {
    const auto& s = state_[m];
    return fr <= t_ + 1 && s.participant && s.know.full();
  }

  /// Must be called before the first step of member m (if m participates).
  void set_participant(std::uint32_t m, std::uint8_t input) {
    auto& s = state_[m];
    s.participant = true;
    s.know.reset(members_);
    s.fresh.reset(members_);
    s.know.add(m, input);
    s.fresh.add(m, input);
  }

  /// Merge member m's inbox straight out of the wire walk, with the
  /// member-state lookup hoisted out of the per-message callback. In a
  /// broadcast round every process receives n-1 messages, so this callback
  /// runs Θ(n²) times per round — at n=16384, collecting an inbox and
  /// walking it a second time would cost hundreds of millions of pointer
  /// hops per round.
  template <class Io>
  void consume_stream(std::uint32_t m, Io& io) {
    auto& s = state_[m];
    io.for_each_in(
        [&s](sim::ProcessId, const Msg& msg) { consume(s, msg); });
  }

  void step(std::uint32_t m, std::uint32_t fr, std::span<const In> inbox,
            Outbox& send) {
    OMX_REQUIRE(fr < total_rounds(), "fallback round out of schedule");
    auto& s = state_[m];

    // --- consume messages sent in round fr-1 ---
    for (const In& in : inbox) {
      consume(s, *in.msg);
    }

    // --- produce this round's sends ---
    if (fr <= t_) {
      if (s.participant && s.fresh.any()) {
        send.all(Msg{PackedFloodMsg{s.fresh.make_blob()}});
        s.fresh.clear_keep_capacity();
      }
    } else if (fr == t_ + 1) {
      if (s.participant && !s.has_decision) {
        s.has_decision = true;
        s.decision = s.know.ones() > s.know.zeros() ? 1 : 0;
        send.all(Msg{DecisionMsg{s.decision}});
      }
    }
    // fr == t_ + 2: consume-only round.
  }

  bool participant(std::uint32_t m) const { return state_[m].participant; }
  bool has_decision(std::uint32_t m) const { return state_[m].has_decision; }
  std::uint8_t decision(std::uint32_t m) const {
    OMX_REQUIRE(state_[m].has_decision, "no fallback decision for member");
    return state_[m].decision;
  }

 private:
  struct MemberState {
    bool participant = false;
    bool has_decision = false;
    std::uint8_t decision = 0;
    PackedView know;   // every pair learned; sized by set_participant
    PackedView fresh;  // learned but not yet relayed
  };

  static void consume(MemberState& s, const Msg& msg) {
    if (const auto* pm = std::get_if<PackedFloodMsg>(&msg)) {
      // Non-participants do not relay. A member already holding every pair
      // cannot learn anything, so the whole merge (and its fresh
      // bookkeeping) skips in O(1): after the first relay round of a
      // fault-free run everyone is full and rounds cost O(1) per receipt.
      if (!s.participant || pm->view == nullptr || s.know.full()) return;
      s.know.merge_from(*pm->view, &s.fresh);
    } else if (const auto* dm = std::get_if<DecisionMsg>(&msg)) {
      if (!s.has_decision) {
        s.has_decision = true;
        s.decision = dm->value;
      }
    }
  }

  std::uint32_t t_;
  std::uint32_t members_;
  std::vector<MemberState> state_;
};

}  // namespace omx::core
