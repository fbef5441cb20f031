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
// Two wire-equivalent state representations, chosen at construction:
//   * legacy — per-member known vector + fresh pair list, FloodMsg on the
//     wire (one branch per received pair);
//   * packed — core::PackedView (word-packed known/value masks),
//     PackedFloodMsg on the wire; merging a received view is one OR +
//     popcount per 64 ids, and a member already holding all pairs skips
//     the merge in O(1). PackedFloodMsg caches the legacy-identical bit
//     size, so decisions, Metrics and traces match the legacy mode
//     bit-for-bit — only the wall time differs.
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
  FloodFallback(std::uint32_t members, std::uint32_t t, bool packed = false)
      : t_(t), members_(members), packed_(packed), state_(members) {
    for (auto& s : state_) {
      if (packed_) {
        s.know.reset(members);
        s.fresh_bits.reset(members);
      } else {
        s.known.assign(members, -1);
      }
    }
  }

  std::uint32_t total_rounds() const { return t_ + 3; }
  bool packed() const { return packed_; }

  /// True when member m's round-fr inbox provably cannot change its state:
  /// inboxes up to round t+1 carry only flood traffic (the DecisionMsg
  /// broadcast of round t+1 is first consumed in round t+2), and a full
  /// packed view learns nothing from a flood message. Callers may then
  /// skip walking the inbox altogether — that walk is the only O(n)
  /// per-process cost left in the fault-free steady state, so skipping it
  /// makes full-information runs at n=16384 take seconds.
  bool inbox_is_noop(std::uint32_t m, std::uint32_t fr) const {
    return packed_ && fr <= t_ + 1 && state_[m].know.full();
  }

  /// Must be called before the first step of member m (if m participates).
  void set_participant(std::uint32_t m, std::uint8_t input) {
    auto& s = state_[m];
    s.participant = true;
    if (packed_) {
      s.know.add(m, input);
      s.fresh_bits.add(m, input);
    } else {
      s.known[m] = static_cast<std::int8_t>(input);
      s.fresh.push_back(FloodPair{m, input});
    }
  }

  /// Consume one received message for member m. Exposed separately so
  /// callers can merge straight out of the wire walk instead of collecting
  /// an inbox and walking it a second time — at n=16384 that second pass
  /// is hundreds of millions of pointer hops per round.
  void consume_one(std::uint32_t m, const Msg& msg) {
    auto& s = state_[m];
    if (const auto* fm = std::get_if<FloodMsg>(&msg)) {
      if (!s.participant) return;  // non-participants do not relay
      for (const FloodPair& p : fm->pairs) {
        OMX_CHECK(p.id < members_, "flood pair id out of range");
        if (packed_) {
          if (s.know.add(p.id, p.value)) s.fresh_bits.add(p.id, p.value);
        } else {
          learn(s, p.id, p.value);
        }
      }
    } else if (const auto* pm = std::get_if<PackedFloodMsg>(&msg)) {
      if (!s.participant || pm->view == nullptr) return;
      OMX_CHECK(packed_, "packed flood message in a legacy fallback");
      // A member already holding every pair cannot learn anything — the
      // whole merge (and its fresh bookkeeping) skips in O(1). This is
      // what makes the fault-free steady state cheap: after the first
      // relay round everyone is full and rounds cost O(1) per receipt.
      if (s.know.full()) return;
      s.know.merge_from(*pm->view, &s.fresh_bits);
    } else if (const auto* dm = std::get_if<DecisionMsg>(&msg)) {
      if (!s.has_decision) {
        s.has_decision = true;
        s.decision = dm->value;
      }
    }
  }

  /// Streamed-walk consume: identical effect to calling consume_one() per
  /// message, with the member-state lookup and the packed dispatch hoisted
  /// out of the per-message callback. In a broadcast round every process
  /// receives n-1 messages, so this callback runs Θ(n²) times per round —
  /// the handful of instructions saved here are the difference between
  /// ~12 s and single-digit seconds for the full n=16384 flood run.
  template <class Io>
  void consume_stream(std::uint32_t m, Io& io) {
    auto& s = state_[m];
    io.for_each_in([this, &s, m](sim::ProcessId, const Msg& msg) {
      if (const auto* pm = std::get_if<PackedFloodMsg>(&msg)) {
        if (!s.participant || pm->view == nullptr || s.know.full()) return;
        s.know.merge_from(*pm->view, &s.fresh_bits);
      } else {
        consume_one(m, msg);
      }
    });
  }

  void step(std::uint32_t m, std::uint32_t fr, std::span<const In> inbox,
            Outbox& send) {
    OMX_REQUIRE(fr < total_rounds(), "fallback round out of schedule");
    auto& s = state_[m];

    // --- consume messages sent in round fr-1 ---
    for (const In& in : inbox) {
      consume_one(m, *in.msg);
    }

    // --- produce this round's sends ---
    if (fr <= t_) {
      if (packed_) {
        if (s.participant && s.fresh_bits.any()) {
          send.all(Msg{PackedFloodMsg{s.fresh_bits.make_blob()}});
          s.fresh_bits.clear_keep_capacity();
        }
      } else if (s.participant && !s.fresh.empty()) {
        // Copy the fresh pairs onto the wire and clear-and-reuse the
        // buffer: capacity persists across the t+1 relay rounds instead of
        // being re-grown from zero after a move-and-reassign.
        send.all(Msg{
            FloodMsg{std::vector<FloodPair>(s.fresh.begin(), s.fresh.end())}});
        s.fresh.clear();
      }
    } else if (fr == t_ + 1) {
      if (s.participant && !s.has_decision) {
        std::uint64_t ones = 0, zeros = 0;
        if (packed_) {
          ones = s.know.ones();
          zeros = s.know.zeros();
        } else {
          for (std::int8_t v : s.known) {
            if (v == 1) ++ones;
            else if (v == 0) ++zeros;
          }
        }
        s.has_decision = true;
        s.decision = ones > zeros ? 1 : 0;
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
    // Legacy representation.
    std::vector<std::int8_t> known;  // -1 unknown / 0 / 1 per member id
    std::vector<FloodPair> fresh;    // learned but not yet relayed
    // Packed representation (same roles, word-packed).
    PackedView know;
    PackedView fresh_bits;
  };

  void learn(MemberState& s, std::uint32_t id, std::uint8_t value) {
    if (s.known[id] < 0) {
      s.known[id] = static_cast<std::int8_t>(value);
      s.fresh.push_back(FloodPair{id, value});
    }
  }

  std::uint32_t t_;
  std::uint32_t members_;
  bool packed_;
  std::vector<MemberState> state_;
};

}  // namespace omx::core
