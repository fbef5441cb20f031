// One process's links on the common graph G under the "silent links die"
// rule that Algorithm 3's spreading and Algorithm 4's decision gossip share.
//
// In every round of such a phase an operative process hears its in-links.
// A message on a dead link is disregarded; a live link that stays silent
// for a whole round dies for good (dead links never revive, across epochs
// and phases alike); and the process sends only on links that are still
// live. The class keeps that bookkeeping per neighbour slot, plus the
// ascending list of live neighbours that the sender multicasts to — rebuilt
// only in a round where some link died.
//
// Senders normally arrive in ascending id order (RoundIo::for_each_in walks
// the wire in send order, and processes send in id order), so a forward
// cursor over the sorted neighbour list finds each slot in amortized O(1);
// a sender that arrives out of order makes the cursor re-seek.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/check.h"

namespace omx::core {

class LiveLinks {
 public:
  LiveLinks() = default;

  /// `neighbors` must be sorted ascending and outlive this object (the
  /// shared CommGraph's adjacency list). Every link starts live.
  explicit LiveLinks(std::span<const std::uint32_t> neighbors)
      : nb_(neighbors),
        state_(neighbors.size(), kLive),
        live_(neighbors.begin(), neighbors.end()) {}

  /// Record a message from neighbour `from` in the current round. Returns
  /// false if it travelled a dead link (the caller disregards it). A sender
  /// that is not a neighbour at all violates the protocol and throws.
  bool hear(std::uint32_t from) {
    if (cursor_ < nb_.size() && nb_[cursor_] > from) {
      cursor_ = static_cast<std::uint32_t>(
          std::lower_bound(nb_.begin(), nb_.end(), from) - nb_.begin());
    }
    while (cursor_ < nb_.size() && nb_[cursor_] < from) ++cursor_;
    OMX_CHECK(cursor_ < nb_.size() && nb_[cursor_] == from,
              "link message from a non-neighbor");
    std::uint8_t& st = state_[cursor_];
    if (st == kDead) return false;
    if (st == kLive) {
      st = kHeard;
      ++heard_;
    }
    return true;
  }

  /// Close the round: every live link not heard since the last close dies.
  /// Returns how many live links were heard.
  std::uint32_t close_round() {
    bool died = false;
    for (std::uint8_t& st : state_) {
      if (st == kHeard) {
        st = kLive;
      } else if (st == kLive) {
        st = kDead;
        died = true;
      }
    }
    if (died) {
      live_.clear();
      for (std::size_t slot = 0; slot < nb_.size(); ++slot) {
        if (state_[slot] != kDead) live_.push_back(nb_[slot]);
      }
    }
    const std::uint32_t heard = heard_;
    heard_ = 0;
    cursor_ = 0;
    return heard;
  }

  /// Live neighbours in ascending order: this round's send targets.
  std::span<const std::uint32_t> live() const { return live_; }
  /// Whether the link to the slot-th neighbour (in sorted order) is dead.
  bool dead(std::size_t slot) const { return state_[slot] == kDead; }

 private:
  static constexpr std::uint8_t kLive = 0;
  static constexpr std::uint8_t kHeard = 1;  // live, heard this round
  static constexpr std::uint8_t kDead = 2;

  std::span<const std::uint32_t> nb_;
  std::vector<std::uint8_t> state_;  // per neighbour slot
  std::vector<std::uint32_t> live_;
  std::uint32_t cursor_ = 0;
  std::uint32_t heard_ = 0;
};

}  // namespace omx::core
