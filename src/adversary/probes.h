// State probes: the "full information" part of the adversary.
//
// In the paper's model the adversary sees the states of all processes at all
// times. Concretely, machines that want to be attackable by state-aware
// strategies implement a probe interface; the experiment wires the probe
// into the adversary at setup. (Payload inspection is already available to
// every adversary through AdversaryContext::for_each_message().)
#pragma once

#include <cstdint>

#include "sim/message.h"

namespace omx::adversary {

/// Exposed by voting-style consensus machines (Algorithm 1, the Ben-Or-style
/// baseline, Algorithm 4): enough state for the Theorem-2 coin-hiding
/// strategy to keep the execution near the decision boundary.
class VoteProbe {
 public:
  virtual ~VoteProbe() = default;

  virtual std::uint32_t probe_num_processes() const = 0;
  /// Current candidate value b_p of process p.
  virtual std::uint8_t probe_value(sim::ProcessId p) const = 0;
  /// Whether p still participates in voting (operative and undecided).
  virtual bool probe_counts_in_vote(sim::ProcessId p) const = 0;
  /// True in rounds where candidate values were just (re)computed — the
  /// moment the coin-flipping game of Appendix C is played.
  virtual bool probe_votes_fresh() const = 0;
};

}  // namespace omx::adversary
