// Ben-Or / Bar-Joseph–Ben-Or-style biased-majority consensus: the
// crash-model randomized baseline (paper [10], discussed in §B.3).
//
// Every undecided process broadcasts its bit each round (Θ(n²) bits/round,
// no operative machinery), counts received bits and applies the same
// 15/30–18/30 / 3/30–27/30 threshold rule as Algorithm 1, flipping a fresh
// coin in the dead zone. Deciders broadcast their decision (relayed once by
// each receiver) and stop. After `round_cap` voting rounds an undecided
// process enters the deterministic flood-set fallback.
//
// Against *crash* faults this is the time-optimal classic. Against the
// omission adversary it has two measurable weaknesses the paper motivates:
// (a) Θ(n²) bits per round — no √n-group aggregation — and (b) divergent
// counts across receivers (split-brain) can push it to the fallback or, at
// large t, even to disagreement; benches report both.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "adversary/probes.h"
#include "core/flood_fallback.h"
#include "core/messages.h"
#include "core/optimal_core.h"  // MemberOutcome
#include "sim/adversary.h"
#include "sim/machine.h"

namespace omx::baselines {

struct BenOrConfig {
  std::uint32_t t = 0;
  /// Voting rounds before falling back (0 = auto: 4·(t/√n + 1)·ceil(log2 n)).
  std::uint32_t round_cap = 0;
};

class BenOrMachine final : public sim::Machine<core::Msg>,
                           public adversary::VoteProbe {
 public:
  BenOrMachine(BenOrConfig config, std::vector<std::uint8_t> inputs);

  void set_fault_view(const sim::FaultState* faults) { faults_ = faults; }
  std::uint32_t scheduled_rounds() const { return total_rounds_; }
  std::uint32_t round_cap() const { return cap_; }
  core::MemberOutcome outcome(sim::ProcessId p) const;

  std::uint32_t num_processes() const override { return n_; }
  void set_lanes(unsigned lanes) override { scratch_.resize(lanes); }
  void begin_round(std::uint32_t round) override;
  void round(sim::ProcessId p, sim::RoundIo<core::Msg>& io) override;
  bool finished() const override;

  // VoteProbe
  std::uint32_t probe_num_processes() const override { return n_; }
  std::uint8_t probe_value(sim::ProcessId p) const override {
    return st_[p].b;
  }
  bool probe_counts_in_vote(sim::ProcessId p) const override {
    return !st_[p].terminated && !st_[p].decided;
  }
  bool probe_votes_fresh() const override { return votes_fresh_; }

 private:
  struct PState {
    std::uint8_t b = 0;
    bool decided = false;      // ready to decide (safety thresholds hit)
    bool terminated = false;
    bool relayed = false;      // decision relayed once
    std::uint8_t decision = 0;
    std::int64_t decision_round = -1;
  };

  void decide(sim::ProcessId p, std::uint8_t value);

  BenOrConfig cfg_;
  std::uint32_t n_;
  std::uint32_t cap_ = 0;
  std::uint32_t fallback_start_ = 0;
  std::uint32_t total_rounds_ = 0;
  std::uint32_t cur_round_ = 0;
  std::uint32_t rounds_seen_ = 0;
  // Order-independent final value per round => relaxed atomic increments
  // keep determinism under sharded stepping.
  std::atomic<std::uint32_t> terminated_count_{0};
  bool votes_fresh_ = false;
  std::vector<PState> st_;
  core::FloodFallback fallback_;
  std::vector<std::vector<core::In>> scratch_{1};  // one buffer per lane
  const sim::FaultState* faults_ = nullptr;
};

}  // namespace omx::baselines
