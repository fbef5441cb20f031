// ParamOmissions (paper Algorithm 4, Theorems 3 and 8): the
// time ↔ randomness trade-off.
//
// The process set is split into x super-processes SP_1..SP_x of size
// ⌈n/x⌉. In x round-robin phases, the members of SP_i run a *truncated*
// OptimalOmissionsConsensus among themselves (fixed schedule, fallback
// disabled), then the phase's decision — if any — is flooded along the
// common sparse graph G for gossip_rounds(n) rounds; every operative
// process adopts it as its input for all later phases. A final all-to-all
// safety rule (lines 15-30) lifts correctness to probability 1, falling
// back to the deterministic flood-set protocol in the whp-never case.
//
// Randomness trade-off: each inner run draws Õ((n/x)^{3/2}) bits, so the
// whole execution draws Õ(n·√(n/x)) bits while taking Õ(√(n·x)) rounds —
// the T × R = Θ̃(n²) spectrum of Table 1 row "Thm 3".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/probes.h"
#include "core/flood_fallback.h"
#include "core/links.h"
#include "core/messages.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "graph/comm_graph.h"
#include "sim/adversary.h"
#include "sim/machine.h"

namespace omx::core {

struct ParamConfig {
  Params params;
  /// Fault-tolerance parameter (t < n/60 for the paper's guarantees).
  std::uint32_t t = 0;
  /// Number of super-processes x in [1, n]. x = 1 degenerates to a single
  /// truncated Algorithm-1 run plus the safety tail; larger x trades time
  /// for randomness.
  std::uint32_t x = 1;
};

class ParamMachine final : public sim::Machine<Msg>,
                           public adversary::VoteProbe {
 public:
  ParamMachine(ParamConfig config, std::vector<std::uint8_t> inputs);

  /// Stop as soon as every non-corrupted process terminated.
  void set_fault_view(const sim::FaultState* faults) { faults_ = faults; }

  std::uint32_t scheduled_rounds() const { return total_rounds_; }
  std::uint32_t num_phases() const {
    return static_cast<std::uint32_t>(phase_start_.size());
  }

  MemberOutcome outcome(sim::ProcessId p) const;
  bool operative(sim::ProcessId p) const { return st_[p].operative; }
  std::uint32_t operative_count() const;

  // sim::Machine
  std::uint32_t num_processes() const override { return n_; }
  void set_lanes(unsigned lanes) override {
    inner_inbox_.resize(lanes);
    scratch_targets_.resize(lanes);
  }
  void begin_round(std::uint32_t round) override;
  void round(sim::ProcessId p, sim::RoundIo<Msg>& io) override;
  bool finished() const override;

  // adversary::VoteProbe (delegates to the active inner instance).
  std::uint32_t probe_num_processes() const override { return n_; }
  std::uint8_t probe_value(sim::ProcessId p) const override;
  bool probe_counts_in_vote(sim::ProcessId p) const override;
  bool probe_votes_fresh() const override;

 private:
  enum class Kind : std::uint8_t {
    Inner,
    Gossip,
    Settle,  // one quiet round so line 13 lands before the next phase starts
    SafetySend,
    SafetyCollect,
    FinalBcast,
    FinalCollect,
    Fallback,
    Done,
  };
  struct Phase {
    Kind kind = Kind::Done;
    std::uint32_t phase = 0;          // super-process index (Inner/Gossip)
    std::uint32_t inner_round = 0;    // within Inner
    std::uint32_t gossip_round = 0;   // within Gossip
    std::uint32_t fallback_round = 0;
  };

  struct PState {
    std::uint8_t b = 0;
    std::int8_t consensus_decision = -1;
    bool operative = true;
    bool decided = false;
    bool terminated = false;
    bool got_decision_msg = false;
    std::uint8_t decision = 0;
    std::int64_t decision_round = -1;
    LiveLinks links;  // on G (persistent across gossip phases)
  };

  Phase phase_of(std::uint32_t r) const;
  void decide(sim::ProcessId p, std::uint8_t value);
  std::uint32_t group_of(sim::ProcessId p) const { return p / group_width_; }
  std::uint32_t local_index(sim::ProcessId p) const {
    return p % group_width_;
  }
  void consume(sim::ProcessId p, const Phase& prev,
               std::span<const In> inbox);
  void produce(sim::ProcessId p, const Phase& cur, sim::RoundIo<Msg>& io);

  ParamConfig cfg_;
  std::uint32_t n_ = 0;
  std::uint32_t group_width_ = 0;  // ⌈n/x⌉
  std::uint32_t num_groups_ = 0;   // actual number of super-processes
  std::shared_ptr<const graph::CommGraph> graph_;
  std::uint32_t min_in_links_ = 0;
  std::uint32_t gossip_len_ = 0;

  std::vector<std::uint32_t> phase_start_;  // outer round of each phase
  std::vector<std::uint32_t> inner_len_;    // truncated schedule per phase
  std::uint32_t safety_send_round_ = 0;
  std::uint32_t fallback_start_ = 0;
  std::uint32_t total_rounds_ = 0;

  std::uint32_t cur_round_ = 0;
  std::uint32_t rounds_seen_ = 0;
  // Order-independent per-round final value => relaxed increments keep
  // determinism under sharded stepping.
  std::atomic<std::uint32_t> terminated_count_{0};

  std::vector<PState> st_;
  FloodFallback fallback_;

  // Active inner instance (rebuilt at each phase start).
  std::unique_ptr<OptimalCore> inner_;
  std::uint32_t inner_phase_ = UINT32_MAX;
  std::vector<std::uint32_t> inner_members_;  // global ids of active SP
  // Per-lane scratch (one entry per engine worker lane).
  std::vector<std::vector<In>> inner_inbox_{1};
  std::vector<std::vector<sim::ProcessId>> scratch_targets_{1};

  const sim::FaultState* faults_ = nullptr;
};

}  // namespace omx::core
