// OptimalOmissionsConsensus (paper Algorithm 1, Theorems 1 and 5).
//
// The protocol, per epoch (of params.epochs(n,t) total):
//   1. GroupBitsAggregation (Algorithm 2): within each √n-group, a binary
//      tree of bags is assembled bottom-up; each tree layer costs one
//      3-round GroupRelay (push → ack → share). Sources that hear from
//      fewer than ⌊w/2⌋+1 group members become inoperative.
//   2. GroupBitsSpreading (Algorithm 3): operative processes gossip the
//      ⌈√n⌉ per-group (ones, zeros) counts along the sparse common graph G
//      for spread_rounds(n) rounds, forwarding each entry at most once per
//      link, killing links that fall silent, and going inoperative below
//      Δ/3 live in-links. Each round a process builds one SpreadMsg of the
//      entries it has not announced yet and multicasts it to its live links
//      (produce() says why that equals per-link forwarding).
//   3. Biased-majority vote (lines 9–12): with estimated totals, fraction
//      of ones > 18/30 → b=1; < 15/30 → b=0; otherwise b = fresh coin
//      (the protocol's ONLY randomness — one bit per process per epoch).
//      Fraction > 27/30 or < 3/30 → decided.
// Tail (lines 14–20): operative deciders broadcast b; receivers adopt;
// undecided operative processes run the deterministic flood-set fallback.
//
// This class is payload-local (member indices 0..m-1) so Algorithm 4 can
// embed it on a subset of processes; OptimalMachine adapts it to the
// simulator and exposes the VoteProbe for the Theorem-2 adversary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "adversary/probes.h"
#include "core/flood_fallback.h"
#include "core/io.h"
#include "core/links.h"
#include "core/messages.h"
#include "core/params.h"
#include "graph/comm_graph.h"
#include "groups/partition.h"
#include "groups/tree.h"
#include "rng/ledger.h"
#include "sim/adversary.h"
#include "sim/machine.h"

namespace omx::core {

struct OptimalConfig {
  Params params;
  /// Fault-tolerance parameter: schedule length (#epochs, fallback rounds).
  std::uint32_t t = 0;
  /// Algorithm 4 embedding: stop after the decision-collect round
  /// (Algorithm 1 line 16) and skip the deterministic fallback.
  bool truncated = false;
};

struct MemberOutcome {
  std::uint8_t value = 0;     // current b / decision
  bool has_value = false;     // decided, or received a decision broadcast
  bool decided = false;       // terminated with a decision
  bool operative = false;
  std::int64_t decision_round = -1;  // local round of decision, -1 if none
};

class OptimalCore {
 public:
  OptimalCore(OptimalConfig config, std::span<const std::uint8_t> inputs);

  std::uint32_t num_members() const { return m_; }
  /// Fixed schedule horizon in local rounds (after which every member has
  /// either decided or — faulty corner cases — holds its final value).
  std::uint32_t scheduled_rounds() const { return total_rounds_; }

  /// Schedule horizon as a pure function of the configuration — Algorithm 4
  /// needs it before constructing the embedded instance (every process must
  /// know every phase's length up-front).
  static std::uint32_t schedule_length(const Params& params, std::uint32_t n,
                                       std::uint32_t t, bool truncated);

  /// Advance to local round r (must be called with consecutive r from 0).
  void begin_round(std::uint32_t r);
  /// Step member m for the current round: consume `inbox` (messages sent in
  /// the previous round), then emit this round's sends.
  void step(std::uint32_t m, std::span<const In> inbox, Outbox& send,
            rng::Source& rng);

  bool all_terminated() const { return terminated_count() == m_; }
  std::uint32_t terminated_count() const {
    return terminated_count_.load(std::memory_order_relaxed);
  }
  MemberOutcome outcome(std::uint32_t m) const;

  // --- probe / test / experiment introspection ---
  bool votes_fresh() const { return votes_fresh_; }
  std::uint8_t value_of(std::uint32_t m) const { return st_[m].b; }
  bool operative(std::uint32_t m) const { return st_[m].operative; }
  bool decided_flag(std::uint32_t m) const { return st_[m].decided; }
  bool terminated(std::uint32_t m) const { return st_[m].terminated; }
  std::uint32_t operative_count() const;
  /// Operative count recorded at the end of each completed epoch (Lemma 7).
  const std::vector<std::uint32_t>& operative_history() const {
    return operative_history_;
  }
  /// (ones, zeros) estimates of each currently-operative member from the
  /// most recent completed epoch (for count-divergence property tests);
  /// members without a fresh estimate report nullopt.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> last_estimate(
      std::uint32_t m) const;
  const graph::CommGraph& comm_graph() const { return *graph_; }
  const Params& params() const { return cfg_.params; }
  std::uint32_t epochs_total() const { return epochs_; }
  std::uint32_t epoch_rounds() const { return epoch_len_; }
  /// Directed dead links (member, neighbor) across all members — the
  /// spreading machinery may only kill links with a faulty endpoint.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dead_links() const;

 private:
  enum class Kind : std::uint8_t {
    AggPush,
    AggAck,
    AggShare,
    Spread,
    DecideBcast,
    DecideCollect,
    Fallback,
    Done,
  };
  struct Phase {
    Kind kind = Kind::Done;
    std::uint32_t epoch = 0;
    std::uint32_t stage = 0;         // tree layer (AggPush/Ack/Share)
    std::uint32_t spread_round = 0;  // within Spread
    std::uint32_t fallback_round = 0;
  };

  struct MemberState {
    std::uint8_t b = 0;
    bool operative = true;
    bool decided = false;
    bool terminated = false;
    bool got_decision_msg = false;
    std::uint8_t decision = 0;
    std::int64_t decision_round = -1;

    // Group geometry (cached).
    std::uint32_t group = 0;
    std::uint32_t idx_in_group = 0;
    std::uint32_t group_size = 0;

    // --- aggregation scratch (reset per stage) ---
    bool sourced = false;  // pushed this stage (was operative at push time)
    std::vector<std::uint32_t> push_senders;
    std::vector<std::uint8_t> child_valid;   // per layer-(j-1) bag index
    std::vector<std::uint32_t> child_ones;
    std::vector<std::uint32_t> child_zeros;
    std::uint32_t acks = 0;
    std::uint32_t shares = 0;
    std::uint8_t have = 0;  // bit0 left child value seen, bit1 right
    std::uint32_t lo = 0, lz = 0, ro = 0, rz = 0;

    // Current-layer counts of this member's bag.
    std::uint32_t cur_ones = 0;
    std::uint32_t cur_zeros = 0;
    bool estimate_fresh = false;
    std::uint32_t est_ones = 0, est_zeros = 0;

    // --- spreading state ---
    std::vector<std::uint8_t> pack_valid;   // per group (epoch-reset)
    std::vector<std::uint32_t> pack_ones;
    std::vector<std::uint32_t> pack_zeros;
    std::vector<std::uint8_t> announced;    // per group, sent on every live
                                            // link (epoch-reset)
    LiveLinks links;                        // on G (persistent)

    std::uint32_t last_reset_epoch = UINT32_MAX;
  };

  Phase phase_of(std::uint32_t r) const;
  void epoch_reset(MemberState& s, std::uint32_t epoch);
  void stage_reset(MemberState& s);
  void consume(std::uint32_t m, const Phase& prev, std::span<const In> inbox,
               rng::Source& rng);
  void produce(std::uint32_t m, const Phase& cur, Outbox& send);
  void decide(std::uint32_t m, std::uint8_t value);
  void vote_update(std::uint32_t m, rng::Source& rng);

  OptimalConfig cfg_;
  std::uint32_t m_ = 0;  // member count
  std::shared_ptr<const groups::SqrtPartition> partition_;
  groups::TreeDecomposition tree_;
  std::shared_ptr<const graph::CommGraph> graph_;  // over member indices
  std::uint32_t delta_ = 0;
  std::uint32_t min_in_links_ = 0;  // Δ/3 operative rule
  std::uint32_t epochs_ = 0;
  std::uint32_t layers_ = 0;       // tree layers L
  std::uint32_t agg_len_ = 0;      // 3·(L-1)
  std::uint32_t spread_len_ = 0;   // S
  std::uint32_t epoch_len_ = 0;    // agg_len + S
  std::uint32_t decide_bcast_round_ = 0;
  std::uint32_t fallback_start_ = 0;
  std::uint32_t total_rounds_ = 0;

  std::uint32_t cur_round_ = 0;
  bool votes_fresh_ = false;
  bool pending_epoch_record_ = false;
  // step() runs for different members concurrently under a sharded engine;
  // the per-round final count is order-independent, so relaxed increments
  // keep determinism. (The core is never copied: OptimalMachine embeds it,
  // Param/MultiValue hold it behind unique_ptr.)
  std::atomic<std::uint32_t> terminated_count_{0};

  std::vector<MemberState> st_;
  FloodFallback fallback_;
  std::vector<std::uint32_t> operative_history_;
};

/// Simulator adapter for a standalone Algorithm 1 run over all n processes,
/// exposing the VoteProbe used by the Theorem-2 coin-hiding adversary.
class OptimalMachine final : public sim::Machine<Msg>,
                             public adversary::VoteProbe {
 public:
  OptimalMachine(OptimalConfig config, std::vector<std::uint8_t> inputs);

  OptimalCore& core() { return core_; }
  const OptimalCore& core() const { return core_; }

  /// Optional: stop as soon as every *non-corrupted* process terminated
  /// (the consensus spec's termination clause). Wire with runner.faults().
  void set_fault_view(const sim::FaultState* faults) { faults_ = faults; }

  // sim::Machine
  std::uint32_t num_processes() const override { return core_.num_members(); }
  void set_lanes(unsigned lanes) override { scratch_in_.resize(lanes); }
  void begin_round(std::uint32_t round) override;
  void round(sim::ProcessId p, sim::RoundIo<Msg>& io) override;
  bool finished() const override;

  // adversary::VoteProbe
  std::uint32_t probe_num_processes() const override {
    return core_.num_members();
  }
  std::uint8_t probe_value(sim::ProcessId p) const override {
    return core_.value_of(p);
  }
  bool probe_counts_in_vote(sim::ProcessId p) const override {
    return core_.operative(p) && !core_.terminated(p);
  }
  bool probe_votes_fresh() const override { return core_.votes_fresh(); }

 private:
  OptimalCore core_;
  const sim::FaultState* faults_ = nullptr;
  std::uint32_t rounds_seen_ = 0;
  std::vector<std::vector<In>> scratch_in_{1};  // one buffer per lane
};

}  // namespace omx::core
