// Crash-amortized inquiry gossip — the communication-frugal primitive
// behind crash-model consensus à la Hajiaghayi–Kowalski–Olkowski (STOC'22,
// paper reference [23]), built to demonstrate §B.3's point: the "double
// your contacts when responses go missing" trick amortizes beautifully
// against crashes and catastrophically fails against omission faults.
//
// Protocol (each process wants the full input vector, i.e. the global
// counts Algorithm 1 obtains with its operative machinery):
//   * each process keeps a contact window of c_p ids — the first c_p
//     entries of a fixed offset order that starts with the exponential
//     "fingers" +1, +2, +4, ..., +2^k (so fault-free knowledge doubles per
//     exchange and everyone completes in O(log n) exchanges) and continues
//     with the remaining ring offsets; initially c_p = Θ(log n);
//   * every odd round it INQUIREs its contacts; every even round contacts
//     RESPOND with the pairs they have not yet sent to that inquirer
//     (an empty response still counts as a sign of life);
//   * if fewer than half the contacts respond, the process DOUBLES c_p
//     (capped at n-1) — against crashes this happens O(log n) times total,
//     because dead contacts stay dead;
//   * a process completes when it knows at least n - t pairs and its
//     knowledge was stable for one exchange.
//
// Against crashes: Õ(n·Δ + crash-induced doublings) messages per exchange —
// subquadratic for t = O(n/polylog). Against an omission adversary that
// simply suppresses all responses TO t victims, every victim doubles to
// n-1 contacts and interrogates the whole network forever: Θ(t·n) messages
// per exchange, i.e. the quadratic blow-up the paper's §B.3 predicts — and
// the victims never complete, so the crash-style completion predicate
// never fires for them.
//
// State: knowledge is a run-length-coded id set (support/run_set.h) stored
// as (shared RunSet, rotation = own id). The fault-free execution is
// ring-symmetric, so every process's set is the same master set rotated,
// and the per-round set algebra (union of shifted reply deltas,
// know-minus-snapshot diffs) is memoized machine-wide: computed once,
// shared by all n processes. What a peer has already been sent is one
// RunSet snapshot pointer per active reply channel, and replies carry
// RunMsg deltas. Memory is Õ(n) per run, which lets a gossip run complete
// at n = 10^6. Reply values are implied: omission adversaries never corrupt
// payloads, so the ones/zeros readout of a process is served from the
// global inputs over its known ids.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "sim/adversary.h"
#include "sim/machine.h"
#include "support/run_set.h"

namespace omx::baselines {

struct DoublingConfig {
  std::uint32_t t = 0;
  /// Initial contact-window size (0 = 4·ceil(log2 n)).
  std::uint32_t initial_contacts = 0;
  /// Hard cap on exchanges (inquire+respond pairs); 0 = 4·ceil(log2 n) + t.
  std::uint32_t max_exchanges = 0;
};

class DoublingGossipMachine final : public sim::Machine<core::Msg> {
 public:
  DoublingGossipMachine(DoublingConfig config,
                        std::vector<std::uint8_t> inputs);

  void set_fault_view(const sim::FaultState* faults) { faults_ = faults; }
  /// Crash-model semantics: corrupted processes HALT (stop executing), as
  /// a physically crashed machine would. Omission semantics (default) keep
  /// them computing and sending — the §B.3 distinction in one flag.
  void set_crash_semantics(bool on) { crash_semantics_ = on; }
  /// Run the full horizon even after every non-faulty process completed
  /// (steady-state traffic measurements).
  void set_run_full_horizon(bool on) { full_horizon_ = on; }
  std::uint32_t scheduled_rounds() const { return 2 * max_exchanges_; }

  bool completed(sim::ProcessId p) const { return st_[p].completed; }
  /// Global ones-count as known by p (valid once completed).
  std::uint32_t ones_of(sim::ProcessId p) const;
  std::uint32_t zeros_of(sim::ProcessId p) const;
  std::uint32_t known_of(sim::ProcessId p) const {
    return st_[p].known_count;
  }
  std::uint32_t contacts_of(sim::ProcessId p) const { return st_[p].contacts; }
  std::uint32_t doublings_of(sim::ProcessId p) const {
    return st_[p].doublings;
  }

  std::uint32_t num_processes() const override { return n_; }
  void set_lanes(unsigned lanes) override {
    scratch_targets_.resize(lanes);
    scratch_ops_.resize(lanes);
  }
  void begin_round(std::uint32_t round) override;
  void round(sim::ProcessId p, sim::RoundIo<core::Msg>& io) override;
  bool finished() const override;

 private:
  struct PState {
    // Knowledge: ids { (x + p) mod n : x in *know_set }, plus one
    // knowledge snapshot per reply channel (what the peer has been sent).
    support::RunSetPtr know_set;
    std::vector<std::pair<sim::ProcessId, support::RunSetPtr>> snaps;

    std::uint32_t known_count = 0;
    std::uint32_t contacts = 0;                // current window size
    std::uint32_t doublings = 0;
    bool completed = false;
    bool stable = false;                       // no new pairs last exchange
    std::vector<sim::ProcessId> inquirers;     // who asked this exchange
  };

  support::RunSetPtr memo_union(
      const support::RunSetPtr& base,
      const std::vector<support::ShiftedSet>& ops);
  support::RunSetPtr memo_diff(const support::RunSetPtr& a,
                               const support::RunSetPtr& b);

  std::uint32_t n_ = 0;
  std::uint32_t t_ = 0;
  std::uint32_t max_exchanges_ = 0;
  std::uint32_t cur_round_ = 0;
  std::uint32_t rounds_seen_ = 0;
  std::vector<PState> st_;
  std::vector<std::uint32_t> offsets_;  // contact order (fingers first)
  // Inquiry multicast list + union-operand scratch, one per engine lane.
  std::vector<std::vector<sim::ProcessId>> scratch_targets_{1};
  std::vector<std::vector<support::ShiftedSet>> scratch_ops_{1};
  std::vector<std::uint8_t> inputs_;
  std::vector<std::uint32_t> prefix_ones_;  // ones_of readout
  const sim::FaultState* faults_ = nullptr;
  bool crash_semantics_ = false;
  bool full_horizon_ = false;

  // Machine-wide per-round memo of the set algebra. Keys are the
  // operand object identities (RunSets are immutable and shared), so in
  // the symmetric fault-free execution every process hits the same entry
  // and the round's algebra is computed exactly once. Cleared each round;
  // sharing only affects speed, never results. The mutex covers sharded
  // compute phases (contention is one lookup per process per round).
  using UnionKey =
      std::pair<const void*,
                std::vector<std::pair<std::uint32_t, const void*>>>;
  std::mutex memo_mu_;
  std::map<UnionKey, support::RunSetPtr> union_memo_;
  std::map<std::pair<const void*, const void*>, support::RunSetPtr>
      diff_memo_;
};

}  // namespace omx::baselines
