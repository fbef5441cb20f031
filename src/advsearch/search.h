// Closed-loop adversary search (ROADMAP item 5): greedy + simulated
// annealing over intervention-schedule genomes, scored from the engine's
// own compressed traces.
//
// The loop, per iteration i (with its own Xoshiro256(mix64(seed, i)) — the
// per-iteration generator is what makes the search checkpoint/resume exact
// without serializing PRNG state):
//
//   1. mutate the current schedule (add/remove/retarget/shift one op);
//   2. replay it deterministically through run_experiment with a packed
//      trace attached — the PR 4 legality firewall judges the mutant, and
//      an AdversaryViolation REJECTS it outright (never clipped into some
//      weaker legal schedule the search did not actually propose);
//   3. score the trace (advsearch/score.h) and accept by the annealing
//      rule: always uphill, downhill with probability exp(delta / T),
//      T = t0 * alpha^i.
//
// The search is seeded from an analytic strategy: run it once, extract its
// executed interventions as a schedule (score_trace/extract_schedule), and
// verify the extraction reproduces the analytic score exactly. `best`
// starts there, so "discovered >= analytic baseline" holds by construction
// and every later improvement is a real empirical gain over the paper's
// hand-derived attack.
//
// State checkpointing: a key=value file replaced atomically
// (support::publish_file: tmp + fsync + rename) every few iterations, embedding
// the base config via serialize_config; a torn or hand-mangled state file
// is CorruptInputError — exit 5 with a byte offset, like every other
// corrupt input in this codebase.
#pragma once

#include <cstdint>
#include <string>

#include "advsearch/score.h"
#include "adversary/schedule.h"
#include "harness/experiment.h"
#include "support/prng.h"

namespace omx::advsearch {

struct SearchOptions {
  /// Total mutation iterations (a resumed search continues to this count).
  std::uint32_t iterations = 200;
  /// Annealing: initial temperature in Score::scalar units and geometric
  /// cooling factor. The default t0 tolerates one-round regressions early.
  double t0 = 5e11;
  double alpha = 0.95;
  /// Search PRNG seed (independent of the experiment's seed).
  std::uint64_t seed = 1;
  /// Resumable state file; empty = in-memory only.
  std::string state_path;
  /// Directory for candidate traces (one scratch file, overwritten).
  std::string work_dir = "advsearch";
  /// Checkpoint cadence in iterations (when state_path is set).
  std::uint32_t checkpoint_every = 10;
};

struct SearchStats {
  std::uint64_t evaluated = 0;  // candidate replays run
  std::uint64_t rejected = 0;   // killed by the legality firewall
  std::uint64_t accepted = 0;   // became the current schedule
  std::uint64_t improved = 0;   // became the best schedule
};

class Search {
 public:
  /// `base` is the experiment every candidate replays: its attack/schedule
  /// fields are overwritten per candidate, everything else (algo, n, t,
  /// seed, inputs, budget) is the fixed arena the adversary fights in.
  Search(harness::ExperimentConfig base, SearchOptions opts);

  /// Run the analytic `attack` once, extract its executed schedule, verify
  /// the extraction replays to the same score, and install it as both
  /// current and best. The analytic trace is kept as
  /// work_dir/baseline.trace and the extraction replay as
  /// work_dir/seeded.trace (byte-comparable by CI). Throws InvariantError
  /// if the extraction does not reproduce the analytic score.
  void seed_from_attack(harness::Attack attack);

  /// Resume from options().state_path. Returns false if the file does not
  /// exist; throws CorruptInputError (with a byte offset) if it is torn.
  bool load_state();
  /// Atomically persist the search state (support::publish_file).
  void save_state() const;

  /// Iterate from the current iteration to options().iterations,
  /// checkpointing along the way and once at the end.
  void run();

  /// Replay one schedule and score its trace. Returns false — candidate
  /// rejected — iff the legality firewall threw AdversaryViolation.
  /// The trace is left at trace_path(trace_name) for inspection.
  bool evaluate(const adversary::Schedule& s, Score* out,
                const std::string& trace_name = "cand");

  std::string trace_path(const std::string& name) const;

  const harness::ExperimentConfig& base() const { return base_; }
  const SearchOptions& options() const { return opts_; }
  const std::string& baseline_attack() const { return baseline_attack_; }
  const Score& baseline_score() const { return baseline_score_; }
  const adversary::Schedule& best() const { return best_; }
  const Score& best_score() const { return best_score_; }
  const adversary::Schedule& current() const { return current_; }
  const Score& current_score() const { return current_score_; }
  std::uint32_t iter() const { return iter_; }
  const SearchStats& stats() const { return stats_; }

 private:
  adversary::Schedule mutate(Xoshiro256& gen) const;

  harness::ExperimentConfig base_;
  SearchOptions opts_;
  std::string baseline_attack_ = "none";
  Score baseline_score_{};
  adversary::Schedule current_{};
  adversary::Schedule best_{};
  Score current_score_{};
  Score best_score_{};
  std::uint32_t iter_ = 0;
  /// Mutation round horizon: ops land in [0, horizon_). Tracks the longest
  /// run seen (+ slack), so a schedule can always push one round past it.
  std::uint32_t horizon_ = 4;
  SearchStats stats_{};
};

}  // namespace omx::advsearch
