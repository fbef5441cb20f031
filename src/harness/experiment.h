// End-to-end experiment harness: one call = one execution of a consensus
// algorithm against an adversary, with full metrics and a consensus-spec
// verdict (agreement / validity / termination over the *non-faulty* set,
// per §2). Shared by the test suite, the bench binaries and the examples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"
#include "rng/ledger.h"
#include "sim/metrics.h"

namespace omx::sim {
struct EngineStats;
}

namespace omx::harness {

enum class Algo {
  Optimal,   // Algorithm 1 (Theorem 1)
  Param,     // Algorithm 4 (Theorem 3), x super-processes
  FloodSet,  // deterministic baseline / fallback as a standalone protocol
  BenOr,     // crash-model randomized baseline ([10]-style)
};

enum class Attack {
  None,
  StaticCrash,     // scripted staggered crashes of t processes
  RandomOmission,  // random faulty set, i.i.d. link drops (general omission)
  SendOmission,    // ablation: only the faulty senders' messages drop
  SplitBrain,      // faulty processes heard by only half the network
  GroupKiller,     // silence whole √n-groups
  CoinHiding,      // Theorem-2 full-information vote-hiding strategy
  Chaos,           // seeded random walk over all legal adversarial actions
  Schedule,        // explicit op-list replay (adversary/schedule.h) — the
                   // genome representation the omxadv search loop mutates
};

enum class InputPattern {
  AllZero,
  AllOne,
  Half,      // first half 1, second half 0
  Random,    // i.i.d. fair bits (seeded)
  OneDissent,  // all 1 except process 0
  Alternating,  // 0101... — every contiguous group is split 50/50
};

const char* to_string(Algo a);
const char* to_string(Attack a);
const char* to_string(InputPattern p);

/// Inverse of to_string (every enumerator is covered; used by the CLI and
/// the sweep's repro files). Return false on an unknown name.
bool algo_from_string(const std::string& s, Algo* out);
bool attack_from_string(const std::string& s, Attack* out);
bool inputs_from_string(const std::string& s, InputPattern* out);

struct ExperimentConfig {
  Algo algo = Algo::Optimal;
  Attack attack = Attack::None;
  std::uint32_t n = 64;
  std::uint32_t t = 0;
  std::uint32_t x = 1;  // Algorithm 4 only: number of super-processes
  core::Params params = core::Params::practical();
  InputPattern inputs = InputPattern::Random;
  /// When non-empty, overrides `inputs` (must have exactly n bits).
  std::vector<std::uint8_t> explicit_inputs;
  std::uint64_t seed = 1;
  /// Optional cap on total random bits (Theorem 2/3 experiments);
  /// rng::kUnlimited disables.
  std::uint64_t random_bit_budget = rng::kUnlimited;
  /// i.i.d. drop probability for RandomOmission.
  double drop_prob = 0.8;
  /// Attack::Schedule only: the intervention op list in Schedule::parse
  /// text form ("c0.3,s1.3,d2.3.7"). Part of the config hash — two trials
  /// with different schedules are different experiments.
  std::string schedule;
  /// Engine safety cap; 0 = machine schedule + slack.
  std::uint64_t max_rounds = 0;
  /// Cooperative wall-clock watchdog for the whole run, in milliseconds;
  /// 0 = none. Checked by the engine at round boundaries — a stalled trial
  /// ends with ExperimentResult::hit_deadline instead of hanging the sweep.
  std::uint64_t deadline_ms = 0;
  /// Worker lanes for the engine's computation phase: 1 = serial (default),
  /// 0 = one lane per hardware thread, k = exactly k lanes. Results are
  /// bit-identical at every setting.
  unsigned threads = 1;
  /// Optional per-phase engine timing sink (bench_engine); nullptr = off.
  sim::EngineStats* engine_stats = nullptr;
  /// When non-empty, write a binary event trace of the run to this path
  /// (trace/trace.h format; analyze with `omxtrace stats|dump|diff`). The
  /// stream is bit-identical across `threads` settings. Requires tracing to
  /// be compiled in (the default; see OMX_DISABLE_TRACING).
  std::string trace_path;
  /// Write the trace in the packed (compressed-block) storage format — the
  /// same event stream, ~5-25x fewer bytes on disk; every reader handles
  /// both formats transparently. Outcome-neutral, like trace_path.
  bool trace_packed = false;
};

struct ExperimentResult {
  sim::Metrics metrics;
  /// Rounds until the last non-faulty process decided (the paper's "time").
  std::uint64_t time_rounds = 0;
  bool agreement = false;
  bool validity = false;
  bool all_nonfaulty_decided = false;
  bool hit_round_cap = false;
  /// Run was cut short by ExperimentConfig::deadline_ms.
  bool hit_deadline = false;
  std::uint8_t decision = 0;  // decision of non-faulty processes (if any)
  std::uint32_t corrupted = 0;
  std::uint32_t operative_end = 0;  // operative count at the end (0 if n/a)
  /// True iff agreement && validity && all_nonfaulty_decided.
  bool ok() const { return agreement && validity && all_nonfaulty_decided; }
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// Build, through CommGraph::common_for_shared and SqrtPartition::shared_for,
/// every per-n graph and partition that run_experiment(config) will look up.
/// Both memos are inherited by fork(2), so a process that calls this before
/// forking a trial (the farm daemon and the remote worker do) hands the
/// trial its artifacts ready-built. Skips what an invalid config would
/// never reach; run_experiment reports such configs.
void prebuild_shared_artifacts(const ExperimentConfig& config);

/// Build the input vector for a pattern (exposed for tests).
std::vector<std::uint8_t> make_inputs(InputPattern pattern, std::uint32_t n,
                                      std::uint64_t seed);

}  // namespace omx::harness
