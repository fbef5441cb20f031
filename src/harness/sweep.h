// Crash-safe sweep runner: the harness layer every multi-trial driver
// (bench binaries, omxsim) pushes its trials through.
//
// A sweep of thousands of trials must survive the failure of any one of
// them. run() therefore never lets a trial kill the process: each trial is
// executed in a fault-isolation shell that converts engine exceptions into
// a per-trial Verdict (ok / round_cap / timeout / precondition / invariant
// / adversary_violation) carried in the TrialOutcome, and the sweep moves
// on. On top of that shell sit four robustness mechanisms:
//
//   * watchdog deadlines — SweepOptions::trial_deadline_ms is forwarded to
//     the engine's cooperative round-boundary watchdog, so a stalled
//     protocol degrades into a recorded `timeout` verdict;
//   * JSONL checkpointing — every finished trial appends one line, keyed
//     by its config hash, to a checkpoint file (support/durable_file.h:
//     one write + fsync, never a rewrite), so `kill -9` loses at most the
//     in-flight trial and its torn line; a restarted sweep drops that
//     line before its first append and replays recorded trials from the
//     file instead of re-running them, byte-identically for deterministic
//     (serially driven) sweeps;
//   * seed retries — transient verdicts (timeout, round_cap) re-run up to
//     SweepOptions::max_attempts times with deterministically perturbed
//     seeds, the attempt count recorded in the outcome;
//   * repro capture — a trial that violates a model invariant
//     (OMX_CHECK / AdversaryViolation / budget overdraft) serializes its
//     ExperimentConfig, minus the sweep's own trace_path, to
//     `<repro_dir>/<hash>.repro`; `omxsim --repro
//     <file>` replays exactly that trial, outside the isolation shell, so
//     the original exception surfaces with its class-specific exit code.
//
// Sweep::run is thread-safe (bench drivers fan trials out with
// expsup::parallel_map); the trial itself runs outside the lock. Note that
// with concurrent callers the checkpoint's line *order* follows completion
// order — resume stays correct (lookup is by config hash), but the
// byte-identity guarantee is for serially driven sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "harness/experiment.h"

namespace omx::harness {

/// How a trial ended. Everything except Ok and RoundCap means the trial's
/// metrics are partial or absent; everything from Precondition on down
/// means the *model* was violated and a repro file is warranted.
enum class Verdict {
  Ok,                  // ran to completion (spec verdict may still be NO)
  RoundCap,            // hit the engine's max_rounds safety cap
  Timeout,             // hit the cooperative wall-clock deadline
  Precondition,        // PreconditionError: the config itself is invalid
  Invariant,           // InvariantError / rng overdraft / unexpected error
  AdversaryViolation,  // an adversary stepped outside the omission model
};

const char* to_string(Verdict v);

/// One trial's result under fault isolation.
struct TrialOutcome {
  Verdict verdict = Verdict::Ok;
  /// Valid when verdict is Ok / RoundCap / Timeout; default otherwise.
  ExperimentResult result{};
  /// what() of the exception behind a failure verdict (empty otherwise).
  std::string error;
  /// Attempts consumed (> 1 iff transient verdicts were retried).
  std::uint32_t attempts = 1;
  /// Seed of the recorded attempt (perturbed on retries).
  std::uint64_t seed_used = 0;
  /// Path of the captured repro file (empty if none was written).
  std::string repro_path;
  /// Path of the event trace captured alongside the repro (empty if none):
  /// the failing trial re-run deterministically with tracing on, so the
  /// exact event history up to the violation ships with the config. Not
  /// persisted in the checkpoint (its line format predates tracing and
  /// resume must stay byte-identical); a resumed outcome leaves it empty.
  std::string trace_path;
  /// True iff this outcome was replayed from the checkpoint, not re-run.
  bool from_checkpoint = false;

  /// Trial ran to completion and satisfied the consensus spec.
  bool ok() const { return verdict == Verdict::Ok && result.ok(); }
};

struct SweepOptions {
  /// JSONL checkpoint file; empty = checkpointing off.
  std::string checkpoint_path;
  /// Directory for .repro files captured from model-violation verdicts.
  std::string repro_dir = "repro";
  /// Per-trial cooperative deadline (ms); 0 = none. Overrides the trial
  /// config's own deadline_ms when nonzero.
  std::uint64_t trial_deadline_ms = 0;
  /// Total attempts per trial (1 = no retries). Only transient verdicts
  /// (timeout, round_cap) are retried, with perturbed seeds.
  std::uint32_t max_attempts = 1;
  /// Capture .repro files for model-violation verdicts.
  bool capture_repro = true;
  /// Alongside each .repro, re-run the failing trial deterministically with
  /// tracing on and capture `<repro_dir>/<hash>.trace` (the hot path never
  /// pays for tracing — only failures do). No-op when capture_repro is off.
  bool capture_trace = true;

  /// Environment-driven defaults, so existing bench binaries gain
  /// checkpointing and watchdogs without new flags: OMX_SWEEP_CHECKPOINT,
  /// OMX_SWEEP_REPRO_DIR, OMX_SWEEP_DEADLINE_MS, OMX_SWEEP_RETRIES (extra
  /// attempts beyond the first), OMX_SWEEP_NO_REPRO, OMX_SWEEP_NO_TRACE.
  static SweepOptions from_env();
};

/// Canonical key=value serialization of a config — the .repro file format,
/// and the preimage of config_hash(). Round-trips through parse_config().
std::string serialize_config(const ExperimentConfig& cfg);

/// Parse serialize_config output ('#'-comment and blank lines ignored).
/// On failure returns false, sets *error, and (when error_offset is
/// non-null) the byte offset within `text` of the first bad line — CLI
/// loaders report it so a truncated or hand-mangled file names the exact
/// spot that went wrong.
bool parse_config(const std::string& text, ExperimentConfig* out,
                  std::string* error, std::size_t* error_offset = nullptr);

/// FNV-1a over the canonical serialization, with fields that cannot change
/// the trial's outcome (worker-lane count) canonicalized away.
std::uint64_t config_hash(const ExperimentConfig& cfg);

/// config_hash as 16 hex digits — checkpoint key and repro file stem.
std::string config_key(const ExperimentConfig& cfg);

/// One checkpoint/shard line for an outcome: the JSONL record format shared
/// by Sweep's checkpoint file and the farm's per-worker shards, so a farm's
/// merged results are line-for-line comparable with a single-process
/// sweep's checkpoint. No trailing newline.
std::string checkpoint_line(const std::string& key, const TrialOutcome& o);

/// JSON string-body escaping for every JSON text the program emits (the
/// checkpoint line's strings, the farm's wire and status messages): `"`,
/// `\`, `\n`, `\r`, `\t` by name, other bytes below 0x20 as `\u00XX`,
/// everything else raw.
std::string json_escape(const std::string& s);

/// Read one flat JSON object {"k":v,...} into *out: string values
/// unescaped (json_escape's escapes, plus `\/`), number and bool values as
/// their text. These objects are machine-written (checkpoint lines, wire
/// frames), so any deviation (e.g. a line torn by kill -9) returns false.
bool parse_flat_json(const std::string& line,
                     std::map<std::string, std::string>* out);

/// Inverse of checkpoint_line. Returns false on any deviation (e.g. a line
/// torn by kill -9); on success sets *key and *out (with from_checkpoint).
bool parse_checkpoint_line(const std::string& line, std::string* key,
                           TrialOutcome* out);

class Sweep {
 public:
  /// Options from the environment (SweepOptions::from_env).
  Sweep();
  explicit Sweep(SweepOptions options);

  /// Run one trial under fault isolation. Never throws for trial failures
  /// (only for checkpoint-file I/O errors, which would silently void the
  /// crash-safety guarantee if ignored).
  TrialOutcome run(ExperimentConfig cfg);

  std::uint64_t trials() const;
  /// Trials whose verdict was not Ok.
  std::uint64_t failures() const;
  /// Trials replayed from the checkpoint.
  std::uint64_t resumed() const;
  std::map<Verdict, std::uint64_t> verdict_counts() const;

  /// One-line account of the sweep ("120 trials: 118 ok, 2 timeout; ...").
  std::string summary() const;
  /// Print the summary iff anything nontrivial happened (a failure, a
  /// retry, a resume) — quiet sweeps stay quiet.
  void print_summary(std::ostream& os) const;

 private:
  bool checkpointing() const { return !options_.checkpoint_path.empty(); }
  void load_checkpoint();
  void record(const std::string& key, const TrialOutcome& outcome);
  TrialOutcome run_isolated(const ExperimentConfig& cfg) const;
  std::string capture_repro(const ExperimentConfig& cfg,
                            const TrialOutcome& outcome,
                            std::string* trace_path) const;

  SweepOptions options_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, TrialOutcome> recorded_;
  std::uint64_t trials_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t retried_ = 0;
  std::map<Verdict, std::uint64_t> counts_;
};

/// Top-level shell for every driver binary: runs `body` and converts an
/// escaped engine exception into a message on stderr plus the documented
/// exit code — precondition=2, invariant (incl. rng overdraft and any
/// other unexpected exception)=3, adversary violation=4, corrupt/unreadable
/// input file (CorruptInputError, which names the file and the byte offset
/// of the first bad record)=5 — instead of std::terminate.
int guarded_main(const std::function<int()>& body);

}  // namespace omx::harness
