// Per-worker JSONL result shards and the canonical merge.
//
// Every farm worker appends finished-trial lines (harness::checkpoint_line
// format — the same record a single-process Sweep checkpoints) to its own
// shard file `<shards>/worker-<slot>.jsonl`, one durable append per line
// (support/durable_file.h), then exits. The daemon appends only to its own
// log, `<shards>/daemon.jsonl` (remote workers' results and synthetic
// outcomes), and never writes a worker's shard; the only multi-writer file
// in the farm is therefore *no* file, which is most of the crash-safety
// argument:
//
//   * a SIGKILL'd worker leaves at most one torn final line in its own
//     shard — scan_shards() drops it (the item's lease burns and it
//     re-runs), and repair_shard() rewrites the file to its parseable
//     prefix before the slot is reused, so later appends cannot
//     concatenate onto the debris;
//   * a SIGKILL'd daemon loses nothing: every completed trial is already a
//     durable shard line, and a restarted daemon rebuilds its done-set by
//     rescanning the shards — resume is byte-identical because the lines
//     are, and the deterministic engine re-produces any line that was
//     mid-write at kill time;
//   * merge_shards() publishes `merged.jsonl` — all lines, deduplicated by
//     config-hash key and sorted canonically (by key), through the atomic
//     publish (temp + fsync + rename). Duplicates can only arise from a
//     worker killed between its write and its exit; the engine being
//     deterministic, such lines are identical, and the merge keeps the
//     lexicographically smallest so even a pathological divergence merges
//     deterministically.
//
// The writer side lives here too: run_trial_process() is the whole body of
// a forked trial, the daemon's local workers and the remote worker's trial
// forks alike. It appends the trial's line to a worker shard or, in a
// remote worker, straight into that worker's spool.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/sweep.h"

namespace omx::farm {

struct ShardScan {
  /// key → full JSONL line, deduplicated, in canonical (key) order.
  std::map<std::string, std::string> lines;
  std::size_t torn_lines = 0;       // unparseable lines dropped
  std::size_t duplicate_keys = 0;   // extra occurrences collapsed
};

/// Parse every `*.jsonl` file under `shard_dir` (missing dir = empty scan).
ShardScan scan_shards(const std::string& shard_dir);

/// Rewrite one shard file keeping only its parseable lines
/// (support::repair_lines). No-op if the file is missing or already clean.
/// Returns the number of lines dropped.
std::size_t repair_shard(const std::string& shard_path);

/// Merge all shards into `out_path` (canonical order, deduplicated,
/// published atomically). Throws InvariantError on I/O failure — a merge
/// that silently vanished would void the farm's contract.
ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path);

/// The body of a forked trial process: run the test hooks (test_hooks.h)
/// for (`key`, `attempt`), run `cfg` on one lane through a Sweep shell with
/// `options`, append its checkpoint line to `out_path` durably, and _exit
/// with the worker exit-code protocol: 0 = recorded ok/round_cap/timeout,
/// 2/3/4 = recorded model violation (the sweep's verdict taxonomy), 6 = the
/// line could not be made durable.
[[noreturn]] void run_trial_process(const harness::SweepOptions& options,
                                    const std::string& key,
                                    std::uint32_t attempt,
                                    harness::ExperimentConfig cfg,
                                    const std::string& out_path);

/// True iff a trial process that exited with `code` recorded its line
/// (codes 0, 2, 3, 4 above); anything else, a signal included, is a crash.
bool is_recorded_exit(int code);

}  // namespace omx::farm
