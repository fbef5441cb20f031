#include "farm/shard.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "farm/test_hooks.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "support/durable_file.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// Feed every line of one shard into the scan.
void scan_file(const fs::path& path, ShardScan* scan) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    std::string key;
    harness::TrialOutcome outcome;
    if (!harness::parse_checkpoint_line(line, &key, &outcome)) {
      ++scan->torn_lines;
      continue;
    }
    const auto [it, inserted] = scan->lines.emplace(key, line);
    if (!inserted) {
      ++scan->duplicate_keys;
      // Deterministic winner (duplicates are identical for a deterministic
      // engine; smallest-line keeps the merge canonical even if not).
      if (line < it->second) it->second = line;
    }
  }
}

bool is_shard(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == ".jsonl";
}

bool is_checkpoint_line(const std::string& line) {
  std::string key;
  harness::TrialOutcome outcome;
  return harness::parse_checkpoint_line(line, &key, &outcome);
}

int exit_code_for_verdict(harness::Verdict v) {
  switch (v) {
    case harness::Verdict::Ok:
    case harness::Verdict::RoundCap:
    case harness::Verdict::Timeout:
      return 0;  // recorded, possibly imperfect — but the line is durable
    case harness::Verdict::Precondition:
      return 2;
    case harness::Verdict::Invariant:
      return 3;
    case harness::Verdict::AdversaryViolation:
      return 4;
  }
  return 3;
}

}  // namespace

ShardScan scan_shards(const std::string& shard_dir) {
  ShardScan scan;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir, ec)) {
    if (is_shard(entry)) scan_file(entry.path(), &scan);
  }
  return scan;
}

std::size_t repair_shard(const std::string& shard_path) {
  std::size_t dropped = 0;
  OMX_CHECK(support::repair_lines(shard_path, is_checkpoint_line, &dropped),
            "shard repair: cannot publish " + shard_path);
  if (dropped == 0) return 0;
  std::fprintf(stderr,
               "farm: shard %s: dropped %zu torn line(s) left by a killed "
               "worker — the affected trial(s) re-run\n",
               shard_path.c_str(), dropped);
  return dropped;
}

ShardScan merge_shards(const std::string& shard_dir,
                       const std::string& out_path) {
  ShardScan scan = scan_shards(shard_dir);
  std::string merged;
  for (const auto& [key, line] : scan.lines) {
    merged += line;
    merged += '\n';
  }
  OMX_CHECK(support::publish_file(out_path, merged),
            "merge: cannot publish " + out_path);
  return scan;
}

[[noreturn]] void run_trial_process(const harness::SweepOptions& options,
                                    const std::string& key,
                                    std::uint32_t attempt,
                                    harness::ExperimentConfig cfg,
                                    const std::string& out_path) {
  // Keep the fork narrow: run the trial, make its line durable, exit with
  // the verdict-taxonomy code. _exit (not exit): the parent's atexit state
  // is not ours to run.
  maybe_run_trial_chaos_hooks(key, attempt);
  harness::Sweep sweep(options);
  // Farm parallelism is process-level, and the engine is bit-identical at
  // every lane count anyway.
  cfg.threads = 1;
  const harness::TrialOutcome outcome = sweep.run(cfg);
  if (!support::append_line_durably(out_path,
                                    harness::checkpoint_line(key, outcome))) {
    std::fprintf(stderr, "farm trial: cannot append to %s\n",
                 out_path.c_str());
    ::_exit(6);  // undurable result: the lease holder re-runs the item
  }
  ::_exit(exit_code_for_verdict(outcome.verdict));
}

bool is_recorded_exit(int code) {
  return code == 0 || code == 2 || code == 3 || code == 4;
}

}  // namespace omx::farm
