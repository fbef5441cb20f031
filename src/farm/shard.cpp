#include "farm/shard.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "farm/test_hooks.h"
#include "harness/sweep.h"
#include "support/check.h"

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

bool write_all(int fd, const char* p, std::size_t len) {
  while (len > 0) {
    const ssize_t wrote = ::write(fd, p, len);
    if (wrote <= 0) return false;
    p += wrote;
    len -= static_cast<std::size_t>(wrote);
  }
  return true;
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
  std::ifstream in(shard_path, std::ios::binary);
  if (!in) return 0;
  std::string kept;
  std::size_t dropped = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string key;
    harness::TrialOutcome outcome;
    if (harness::parse_checkpoint_line(line, &key, &outcome)) {
      kept += line;
      kept += '\n';
    } else {
      ++dropped;
    }
  }
  in.close();
  if (dropped == 0) return 0;
  const std::string tmp = shard_path + ".repair";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << kept;
    out.flush();
    OMX_CHECK(static_cast<bool>(out), "shard repair: cannot write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, shard_path, ec);
  OMX_CHECK(!ec, "shard repair: cannot publish " + shard_path + ": " +
                     ec.message());
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
  const std::string tmp = out_path + ".tmp";
  {
    // write(2) + fsync rather than ofstream: the merged file is the farm's
    // final product, so its durability must not depend on libc flush
    // timing relative to the rename.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    OMX_CHECK(fd >= 0, "merge: cannot create " + tmp);
    const bool ok =
        write_all(fd, merged.data(), merged.size()) && ::fsync(fd) == 0;
    ::close(fd);
    OMX_CHECK(ok, "merge: cannot write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, out_path, ec);
  OMX_CHECK(!ec, "merge: cannot publish " + out_path + ": " + ec.message());
  return scan;
}

bool append_line_durably(const std::string& path, const std::string& line) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd < 0) return false;
  const std::string data = line + "\n";
  const bool ok = write_all(fd, data.data(), data.size()) && ::fsync(fd) == 0;
  ::close(fd);
  return ok;
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
  if (!append_line_durably(out_path, harness::checkpoint_line(key, outcome))) {
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
