// The sweep farm: lease/retry/backoff policy on an injected clock (no
// sleeping), shard scan/repair/merge torn-tail tolerance, and the daemon
// end-to-end — fork-isolated workers, crash and hang chaos via the test
// hooks, resume from shards, and the headline contract that a farm's merged
// output equals a single-process Sweep's checkpoint after canonical sort.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "farm/farm.h"
#include "farm/shard.h"
#include "farm/transport.h"
#include "farm/workqueue.h"
#include "harness/sweep.h"
#include "support/check.h"

namespace omx::farm {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_farm_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A sub-millisecond trial, same as sweep_test's.
harness::ExperimentConfig tiny(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = harness::Attack::None;
  cfg.n = 8;
  cfg.t = 2;
  cfg.seed = seed;
  return cfg;
}

std::vector<std::string> sorted_lines(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Fast, quiet farm defaults for the in-process e2e tests.
FarmOptions fast_opts(const fs::path& dir) {
  FarmOptions o;
  o.dir = dir.string();
  o.workers = 3;
  o.backoff_base_ms = 1;
  o.serve_socket = false;
  o.sweep.capture_repro = false;
  o.sweep.capture_trace = false;
  return o;
}

// ---------------------------------------------------------------------------
// WorkQueue: lease/retry/backoff semantics on an injected clock.

TEST(WorkQueue, LeaseExpiresOnceAndRetriesExactlyPerBudget) {
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.watchdog_ms = 100;
  o.max_attempts = 2;
  o.backoff_base_ms = 10;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));

  const auto idx = q.acquire(/*worker_slot=*/0, /*pid=*/111);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(q.item(*idx).attempts, 1u);
  EXPECT_EQ(q.item(*idx).lease_deadline_ms, 100u);

  now = 99;
  EXPECT_TRUE(q.expired().empty());
  now = 100;
  EXPECT_EQ(q.expired(), std::vector<std::size_t>{*idx});
  // The watchdog fires once per lease: the daemon SIGKILLs once, not in a
  // loop while the zombie is being reaped.
  EXPECT_TRUE(q.expired().empty());

  EXPECT_TRUE(q.fail(*idx));  // re-queued: budget allows a second lease
  EXPECT_EQ(q.count(ItemState::Pending), 1u);
  EXPECT_FALSE(q.acquire(0, 112).has_value());  // backoff gates it
  EXPECT_EQ(q.next_deadline_in(), std::uint64_t{10});

  now = 110;
  const auto again = q.acquire(0, 112);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(q.item(*again).attempts, 2u);
  EXPECT_EQ(q.retries(), 1u);  // re-leased exactly once

  now = 210;
  EXPECT_EQ(q.expired().size(), 1u);
  EXPECT_FALSE(q.fail(*again));  // budget exhausted
  EXPECT_EQ(q.count(ItemState::Failed), 1u);
  EXPECT_TRUE(q.all_settled());
  EXPECT_EQ(q.retries(), 1u);
}

TEST(WorkQueue, BackoffDoublesUpToTheCap) {
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.max_attempts = 5;
  o.backoff_base_ms = 100;
  o.backoff_cap_ms = 300;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));

  std::vector<std::uint64_t> waits;
  for (int round = 0; round < 4; ++round) {
    const auto idx = q.acquire(0, 1);
    ASSERT_TRUE(idx.has_value());
    ASSERT_TRUE(q.fail(*idx));
    waits.push_back(q.item(*idx).eligible_at_ms - now);
    now = q.item(*idx).eligible_at_ms;
  }
  EXPECT_EQ(waits, (std::vector<std::uint64_t>{100, 200, 300, 300}));
}

TEST(WorkQueue, ReportsABackoffThatEndedAfterAcquireSkippedIt) {
  // The daemon asks acquire() for work, then next_deadline_in() how long
  // it may sleep, and each call reads the clock. A backoff that ends
  // between the two reads is in neither answer; has_eligible() reports it.
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.backoff_base_ms = 10;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));
  const auto idx = q.acquire(0, 1);
  ASSERT_TRUE(idx.has_value());
  ASSERT_TRUE(q.fail(*idx));  // eligible again at 10
  EXPECT_FALSE(q.has_eligible());

  now = 9;
  EXPECT_FALSE(q.acquire(0, 2).has_value());  // still backing off
  now = 10;                                   // ... and now not
  EXPECT_EQ(q.next_deadline_in(), std::nullopt);
  EXPECT_TRUE(q.has_eligible());
  EXPECT_TRUE(q.acquire(0, 2).has_value());
  EXPECT_FALSE(q.has_eligible());  // leased, so no longer pending
}

TEST(WorkQueue, HeartbeatsDoNotMoveTheLeaseDeadline) {
  // A remote worker heartbeats its lease; the deadline stays where the
  // grant put it, so a trial that hangs ends at the watchdog like a local
  // fork's would.
  std::uint64_t now = 0;
  WorkQueueOptions o;
  o.watchdog_ms = 100;
  WorkQueue q(o, [&] { return now; });
  ASSERT_TRUE(q.add("k", tiny(1)));
  const auto idx = q.acquire(0, -1);
  ASSERT_TRUE(idx.has_value());
  for (now = 0; now < 100; now += 30) {
    EXPECT_TRUE(q.lease_current(*idx, 1)) << "at " << now << " ms";
    EXPECT_FALSE(q.lease_current(*idx, 2));  // not this lease's epoch
  }
  EXPECT_EQ(q.item(*idx).lease_deadline_ms, 100u);
  now = 100;
  EXPECT_EQ(q.expired(), std::vector<std::size_t>{*idx});
  EXPECT_FALSE(q.lease_current(*idx, 1));  // the holder now hears "stale"
}

TEST(WorkQueue, RejectsDuplicateKeysAndUnknownResumes) {
  WorkQueue q(WorkQueueOptions{}, [] { return std::uint64_t{0}; });
  EXPECT_TRUE(q.add("k", tiny(1)));
  EXPECT_FALSE(q.add("k", tiny(1)));  // the grid must not double-run a cell
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.mark_done("unknown"));
  EXPECT_TRUE(q.mark_done("k"));
  EXPECT_TRUE(q.all_settled());
}

// ---------------------------------------------------------------------------
// Shards: torn-tail tolerance, repair, canonical merge.

std::string line_for(const std::string& key, std::uint64_t seed) {
  harness::TrialOutcome o;
  o.seed_used = seed;
  return harness::checkpoint_line(key, o);
}

TEST(Shards, ScanDropsTornLinesAndCollapsesDuplicates) {
  const fs::path dir = scratch("scan");
  const std::string a = line_for("aaaa", 1);
  const std::string b = line_for("bbbb", 2);
  {
    std::ofstream s0(dir / "worker-0.jsonl", std::ios::binary);
    s0 << a << "\n" << b.substr(0, b.size() / 2);  // torn tail, no newline
    std::ofstream s1(dir / "worker-1.jsonl", std::ios::binary);
    s1 << b << "\n" << a << "\n";  // b complete here; a duplicated
  }
  const ShardScan scan = scan_shards(dir.string());
  EXPECT_EQ(scan.lines.size(), 2u);
  EXPECT_EQ(scan.lines.at("aaaa"), a);
  EXPECT_EQ(scan.lines.at("bbbb"), b);
  EXPECT_EQ(scan.torn_lines, 1u);
  EXPECT_EQ(scan.duplicate_keys, 1u);
}

TEST(Shards, RepairRewritesTheParseablePrefixAtomically) {
  const fs::path dir = scratch("repair");
  const fs::path shard = dir / "worker-0.jsonl";
  const std::string a = line_for("aaaa", 1);
  const std::string b = line_for("bbbb", 2);
  {
    std::ofstream out(shard, std::ios::binary);
    out << a << "\n" << b.substr(0, 20);
  }
  EXPECT_EQ(repair_shard(shard.string()), 1u);
  {
    std::ifstream in(shard, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(os.str(), a + "\n");  // appends now start on a line boundary
  }
  EXPECT_EQ(repair_shard(shard.string()), 0u);            // already clean
  EXPECT_EQ(repair_shard((dir / "absent.jsonl").string()), 0u);
}

TEST(Shards, MergePublishesCanonicalKeyOrder) {
  const fs::path dir = scratch("merge");
  fs::create_directories(dir / "shards");
  const std::string z = line_for("zzzz", 1);
  const std::string a = line_for("aaaa", 2);
  {
    std::ofstream s0(dir / "shards" / "worker-0.jsonl", std::ios::binary);
    s0 << z << "\n";
    std::ofstream s1(dir / "shards" / "worker-1.jsonl", std::ios::binary);
    s1 << a << "\n";
  }
  const fs::path out = dir / "merged.jsonl";
  merge_shards((dir / "shards").string(), out.string());
  std::ifstream in(out, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(os.str(), a + "\n" + z + "\n");
}

// ---------------------------------------------------------------------------
// Farm end-to-end (real fork/reap; trials are sub-millisecond).

/// Open descriptors of this process: a leaked worker pidfd shows up here.
std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       fs::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(Farm, MergedOutputEqualsSingleProcessSweep) {
  const fs::path dir = scratch("e2e");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 6; ++s) sweep.run(tiny(s));
  }

  Farm farm(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 6; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  EXPECT_FALSE(farm.add(tiny(1)));  // duplicate cell rejected
  const FarmReport report = farm.run();

  EXPECT_EQ(report.items, 6u);
  EXPECT_EQ(report.done, 6u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.crashed_workers, 0u);
  EXPECT_EQ(report.exit_codes.at(0), 6u);
  EXPECT_TRUE(report.all_ok());

  // Throughput accounting: every slot ran a worker for part of the run and
  // no slot can have been busy for longer than the run took.
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_GT(report.trials_per_s(), 0.0);
  ASSERT_EQ(report.slot_busy_ms.size(), 3u);
  for (std::size_t slot = 0; slot < report.slot_busy_ms.size(); ++slot) {
    EXPECT_LE(report.slot_busy_ms[slot], report.wall_ms) << "slot " << slot;
    EXPECT_GT(report.utilization(slot), 0.0) << "slot " << slot;
    EXPECT_LE(report.utilization(slot), 1.0) << "slot " << slot;
  }

  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(Farm, ReapsEachWorkerWhenItExits) {
  // One worker runs 40 sub-millisecond trials back to back, so the farm's
  // wall time is almost all dispatch: fork, reap, re-lease. The bound, 15 ms
  // a trial, is below a 20 ms timer tick: a daemon that noticed worker exits
  // on a timer rather than on each worker's pidfd fails it.
  FarmOptions opts = fast_opts(scratch("prompt_reap") / "farm");
  opts.workers = 1;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 40; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  const auto start = std::chrono::steady_clock::now();
  const FarmReport report = farm.run();
  const auto wall = std::chrono::steady_clock::now() - start;

  EXPECT_EQ(report.done, 40u);
  EXPECT_LT(wall, std::chrono::milliseconds(40 * 15))
      << std::chrono::duration_cast<std::chrono::milliseconds>(wall).count()
      << " ms for 40 trials";
}

TEST(Farm, LeavesOtherChildrenAlone) {
  // A child the embedding program forked, already a zombie when the farm
  // runs. The daemon reaps only its own workers, so the program still gets
  // this child's exit status.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(42);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(child), &info,
                     WEXITED | WNOWAIT),
            0);  // a zombie now, still unreaped

  Farm farm(fast_opts(scratch("bystander") / "farm"));
  for (std::uint64_t s = 1; s <= 2; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  EXPECT_TRUE(farm.run().all_ok());

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child) << std::strerror(errno);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 42);
}

TEST(Farm, CrashedWorkerBurnsOnlyItsLeaseAndConvergesByteIdentically) {
  const fs::path dir = scratch("crash");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 4; ++s) sweep.run(tiny(s));
  }

  // First lease of seed 2's item SIGKILLs itself mid-worker; the retry
  // keeps the ORIGINAL seed, so the merged output still matches the
  // single-process reference byte for byte.
  ::setenv("OMX_FARM_TEST_CRASH_KEY", harness::config_key(tiny(2)).c_str(), 1);
  Farm farm(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 4; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  const std::size_t fds_before = open_fd_count();
  const FarmReport report = farm.run();
  ::unsetenv("OMX_FARM_TEST_CRASH_KEY");

  EXPECT_EQ(open_fd_count(), fds_before);  // the crashed worker's pidfd too
  EXPECT_EQ(report.crashed_workers, 1u);
  EXPECT_EQ(report.watchdog_kills, 0u);
  EXPECT_EQ(report.releases, 1u);  // re-leased exactly once
  EXPECT_EQ(report.done, 4u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(Farm, HungWorkerIsWatchdogKilledAndExhaustsToASyntheticOutcome) {
  const fs::path dir = scratch("hang");
  const std::string hang_key = harness::config_key(tiny(2));
  ::setenv("OMX_FARM_TEST_HANG_KEY", hang_key.c_str(), 1);

  FarmOptions opts = fast_opts(dir / "farm");
  opts.watchdog_ms = 150;
  opts.max_attempts = 2;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  const std::size_t fds_before = open_fd_count();
  const FarmReport report = farm.run();
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  EXPECT_EQ(open_fd_count(), fds_before);  // killed workers' pidfds closed
  // Hung on both leases: the watchdog killed each, the budget allowed one
  // re-lease, then the daemon recorded a synthetic outcome.
  EXPECT_EQ(report.watchdog_kills, 2u);
  EXPECT_EQ(report.crashed_workers, 0u);
  EXPECT_EQ(report.releases, 1u);
  EXPECT_EQ(report.done, 2u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.all_ok());

  // Every queued key appears exactly once in the merge — the exhausted one
  // as a timeout-verdict line naming the farm as the cause.
  const auto lines = sorted_lines(report.merged_path);
  ASSERT_EQ(lines.size(), 3u);
  std::size_t hung_seen = 0;
  for (const auto& line : lines) {
    std::string key;
    harness::TrialOutcome out;
    ASSERT_TRUE(harness::parse_checkpoint_line(line, &key, &out)) << line;
    if (key == hang_key) {
      ++hung_seen;
      EXPECT_EQ(out.verdict, harness::Verdict::Timeout);
      EXPECT_EQ(out.attempts, 2u);
      EXPECT_NE(out.error.find("watchdog"), std::string::npos) << out.error;
    } else {
      EXPECT_EQ(out.verdict, harness::Verdict::Ok);
    }
  }
  EXPECT_EQ(hung_seen, 1u);
}

TEST(Farm, DoesNotBlockWhenABackoffEndsBetweenClockReads) {
  // One worker, one item that crashes once, no socket: while the retry
  // backs off, nothing but the backoff deadline can wake the daemon. The
  // clock moves 1 ms per read, so with some backoff from 1 to 6 ms the
  // retry becomes eligible between the pass's acquire() and its
  // next_deadline_in(), and neither reports it. A daemon that then blocked
  // would wait forever; this one throws on "nothing to wake it" instead,
  // and must do neither.
  ::setenv("OMX_FARM_TEST_CRASH_KEY", harness::config_key(tiny(1)).c_str(),
           1);
  for (std::uint64_t backoff = 1; backoff <= 6; ++backoff) {
    FarmOptions opts =
        fast_opts(scratch("backoff_gap_" + std::to_string(backoff)) / "farm");
    opts.workers = 1;
    opts.backoff_base_ms = backoff;
    std::uint64_t now = 0;
    Farm farm(opts, [&now] { return ++now; });
    ASSERT_TRUE(farm.add(tiny(1)));
    FarmReport report;
    EXPECT_NO_THROW(report = farm.run()) << "backoff " << backoff << " ms";
    EXPECT_EQ(report.done, 1u) << "backoff " << backoff << " ms";
    EXPECT_EQ(report.crashed_workers, 1u) << "backoff " << backoff << " ms";
  }
  ::unsetenv("OMX_FARM_TEST_CRASH_KEY");
}

TEST(Farm, ResumesFromShardsAndToleratesTornTails) {
  const fs::path dir = scratch("resume");

  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  ref_opts.capture_repro = false;
  {
    harness::Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 6; ++s) sweep.run(tiny(s));
  }

  // First daemon "dies" after covering half the grid.
  {
    Farm first(fast_opts(dir / "farm"));
    for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(first.add(tiny(s)));
    ASSERT_TRUE(first.run().all_ok());
  }
  // Simulate a worker killed mid-write before the daemon died: torn debris
  // at the tail of a shard.
  {
    std::ofstream shard(dir / "farm" / "shards" / "worker-0.jsonl",
                        std::ios::binary | std::ios::app);
    shard << "{\"key\":\"torn-by-kill-9";
  }

  Farm second(fast_opts(dir / "farm"));
  for (std::uint64_t s = 1; s <= 6; ++s) ASSERT_TRUE(second.add(tiny(s)));
  const FarmReport report = second.run();

  EXPECT_EQ(report.resumed, 3u);  // recorded items did not re-run
  EXPECT_EQ(report.done, 3u);
  EXPECT_GE(report.torn_shard_lines, 1u);  // the debris was repaired away
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(sorted_lines(report.merged_path),
            sorted_lines(dir / "ref.jsonl"));
}

// ---------------------------------------------------------------------------
// <dir>/farm.sock: the framed protocol's clients.

TEST(FarmSocket, QueryWithoutADaemonThrowsPrecondition) {
  const fs::path dir = scratch("no_daemon");
  EXPECT_THROW(Farm::query(Farm::socket_endpoint_for(dir.string()), "status"),
               PreconditionError);
}

TEST(FarmSocket, ServesStatusAndResultsWhileRunning) {
  const fs::path dir = scratch("socket");
  // The daemon child runs one item that hangs forever (no watchdog), so it
  // stays alive to be queried; the parent SIGKILLs it when done — which is
  // itself a daemon-death the farm design must shrug off.
  ::setenv("OMX_FARM_TEST_HANG_KEY", harness::config_key(tiny(1)).c_str(), 1);
  const pid_t daemon_pid = ::fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    FarmOptions opts = fast_opts(dir / "farm");
    opts.serve_socket = true;
    opts.workers = 1;
    Farm farm(opts);
    farm.add(tiny(1));
    farm.run();
    ::_exit(0);
  }
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  const Endpoint socket = Farm::socket_endpoint_for((dir / "farm").string());
  std::string status;
  for (int i = 0; i < 250 && status.find("\"leased\":1") == std::string::npos;
       ++i) {
    try {
      status = Farm::query(socket, "status");
    } catch (const PreconditionError&) {
      // Socket not up yet.
    }
    ::usleep(20 * 1000);
  }
  EXPECT_NE(status.find("\"items\":1"), std::string::npos) << status;
  EXPECT_NE(status.find("\"leased\":1"), std::string::npos) << status;
  // Throughput so far: nothing recorded yet, the one slot busy.
  EXPECT_NE(status.find("\"wall_ms\":"), std::string::npos) << status;
  EXPECT_NE(status.find("\"trials_per_s\":0.00"), std::string::npos)
      << status;
  // EXPECT, not ASSERT: an early return would leave the daemon running.
  const std::string util_key = "\"utilization\":[";
  const auto util_at = status.find(util_key);
  EXPECT_NE(util_at, std::string::npos) << status;
  if (util_at != std::string::npos) {
    const double util =
        std::strtod(status.c_str() + util_at + util_key.size(), nullptr);
    EXPECT_GT(util, 0.0) << status;
    EXPECT_LE(util, 1.0) << status;
  }

  const std::string results = Farm::query(socket, "results");
  EXPECT_EQ(results, "");  // nothing durable yet — the only item hangs

  const std::string bogus = Farm::query(socket, "frobnicate");
  EXPECT_NE(bogus.find("unknown request"), std::string::npos) << bogus;

  ::kill(daemon_pid, SIGKILL);
  int ignored = 0;
  ::waitpid(daemon_pid, &ignored, 0);
}

TEST(FarmSocket, FollowStreamsEveryMergedLineOnceThenEnd) {
  const fs::path dir = scratch("follow");
  // The first lease of seed 2's item hangs until the 300 ms watchdog kills
  // it, which holds the farm open long enough to subscribe; the re-lease
  // then runs clean, so the merge covers every item.
  ::setenv("OMX_FARM_TEST_HANG_KEY",
           (harness::config_key(tiny(2)) + ":once").c_str(), 1);
  const pid_t daemon_pid = ::fork();
  ASSERT_GE(daemon_pid, 0);
  if (daemon_pid == 0) {
    FarmOptions opts = fast_opts(dir / "farm");
    opts.serve_socket = true;
    opts.workers = 2;
    opts.watchdog_ms = 300;
    Farm farm(opts);
    for (std::uint64_t s = 1; s <= 4; ++s) farm.add(tiny(s));
    ::_exit(farm.run().all_ok() ? 0 : 1);
  }
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  const Endpoint socket = Farm::socket_endpoint_for((dir / "farm").string());
  std::vector<std::string> streamed;
  bool ended = false;
  for (int i = 0; i < 250 && !ended; ++i) {
    try {
      ended = Farm::follow(socket, [&](const std::string& line) {
        streamed.push_back(line);
      });
      break;
    } catch (const PreconditionError&) {
      ::usleep(10 * 1000);  // socket not up yet
    }
  }
  int status = 0;
  ASSERT_EQ(::waitpid(daemon_pid, &status, 0), daemon_pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  EXPECT_TRUE(ended) << "the stream must finish with \"end\"";
  // Every line exactly once: the sorted stream is merged.jsonl itself
  // (canonical key order, one line per key).
  std::sort(streamed.begin(), streamed.end());
  const auto merged = sorted_lines(dir / "farm" / "merged.jsonl");
  EXPECT_EQ(merged.size(), 4u);
  EXPECT_EQ(streamed, merged);
}

TEST(FarmSocket, OverlongSocketPathRunsWithoutTheEndpoint) {
  // farm.sock would exceed the AF_UNIX path limit: the farm warns and runs
  // without it instead of failing.
  const fs::path dir = scratch("overlong") / std::string(120, 'd');
  FarmOptions opts = fast_opts(dir);
  opts.serve_socket = true;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 2; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  FarmReport report;
  ASSERT_NO_THROW(report = farm.run());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.done, 2u);
}

TEST(FarmSocket, SocketIsRemovedWhenTheRunEnds) {
  const fs::path dir = scratch("socket_gone");
  FarmOptions opts = fast_opts(dir);
  opts.serve_socket = true;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 2; ++s) ASSERT_TRUE(farm.add(tiny(s)));
  EXPECT_TRUE(farm.run().all_ok());
  EXPECT_FALSE(fs::exists(dir / "farm.sock"));
  EXPECT_THROW(Farm::query(Farm::socket_endpoint_for(dir.string()), "status"),
               PreconditionError);
}

// The clients against a stand-in daemon that answers badly.

/// Serve one client on `listener` from a thread: read its request frame,
/// record the request type, then let `respond` write the answer.
std::thread serve_one(Listener* listener, std::string* request_type,
                      std::function<void(Conn*)> respond) {
  return std::thread([=] {
    const auto conn = listener->accept(5000);
    if (!conn) return;
    std::string payload;
    std::map<std::string, std::string> msg;
    if (conn->recv(&payload, 5000) != RecvStatus::Ok ||
        !wire::decode(payload, &msg)) {
      return;
    }
    *request_type = wire::get(msg, "type");
    respond(conn.get());
  });
}

void send_raw(Conn* conn, const std::string& bytes) {
  ASSERT_EQ(::send(conn->fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

TEST(FarmSocket, QueryThrowsCorruptInputAtTheBadFramesOffset) {
  // A frame that is not a protocol message is skipped; the bad frame after
  // it is reported at its own first byte (16-byte header + payload on).
  const fs::path dir = scratch("corrupt_answer");
  Listener listener(Farm::socket_endpoint_for(dir.string()));
  const std::string skipped = "not a message";
  std::string request;
  std::thread daemon = serve_one(&listener, &request, [&](Conn* conn) {
    ASSERT_TRUE(conn->send(skipped));
    send_raw(conn, "XXXXGARBAGEGARBAGE");
  });
  std::optional<CorruptInputError> error;
  try {
    Farm::query(listener.endpoint(), "status");
  } catch (const CorruptInputError& e) {
    error = e;
  }
  daemon.join();
  EXPECT_EQ(request, "status");
  ASSERT_TRUE(error.has_value()) << "a corrupt frame must throw";
  EXPECT_EQ(error->byte_offset(), 16 + skipped.size());
  EXPECT_EQ(error->path(), listener.endpoint().to_string());
}

TEST(FarmSocket, QueryAnsweredByAHangUpThrowsPrecondition) {
  const fs::path dir = scratch("hangup_answer");
  Listener listener(Farm::socket_endpoint_for(dir.string()));
  std::string request;
  std::thread daemon = serve_one(&listener, &request, [](Conn* conn) {
    conn->close();
  });
  std::string what;
  bool corrupt = false;
  try {
    Farm::query(listener.endpoint(), "results");
  } catch (const CorruptInputError&) {
    corrupt = true;
  } catch (const PreconditionError& e) {
    what = e.what();
  }
  daemon.join();
  EXPECT_EQ(request, "results");
  EXPECT_FALSE(corrupt) << "a hang-up is a missing answer, not bad bytes";
  EXPECT_NE(what.find("no answer"), std::string::npos) << what;
}

TEST(FarmSocket, FollowReturnsFalseWhenTheDaemonHangsUpBeforeEnd) {
  const fs::path dir = scratch("hangup_follow");
  Listener listener(Farm::socket_endpoint_for(dir.string()));
  std::string request;
  std::thread daemon = serve_one(&listener, &request, [](Conn* conn) {
    ASSERT_TRUE(conn->send(wire::encode({{"type", "ok"}, {"rid", "1"}})));
    ASSERT_TRUE(conn->send(wire::encode({{"type", "line"}, {"line", "L1"}})));
    conn->close();
  });
  std::vector<std::string> lines;
  const bool ended = Farm::follow(
      listener.endpoint(),
      [&](const std::string& line) { lines.push_back(line); });
  daemon.join();
  EXPECT_EQ(request, "follow");
  EXPECT_FALSE(ended) << "only the daemon's \"end\" finishes a stream";
  EXPECT_EQ(lines, std::vector<std::string>{"L1"});
}

}  // namespace
}  // namespace omx::farm
