// The farm's remote-worker protocol: lease/heartbeat/result semantics
// driven directly through Farm::handle_request (no sockets), then the real
// thing end-to-end — forked `RemoteWorker` processes over TCP and AF_UNIX,
// crash-after-write resubmission, and a chaos link — all converging to a
// merged file byte-identical to a single-process sweep.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "farm/farm.h"
#include "farm/remote_worker.h"
#include "farm/shard.h"
#include "farm/transport.h"
#include "harness/sweep.h"
#include "support/check.h"

namespace omx::farm {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_remote_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

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

void write_reference(const fs::path& path, std::uint64_t seeds) {
  harness::SweepOptions ref_opts;
  ref_opts.checkpoint_path = path.string();
  ref_opts.capture_repro = false;
  ref_opts.capture_trace = false;
  harness::Sweep sweep(ref_opts);
  for (std::uint64_t s = 1; s <= seeds; ++s) sweep.run(tiny(s));
}

FarmOptions remote_only_opts(const fs::path& dir) {
  FarmOptions o;
  o.dir = dir.string();
  o.workers = 0;  // every trial must cross the wire
  o.listen = "tcp:127.0.0.1:0";
  o.backoff_base_ms = 1;
  o.serve_socket = false;
  o.sweep.capture_repro = false;
  o.sweep.capture_trace = false;
  return o;
}

// ---------------------------------------------------------------------------
// Protocol unit tests: one decoded request in, one response out.

/// Send one request through handle_request and decode the reply.
std::map<std::string, std::string> ask(
    Farm* farm, Farm::RemotePeer* peer,
    std::vector<std::pair<std::string, std::string>> fields) {
  static std::uint64_t rid = 100;
  fields.insert(fields.begin() + 1, {"rid", std::to_string(++rid)});
  std::map<std::string, std::string> request;
  EXPECT_TRUE(wire::decode(wire::encode(fields), &request));
  std::map<std::string, std::string> response;
  EXPECT_TRUE(wire::decode(farm->handle_request(request, peer), &response));
  // Every response echoes the request's rid — the worker's only defense
  // against duplicated/delayed responses desynchronizing its RPC stream.
  EXPECT_EQ(wire::get(response, "rid"), std::to_string(rid));
  return response;
}

std::string line_for(const std::string& key) {
  harness::TrialOutcome outcome;
  outcome.seed_used = 7;
  return harness::checkpoint_line(key, outcome);
}

TEST(RemoteProtocol, LeaseLifecycleFromHelloToDone) {
  const fs::path dir = scratch("lifecycle");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;  // construct without a live listener
  opts.listen.clear();
  Farm farm(opts);
  const std::string key = harness::config_key(tiny(1));
  ASSERT_TRUE(farm.add(tiny(1)));

  Farm::RemotePeer peer;
  auto r = ask(&farm, &peer, {{"type", "hello"}, {"name", "w0"}});
  EXPECT_EQ(wire::get(r, "type"), "helloed");
  EXPECT_EQ(wire::get(r, "heartbeat_ms"), "1000");  // no watchdog → default
  EXPECT_EQ(peer.name, "w0");

  r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");
  EXPECT_EQ(wire::get(r, "key"), key);
  EXPECT_EQ(wire::get(r, "epoch"), "1");  // first lease = first attempt
  harness::ExperimentConfig leased;
  std::string error;
  ASSERT_TRUE(harness::parse_config(wire::get(r, "config"), &leased, &error))
      << error;
  EXPECT_EQ(harness::config_key(leased), key);  // config survives the wire

  // The only item is leased: another hungry worker polls.
  r = ask(&farm, &peer, {{"type", "next"}});
  EXPECT_EQ(wire::get(r, "type"), "idle");
  EXPECT_NE(wire::get(r, "poll_ms"), "");

  // Heartbeats renew only the current epoch.
  r = ask(&farm, &peer, {{"type", "heartbeat"}, {"key", key}, {"epoch", "1"}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  r = ask(&farm, &peer, {{"type", "heartbeat"}, {"key", key}, {"epoch", "2"}});
  EXPECT_EQ(wire::get(r, "type"), "stale");

  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", line_for(key)}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  EXPECT_NE(farm.status_json().find("\"remote_results\":1"),
            std::string::npos);

  // Idempotent resubmission: same key again is acked and dropped, so no
  // config hash can ever yield two merged rows.
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", line_for(key)}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  EXPECT_NE(farm.status_json().find("\"duplicate_results\":1"),
            std::string::npos);

  // Grid settled: the next ask ends the worker's run loop.
  r = ask(&farm, &peer, {{"type", "next"}});
  EXPECT_EQ(wire::get(r, "type"), "done");
}

TEST(RemoteProtocol, FailReportsAreEpochGatedAndReQueue) {
  const fs::path dir = scratch("epochs");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;
  opts.listen.clear();
  Farm farm(opts);
  const std::string key = harness::config_key(tiny(1));
  ASSERT_TRUE(farm.add(tiny(1)));
  Farm::RemotePeer peer;

  auto r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");

  // A delayed failure report from a previous life must be inert.
  r = ask(&farm, &peer, {{"type", "fail"}, {"key", key}, {"epoch", "9"}});
  EXPECT_EQ(wire::get(r, "type"), "stale");
  // The current epoch's report burns the lease and re-queues the item.
  r = ask(&farm, &peer, {{"type", "fail"}, {"key", key}, {"epoch", "1"}});
  EXPECT_EQ(wire::get(r, "type"), "ok");

  ::usleep(5 * 1000);  // past the 1 ms retry backoff
  r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");
  EXPECT_EQ(wire::get(r, "epoch"), "2") << "re-lease bumps the epoch";

  // Stale results for a *settled* item are different: after the retry
  // budget is spent the daemon records a synthetic row, and a late real
  // result must not create a second line for the key.
  r = ask(&farm, &peer, {{"type", "fail"}, {"key", key}, {"epoch", "2"}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  ::usleep(5 * 1000);  // past the doubled backoff
  r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");
  r = ask(&farm, &peer, {{"type", "fail"}, {"key", key}, {"epoch", "3"}});
  EXPECT_EQ(wire::get(r, "type"), "ok");  // budget (3) now exhausted
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "3"},
           {"line", line_for(key)}});
  EXPECT_EQ(wire::get(r, "type"), "ok");  // acked (clears the spool)...
  EXPECT_EQ(farm.status_json().find("\"remote_results\":1"),
            std::string::npos)
      << "...but dropped: the synthetic row already settled this key";
}

TEST(RemoteProtocol, BadResultLinesAreRejectedUnknownKeysAcked) {
  const fs::path dir = scratch("reject");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;
  opts.listen.clear();
  Farm farm(opts);
  const std::string key = harness::config_key(tiny(1));
  ASSERT_TRUE(farm.add(tiny(1)));
  Farm::RemotePeer peer;
  auto r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");

  // The frame checksum passed, so these bytes arrived intact — a line that
  // does not parse or names another key is the worker's bug, and "retry"
  // would loop forever. Reject.
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", "not a checkpoint line"}});
  EXPECT_EQ(wire::get(r, "type"), "reject");
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", line_for("0123456789abcdef")}});
  EXPECT_EQ(wire::get(r, "type"), "reject");

  // A key outside this grid (worker outliving a daemon restart with a
  // narrower grid): ack so the worker clears its spool, record nothing.
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", "feedfeedfeedfeed"}, {"epoch", "0"},
           {"line", line_for("feedfeedfeedfeed")}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  EXPECT_EQ(scan_shards((dir / "shards").string()).lines.count(
                "feedfeedfeedfeed"),
            0u)
      << "an unknown key must never grow the merge";

  // The real item is still leasable and unharmed.
  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", line_for(key)}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
}

TEST(RemoteProtocol, ResultMessagesCarryArtifactPointers) {
  const fs::path dir = scratch("artifacts");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;
  opts.listen.clear();
  Farm farm(opts);
  const std::string key = harness::config_key(tiny(1));
  ASSERT_TRUE(farm.add(tiny(1)));
  Farm::RemotePeer peer;
  auto r = ask(&farm, &peer, {{"type", "next"}});
  ASSERT_EQ(wire::get(r, "type"), "lease");

  r = ask(&farm, &peer,
          {{"type", "result"}, {"key", key}, {"epoch", "1"},
           {"line", line_for(key)},
           {"repro", "/w0/repro/" + key + ".repro"},
           {"trace", "/w0/repro/" + key + ".trace"},
           {"worker", "w0"}});
  ASSERT_EQ(wire::get(r, "type"), "ok");

  r = ask(&farm, &peer, {{"type", "artifacts"}});
  const std::string json = wire::get(r, "json");
  EXPECT_NE(json.find("\"" + key + "\""), std::string::npos) << json;
  EXPECT_NE(json.find("/w0/repro/" + key + ".repro"), std::string::npos);
  EXPECT_NE(json.find("\"worker\":\"w0\""), std::string::npos);
}

TEST(RemoteProtocol, ArtifactsIndexEscapesControlBytesInWorkerNames) {
  // Worker names are free text from the wire; the index must stay valid
  // JSON whatever bytes they hold.
  const fs::path dir = scratch("artifacts_escape");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;
  opts.listen.clear();
  Farm farm(opts);
  const std::string key = harness::config_key(tiny(1));
  ASSERT_TRUE(farm.add(tiny(1)));
  Farm::RemotePeer peer;
  ASSERT_EQ(wire::get(ask(&farm, &peer, {{"type", "next"}}), "type"), "lease");
  ASSERT_EQ(wire::get(ask(&farm, &peer,
                          {{"type", "result"}, {"key", key}, {"epoch", "1"},
                           {"line", line_for(key)},
                           {"repro", "/w/" + key + ".repro"},
                           {"worker", "tab\there\x01\"q\\"}}),
                      "type"),
            "ok");
  const std::string json =
      wire::get(ask(&farm, &peer, {{"type", "artifacts"}}), "json");
  EXPECT_NE(json.find("\"worker\":\"tab\\there\\u0001\\\"q\\\\\""),
            std::string::npos)
      << json;
  for (const char c : json) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
  }
}

TEST(RemoteProtocol, StatusResultsFollowAndUnknownVerbs) {
  const fs::path dir = scratch("verbs");
  FarmOptions opts = remote_only_opts(dir);
  opts.workers = 1;
  opts.listen.clear();
  Farm farm(opts);
  ASSERT_TRUE(farm.add(tiny(1)));
  Farm::RemotePeer peer;

  auto r = ask(&farm, &peer, {{"type", "status"}});
  EXPECT_NE(wire::get(r, "json").find("\"items\":1"), std::string::npos);

  r = ask(&farm, &peer, {{"type", "results"}});
  EXPECT_EQ(wire::get(r, "lines"), "");  // nothing durable yet

  EXPECT_FALSE(peer.follow);
  r = ask(&farm, &peer, {{"type", "follow"}});
  EXPECT_EQ(wire::get(r, "type"), "ok");
  EXPECT_TRUE(peer.follow);

  r = ask(&farm, &peer, {{"type", "frobnicate"}});
  EXPECT_EQ(wire::get(r, "type"), "error");
  EXPECT_NE(wire::get(r, "detail").find("unknown"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: real daemons, real forked RemoteWorker processes.

/// Poll for the daemon's published endpoint file (port 0 resolution).
std::string wait_for_endpoint(const std::string& farm_dir) {
  const std::string path = Farm::endpoint_path_for(farm_dir);
  for (int i = 0; i < 500; ++i) {
    std::ifstream in(path);
    std::string endpoint;
    if (std::getline(in, endpoint) && !endpoint.empty()) return endpoint;
    ::usleep(10 * 1000);
  }
  return "";
}

/// Fork a RemoteWorker process against `farm_dir`'s published endpoint.
/// Exits 0 when the daemon finished the grid, 1 when it gave up.
pid_t spawn_worker(const std::string& farm_dir, const fs::path& worker_dir,
                   const std::string& name, const std::string& chaos = "",
                   const char* crash_after_write_key = nullptr) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (crash_after_write_key != nullptr) {
    ::setenv("OMX_FARM_TEST_CRASH_AFTER_WRITE_KEY", crash_after_write_key, 1);
  }
  RemoteWorkerOptions opts;
  opts.endpoint = wait_for_endpoint(farm_dir);
  if (opts.endpoint.empty()) ::_exit(3);
  opts.dir = worker_dir.string();
  opts.name = name;
  opts.chaos = chaos;
  opts.backoff_base_ms = 5;
  opts.reconnect_deadline_ms = 20000;
  opts.sweep.capture_repro = false;
  opts.sweep.capture_trace = false;
  try {
    RemoteWorker worker(opts);
    ::_exit(worker.run().daemon_finished ? 0 : 1);
  } catch (const std::exception&) {
    ::_exit(2);
  }
}

int wait_exit(pid_t pid) {
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

TEST(RemoteFarm, TcpWorkersMatchSingleProcessSweep) {
  const fs::path dir = scratch("tcp_e2e");
  write_reference(dir / "ref.jsonl", 6);

  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.watchdog_ms = 5000;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 6; ++s) ASSERT_TRUE(farm.add(tiny(s)));

  const pid_t w0 = spawn_worker(opts.dir, dir / "w0", "w0");
  const pid_t w1 = spawn_worker(opts.dir, dir / "w1", "w1");
  const FarmReport report = farm.run();

  EXPECT_EQ(wait_exit(w0), 0);
  EXPECT_EQ(wait_exit(w1), 0);
  EXPECT_EQ(report.done, 6u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.remote_results, 6u);  // workers=0: all crossed the wire
  EXPECT_GE(report.remote_workers_seen, 2u);
  EXPECT_EQ(report.corrupt_frames, 0u);
  EXPECT_EQ(sorted_lines(report.merged_path), sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, FinishedWorkerLeavesAnEmptySpoolAndNoOutbox) {
  // The trial fork writes its line straight into the spool and the worker
  // empties it once the daemon acks: a clean run leaves nothing to
  // resubmit, and there is no second per-trial file.
  const fs::path dir = scratch("spool_empty");
  write_reference(dir / "ref.jsonl", 3);
  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.listen = "unix:" + (dir / "workers.sock").string();
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(farm.add(tiny(s)));

  const pid_t w0 = spawn_worker(opts.dir, dir / "w0", "w0");
  const FarmReport report = farm.run();

  EXPECT_EQ(wait_exit(w0), 0);
  EXPECT_EQ(report.remote_results, 3u);
  EXPECT_EQ(sorted_lines(report.merged_path), sorted_lines(dir / "ref.jsonl"));
  ASSERT_TRUE(fs::exists(dir / "w0" / "pending.jsonl"));
  EXPECT_EQ(fs::file_size(dir / "w0" / "pending.jsonl"), 0u);
  EXPECT_FALSE(fs::exists(dir / "w0" / "outbox.jsonl"));
  // Remote results land in the daemon's one log beside the worker shards.
  EXPECT_EQ(sorted_lines(dir / "farm" / "shards" / "daemon.jsonl"),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, UnixEndpointRunsTheSameProtocol) {
  const fs::path dir = scratch("unix_e2e");
  write_reference(dir / "ref.jsonl", 3);

  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.listen = "unix:" + (dir / "workers.sock").string();
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(farm.add(tiny(s)));

  const pid_t w0 = spawn_worker(opts.dir, dir / "w0", "w0");
  const FarmReport report = farm.run();

  EXPECT_EQ(wait_exit(w0), 0);
  EXPECT_EQ(report.remote_results, 3u);
  EXPECT_EQ(sorted_lines(report.merged_path), sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, WatchdogEndsAHeartbeatingLeaseThatHangs) {
  // The first lease of seed 2's item hangs in the worker's trial fork while
  // the worker keeps heartbeating (every watchdog/3). The lease deadline is
  // fixed at grant, so the watchdog still fails it; the worker's next
  // heartbeat hears "stale", it kills the fork, and the re-lease runs
  // clean. The daemon runs in a child: one whose heartbeats kept the lease
  // alive would never finish, and fails here at the deadline instead.
  const fs::path dir = scratch("remote_watchdog");
  write_reference(dir / "ref.jsonl", 3);
  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.listen = "unix:" + (dir / "workers.sock").string();
  opts.watchdog_ms = 300;
  const fs::path counts = dir / "counts.txt";

  const pid_t daemon = ::fork();
  ASSERT_GE(daemon, 0);
  if (daemon == 0) {
    Farm farm(opts);
    for (std::uint64_t s = 1; s <= 3; ++s) farm.add(tiny(s));
    const FarmReport report = farm.run();
    std::ofstream(counts) << report.watchdog_kills << ' ' << report.done
                          << ' ' << report.failed << '\n';
    ::_exit(0);
  }
  ::setenv("OMX_FARM_TEST_HANG_KEY",
           (harness::config_key(tiny(2)) + ":once").c_str(), 1);
  const pid_t worker = spawn_worker(opts.dir, dir / "w0", "w0");
  ::unsetenv("OMX_FARM_TEST_HANG_KEY");

  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 1500 && reaped == 0; ++i) {  // 15 s
    reaped = ::waitpid(daemon, &status, WNOHANG);
    if (reaped == 0) ::usleep(10 * 1000);
  }
  if (reaped == 0) {
    ::kill(daemon, SIGKILL);
    ::kill(worker, SIGKILL);  // its hung trial exits once it is orphaned
    ::waitpid(daemon, &status, 0);
    ::waitpid(worker, &status, 0);
    FAIL() << "the farm did not finish within 15 s: the watchdog never "
              "ended the heartbeating lease";
  }
  EXPECT_EQ(wait_exit(worker), 0);
  std::size_t watchdog_kills = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::ifstream(counts) >> watchdog_kills >> done >> failed;
  EXPECT_EQ(watchdog_kills, 1u);
  EXPECT_EQ(done, 3u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(sorted_lines(dir / "farm" / "merged.jsonl"),
            sorted_lines(dir / "ref.jsonl"));
}

/// Counters of a farm run whose first lease goes to a client that hangs up
/// holding it.
struct AbandonedRun {
  bool finished = false;  // the daemon ended within the deadline
  std::string leased_key;
  std::size_t abandoned_leases = 0;
  std::size_t watchdog_kills = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
};

/// A daemon (in a child, with a 15 s deadline) serves 3 items to remote
/// workers only. A client takes the first lease over farm.sock — the
/// clients' socket, which answers the lease verbs too — and closes; then a
/// real worker runs the grid.
AbandonedRun run_with_abandoned_lease(const fs::path& dir,
                                      std::uint64_t watchdog_ms) {
  write_reference(dir / "ref.jsonl", 3);
  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.listen = "unix:" + (dir / "workers.sock").string();
  opts.serve_socket = true;
  opts.watchdog_ms = watchdog_ms;
  const fs::path counts = dir / "counts.txt";

  AbandonedRun out;
  const pid_t daemon = ::fork();
  if (daemon < 0) return out;
  if (daemon == 0) {
    Farm farm(opts);
    for (std::uint64_t s = 1; s <= 3; ++s) farm.add(tiny(s));
    const FarmReport report = farm.run();
    std::ofstream(counts) << report.abandoned_leases << ' '
                          << report.watchdog_kills << ' ' << report.done
                          << ' ' << report.failed << '\n';
    ::_exit(0);
  }
  const Endpoint socket = Farm::socket_endpoint_for(opts.dir);
  for (int i = 0; i < 500 && out.leased_key.empty(); ++i) {
    const auto conn = dial(socket);
    if (!conn) {
      ::usleep(10 * 1000);  // socket not up yet
      continue;
    }
    std::string payload;
    std::map<std::string, std::string> msg;
    if (conn->send(wire::encode({{"type", "next"}, {"rid", "1"}})) &&
        conn->recv(&payload, 2000) == RecvStatus::Ok &&
        wire::decode(payload, &msg) && wire::get(msg, "type") == "lease") {
      out.leased_key = wire::get(msg, "key");
    }
  }  // the connection closes here, its lease unsettled
  const pid_t worker = spawn_worker(opts.dir, dir / "w0", "w0");

  int status = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 1500 && reaped == 0; ++i) {  // 15 s
    reaped = ::waitpid(daemon, &status, WNOHANG);
    if (reaped == 0) ::usleep(10 * 1000);
  }
  if (reaped == 0) {
    ::kill(daemon, SIGKILL);
    ::kill(worker, SIGKILL);
    ::waitpid(daemon, &status, 0);
    ::waitpid(worker, &status, 0);
    return out;
  }
  out.finished = wait_exit(worker) == 0;
  std::ifstream(counts) >> out.abandoned_leases >> out.watchdog_kills >>
      out.done >> out.failed;
  return out;
}

TEST(RemoteFarm, ClosedConnectionFailsItsLeaseWhenNoWatchdogIsSet) {
  // Without a watchdog nothing else would ever end the abandoned lease:
  // the daemon fails it when the connection closes, and the worker runs
  // the re-queued item.
  const fs::path dir = scratch("abandoned_no_watchdog");
  const AbandonedRun run = run_with_abandoned_lease(dir, 0);
  EXPECT_EQ(run.leased_key, harness::config_key(tiny(1)));
  ASSERT_TRUE(run.finished)
      << "the farm did not finish within 15 s: the abandoned lease stayed "
         "leased";
  EXPECT_EQ(run.abandoned_leases, 1u);
  EXPECT_EQ(run.watchdog_kills, 0u);
  EXPECT_EQ(run.done, 3u);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(sorted_lines(dir / "farm" / "merged.jsonl"),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, ClosedConnectionLeavesItsLeaseToTheWatchdog) {
  // With a watchdog the lease outlives its connection (a severed worker
  // may reconnect and finish it); the watchdog ends it instead.
  const fs::path dir = scratch("abandoned_watchdog");
  const AbandonedRun run = run_with_abandoned_lease(dir, 300);
  EXPECT_EQ(run.leased_key, harness::config_key(tiny(1)));
  ASSERT_TRUE(run.finished) << "the farm did not finish within 15 s";
  EXPECT_EQ(run.abandoned_leases, 0u);
  EXPECT_EQ(run.watchdog_kills, 1u);
  EXPECT_EQ(run.done, 3u);
  EXPECT_EQ(run.failed, 0u);
  EXPECT_EQ(sorted_lines(dir / "farm" / "merged.jsonl"),
            sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, CrashAfterSpoolWriteResubmitsWithoutADuplicateRow) {
  // The duplicate-submission oracle: worker A completes a trial, makes the
  // line durable in its spool, and dies BEFORE the daemon acks. Worker B
  // (same state directory — "the worker restarted") must resubmit the
  // spooled line, and the merge must hold exactly one row for the key.
  const fs::path dir = scratch("crash_resubmit");
  write_reference(dir / "ref.jsonl", 3);
  const std::string crash_key = harness::config_key(tiny(2));

  FarmOptions opts = remote_only_opts(dir / "farm");
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) ASSERT_TRUE(farm.add(tiny(s)));

  // An orchestrator child sequences the two worker lives so the parent can
  // stay blocked in farm.run().
  const pid_t orchestrator = ::fork();
  ASSERT_GE(orchestrator, 0);
  if (orchestrator == 0) {
    const pid_t a = spawn_worker(opts.dir, dir / "w", "w-life-1", "",
                                 crash_key.c_str());
    if (wait_exit(a) != 9) ::_exit(10);  // the hook must have fired
    // Life 1 left the crash key's line in the spool, unacked.
    {
      std::ifstream spool(dir / "w" / "pending.jsonl");
      std::string line;
      bool found = false;
      while (std::getline(spool, line)) {
        if (line.find(crash_key) != std::string::npos) found = true;
      }
      if (!found) ::_exit(11);
    }
    const pid_t b = spawn_worker(opts.dir, dir / "w", "w-life-2");
    ::_exit(wait_exit(b) == 0 ? 0 : 12);
  }

  const FarmReport report = farm.run();
  EXPECT_EQ(wait_exit(orchestrator), 0);

  EXPECT_EQ(report.done, 3u);
  EXPECT_EQ(report.failed, 0u);
  const auto merged = sorted_lines(report.merged_path);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(std::count_if(merged.begin(), merged.end(),
                          [&](const std::string& line) {
                            return line.find(crash_key) != std::string::npos;
                          }),
            1)
      << "the resubmitted line must appear exactly once";
  EXPECT_EQ(merged, sorted_lines(dir / "ref.jsonl"));
}

TEST(RemoteFarm, ChaosLinkConvergesByteIdentically) {
  // Both workers run behind deterministic FlakyConns that drop, duplicate,
  // delay, and sever. The lease protocol's answer to every one of those is
  // "retry idempotently", so the merge still equals the reference.
  const fs::path dir = scratch("chaos_e2e");
  write_reference(dir / "ref.jsonl", 5);

  // The watchdog must dominate the worker's response-resend timeout by a
  // healthy factor: under drop chaos a live worker can be silent for a few
  // resend windows in a row, and that must read as "lossy", not "dead".
  // (The `omxfarm serve` default is 15 s for the same reason.)
  FarmOptions opts = remote_only_opts(dir / "farm");
  opts.watchdog_ms = 8000;
  opts.max_attempts = 6;
  Farm farm(opts);
  for (std::uint64_t s = 1; s <= 5; ++s) ASSERT_TRUE(farm.add(tiny(s)));

  const pid_t w0 = spawn_worker(opts.dir, dir / "w0", "w0",
                                "seed=7,drop=0.12,dup=0.15,delay=0.2:5,sever=0.04");
  const pid_t w1 = spawn_worker(opts.dir, dir / "w1", "w1",
                                "seed=11,drop=0.1,dup=0.1,delay=0.2:5,sever=0.04");
  const FarmReport report = farm.run();

  // A worker severed at shutdown may give up (exit 1) instead of hearing
  // "done" — both are legitimate ends of a chaos run. The merge is not
  // allowed the same latitude.
  EXPECT_LE(wait_exit(w0), 1);
  EXPECT_LE(wait_exit(w1), 1);
  EXPECT_EQ(report.done, 5u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(sorted_lines(report.merged_path), sorted_lines(dir / "ref.jsonl"));
}

}  // namespace
}  // namespace omx::farm
