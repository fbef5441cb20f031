// omxfarm — fork-isolated, crash-safe distributed sweep farm.
//
//   omxfarm run    --dir farm --algo optimal --attack chaos \
//                  --n 64,128,256 --seeds 25 --workers 4 --watchdog-ms 60000
//   omxfarm serve  --dir farm --listen tcp:0.0.0.0:7717 [grid flags]
//                                       # daemon leasing to remote workers
//   omxfarm work   --connect host:7717 --dir w1   # remote worker process
//   omxfarm status  --dir farm          # query a running daemon's socket
//   omxfarm results --dir farm          # live merged view over the socket
//   omxfarm results --dir farm --follow # stream lines as they merge
//   omxfarm results --dir farm --artifacts  # repro/trace paths per key
//   omxfarm merge   --dir farm          # offline shard merge (no daemon)
//
// `serve` is `run` with remote-first defaults: no local workers unless
// asked, a listen endpoint for `omxfarm work --connect` processes (the
// resolved address — port 0 is allowed — is published to <dir>/endpoint),
// and a lease watchdog on by default because remote workers fail silently.
// `status`/`results` speak the framed protocol to <dir>/farm.sock, or with
// --connect to a daemon's worker endpoint; both serve the same verbs.
//
// `run` expands the sweep grid (each --n × each seed) into config-hash-keyed
// work items and drives them through farm::Farm: every item runs in a
// fork(2)'d worker whose exit code carries the PR 4 verdict taxonomy
// (0 recorded, 2/3/4 recorded model violations, signal = crash → re-lease
// with backoff). Workers append durable JSONL lines to per-slot shards;
// `kill -9` of any worker — or of the daemon itself — loses nothing but the
// in-flight trials, and a re-run `omxfarm run` with the same flags resumes
// from the shards and converges to a merged.jsonl byte-identical (after the
// canonical key sort) to an uninterrupted run's, and to a single-process
// `omxsim --checkpoint` sweep of the same grid.
//
// Exit codes: 0 = every item recorded with verdict ok; 1 = some recorded
// trial failed its verdict or spec (for `work`: the daemon became
// unreachable before saying "done"); 2 = bad usage / precondition;
// 5 = corrupt transport frame (checksum failure, reported with its byte
// offset) — bad bytes are refused, never acted on; 7 = retry budget
// exhausted for at least one item (synthetic outcome recorded so
// merged.jsonl still covers the full grid).
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/params.h"
#include "farm/farm.h"
#include "farm/remote_worker.h"
#include "farm/shard.h"
#include "farm/transport.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "support/cli.h"

using namespace omx;

namespace {

std::vector<std::uint32_t> parse_n_list(const std::string& text) {
  std::vector<std::uint32_t> out;
  std::stringstream ss(text);
  std::string part;
  while (std::getline(ss, part, ',')) {
    if (part.empty()) continue;
    const long v = std::strtol(part.c_str(), nullptr, 10);
    OMX_REQUIRE(v >= 1, "bad --n entry: " + part);
    out.push_back(static_cast<std::uint32_t>(v));
  }
  OMX_REQUIRE(!out.empty(), "--n needs at least one value");
  return out;
}

void add_grid_flags(ArgParser* args) {
  args->add_option("algo", "optimal", "optimal | param | floodset | benor");
  args->add_option("attack", "none",
                   "none | crash | rand-omit | send-omit | split-brain | "
                   "group-killer | coin-hiding | chaos");
  args->add_option("n", "128", "comma-separated process counts");
  args->add_option("t", "-1", "fault budget (-1 = per-n max for the algo)");
  args->add_option("x", "4", "super-process count (param only)");
  args->add_option("inputs", "random",
                   "all-0 | all-1 | half | random | one-dissent | alternating");
  args->add_option("seed", "1", "first master seed");
  args->add_option("seeds", "1", "seeds per n");
  args->add_option("budget", "-1", "random-bit budget (-1 = unlimited)");
  args->add_option("drop-prob", "0.8", "drop probability for rand-omit");
  args->add_option("params", "practical", "practical | paper constants");
}

/// Expand the grid flags into configs, mirroring omxsim's per-n t rule.
std::vector<harness::ExperimentConfig> expand_grid(const ArgParser& args) {
  harness::ExperimentConfig base;
  OMX_REQUIRE(harness::algo_from_string(args.get("algo"), &base.algo) &&
                  harness::attack_from_string(args.get("attack"),
                                              &base.attack) &&
                  harness::inputs_from_string(args.get("inputs"), &base.inputs),
              "bad algo/attack/inputs value");
  base.x = static_cast<std::uint32_t>(args.get_int("x"));
  base.drop_prob = args.get_double("drop-prob");
  if (args.get("params") == "paper") base.params = core::Params::paper();
  const auto budget = args.get_int("budget");
  if (budget >= 0) {
    base.random_bit_budget = static_cast<std::uint64_t>(budget);
  }

  const auto t_flag = args.get_int("t");
  const auto first_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const auto num_seeds = static_cast<std::uint64_t>(args.get_int("seeds"));
  OMX_REQUIRE(num_seeds >= 1, "--seeds must be >= 1");

  std::vector<harness::ExperimentConfig> grid;
  for (const std::uint32_t n : parse_n_list(args.get("n"))) {
    harness::ExperimentConfig cfg = base;
    cfg.n = n;
    cfg.t = t_flag >= 0 ? static_cast<std::uint32_t>(t_flag)
                        : (cfg.algo == harness::Algo::Param
                               ? core::Params::max_t_param(n)
                               : core::Params::max_t_optimal(n));
    for (std::uint64_t s = 0; s < num_seeds; ++s) {
      cfg.seed = first_seed + s;
      grid.push_back(cfg);
    }
  }
  return grid;
}

/// `run` and `serve` share everything but their defaults: serve assumes the
/// work arrives over the wire (no local forks unless asked) and remote
/// workers fail silently, so the lease watchdog defaults on.
int cmd_run(int argc, char** argv, bool serve) {
  ArgParser args(serve ? "omxfarm serve" : "omxfarm run",
                 serve ? "serve a sweep grid to remote workers"
                       : "run a sweep grid under the farm daemon");
  args.add_option("dir", "farm", "farm state directory");
  args.add_option("workers", serve ? "0" : "4",
                  "concurrent fork-isolated local workers");
  args.add_option("listen", serve ? "tcp:127.0.0.1:0" : "",
                  "worker/streaming endpoint (unix:<path> | "
                  "tcp:<host>:<port>, port 0 = kernel-assigned; resolved "
                  "address published to <dir>/endpoint)");
  args.add_option("watchdog-ms", serve ? "15000" : "0",
                  "lease watchdog: fail a lease this long after its grant "
                  "and kill its trial, local or remote (0 = none)");
  // Long enough to cover several worker response-resend windows (750 ms
  // each): a lossy link can drop the "done" answer repeatedly, and a worker
  // that never hears it burns its whole reconnect deadline on a dead
  // endpoint.
  args.add_option("linger-ms", serve ? "6000" : "500",
                  "after the grid settles, keep answering workers this long "
                  "so they hear \"done\"");
  args.add_option("farm-retries", "2",
                  "extra leases per item after a crash/hang (0 = none)");
  args.add_option("backoff-ms", "100", "base re-lease backoff (doubles)");
  args.add_option("deadline-ms", "0",
                  "cooperative per-trial deadline inside the worker");
  args.add_option("retries", "0",
                  "in-worker extra attempts (perturbed seed) for timed-out "
                  "trials — same semantics as omxsim --retries");
  args.add_option("repro-dir", "", "directory for crash-repro captures "
                  "(default <dir>/repro)");
  args.add_flag("no-socket", "do not serve <dir>/farm.sock");
  add_grid_flags(&args);
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }

  farm::FarmOptions opts;
  opts.dir = args.get("dir");
  opts.workers = static_cast<int>(args.get_int("workers"));
  opts.listen = args.get("listen");
  opts.watchdog_ms = static_cast<std::uint64_t>(args.get_int("watchdog-ms"));
  opts.shutdown_linger_ms =
      static_cast<std::uint64_t>(args.get_int("linger-ms"));
  opts.max_attempts =
      1 + static_cast<std::uint32_t>(args.get_int("farm-retries"));
  opts.backoff_base_ms =
      static_cast<std::uint64_t>(args.get_int("backoff-ms"));
  opts.serve_socket = !args.flag("no-socket");
  opts.sweep.repro_dir = args.get("repro-dir").empty()
                             ? opts.dir + "/repro"
                             : args.get("repro-dir");
  if (args.get_int("deadline-ms") > 0) {
    opts.sweep.trial_deadline_ms =
        static_cast<std::uint64_t>(args.get_int("deadline-ms"));
  }
  if (args.get_int("retries") > 0) {
    opts.sweep.max_attempts =
        1 + static_cast<std::uint32_t>(args.get_int("retries"));
  }

  farm::Farm daemon(opts);
  for (const auto& cfg : expand_grid(args)) daemon.add(cfg);

  const farm::FarmReport report = daemon.run();
  std::string utilization;
  for (std::size_t slot = 0; slot < report.slot_busy_ms.size(); ++slot) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%s%.2f", slot == 0 ? "" : " ",
                  report.utilization(slot));
    utilization += buf;
  }
  std::fprintf(stderr,
               "farm: %zu items: %zu run, %zu resumed, %zu exhausted; "
               "%llu re-leases (%zu crashes, %zu watchdog kills), "
               "%zu torn shard line(s); %.3f s wall, %.1f trials/s, "
               "slot utilization [%s]\n",
               report.items, report.done, report.resumed, report.failed,
               static_cast<unsigned long long>(report.releases),
               report.crashed_workers, report.watchdog_kills,
               report.torn_shard_lines, report.wall_ms / 1000.0,
               report.trials_per_s(), utilization.c_str());
  if (report.remote_workers_seen > 0 || report.corrupt_frames > 0 ||
      report.abandoned_leases > 0) {
    std::fprintf(stderr,
                 "farm: %zu remote hello(s): %zu results over the wire "
                 "(%zu duplicate, %zu late, %zu rejected), %zu reported "
                 "crashes, %zu abandoned lease(s), %zu corrupt frame(s)\n",
                 report.remote_workers_seen, report.remote_results,
                 report.duplicate_results, report.late_results,
                 report.rejected_results, report.remote_failures,
                 report.abandoned_leases, report.corrupt_frames);
  }
  std::printf("%s\n", report.merged_path.c_str());
  if (!report.all_ok()) return 7;
  // Recorded-but-failed trials (verdict != ok, or spec NO) exit 1, like a
  // failed omxsim sweep; the histogram tells the classes apart.
  for (const auto& [code, count] : report.exit_codes) {
    if (code != 0 && count > 0) return 1;
  }
  return 0;
}

int cmd_query(int argc, char** argv, const std::string& request) {
  ArgParser args("omxfarm " + request, "query a running farm daemon");
  args.add_option("dir", "farm", "farm state directory");
  args.add_option("connect", "",
                  "query over the daemon's worker endpoint instead of "
                  "<dir>/farm.sock");
  if (request == "results") {
    args.add_flag("follow", "stream merged lines until the farm finishes");
    args.add_flag("artifacts",
                  "print the per-key repro/trace artifact index instead");
  }
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  std::string verb = request;
  bool follow = false;
  if (request == "results") {
    follow = args.flag("follow");
    if (args.flag("artifacts")) {
      OMX_REQUIRE(!follow, "--follow and --artifacts are exclusive");
      verb = "artifacts";
    }
  }
  const farm::Endpoint ep =
      args.get("connect").empty()
          ? farm::Farm::socket_endpoint_for(args.get("dir"))
          : farm::Endpoint::parse(args.get("connect"));
  if (follow) {
    // Exit 1 when the daemon vanishes mid-stream (no "end").
    return farm::Farm::follow(ep,
                              [](const std::string& line) {
                                std::printf("%s\n", line.c_str());
                                std::fflush(stdout);
                              })
               ? 0
               : 1;
  }
  std::fputs(farm::Farm::query(ep, verb).c_str(), stdout);
  return 0;
}

int cmd_work(int argc, char** argv) {
  ArgParser args("omxfarm work",
                 "run trials for a farm daemon over the wire");
  args.add_option("connect", "",
                  "daemon worker endpoint (unix:<path> | tcp:<host>:<port> "
                  "| host:port)");
  args.add_option("dir", "farmworker",
                  "worker state directory (result spool, trial outbox, "
                  "repro captures)");
  args.add_option("name", "", "worker name (default worker-<pid>)");
  args.add_option("chaos", "",
                  "deterministic fault-injection spec for this link, e.g. "
                  "seed=7,drop=0.2,dup=0.1,delay=0.3:40,sever=0.02");
  args.add_option("backoff-ms", "100",
                  "reconnect backoff base (doubles, capped at 5000)");
  args.add_option("reconnect-ms", "30000",
                  "give up after this much continuous daemon silence");
  args.add_option("repro-dir", "",
                  "crash-repro capture dir (default <dir>/repro)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  farm::RemoteWorkerOptions opts;
  opts.endpoint = args.get("connect");
  OMX_REQUIRE(!opts.endpoint.empty(), "omxfarm work needs --connect");
  opts.dir = args.get("dir");
  opts.name = args.get("name");
  opts.chaos = args.get("chaos");
  opts.backoff_base_ms = static_cast<std::uint64_t>(args.get_int("backoff-ms"));
  opts.reconnect_deadline_ms =
      static_cast<std::uint64_t>(args.get_int("reconnect-ms"));
  opts.sweep.repro_dir = args.get("repro-dir").empty()
                             ? opts.dir + "/repro"
                             : args.get("repro-dir");
  farm::RemoteWorker worker(opts);
  const farm::RemoteWorkerReport report = worker.run();
  std::fprintf(stderr,
               "worker: %zu trial(s): %zu submitted, %zu resubmitted from "
               "spool, %zu crash(es) reported, %zu stale lease(s); "
               "%llu reconnect(s), %llu heartbeat(s); daemon %s\n",
               report.trials, report.submitted, report.resubmitted,
               report.failures_reported, report.stale_leases,
               static_cast<unsigned long long>(report.reconnects),
               static_cast<unsigned long long>(report.heartbeats),
               report.daemon_finished ? "finished" : "unreachable");
  return report.daemon_finished ? 0 : 1;
}

int cmd_merge(int argc, char** argv) {
  ArgParser args("omxfarm merge",
                 "merge <dir>/shards into <dir>/merged.jsonl offline");
  args.add_option("dir", "farm", "farm state directory");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  const std::string dir = args.get("dir");
  const farm::ShardScan scan =
      farm::merge_shards(dir + "/shards", dir + "/merged.jsonl");
  std::fprintf(stderr, "merged %zu line(s) (%zu torn dropped, %zu duplicate "
               "key(s) collapsed)\n",
               scan.lines.size(), scan.torn_lines, scan.duplicate_keys);
  std::printf("%s/merged.jsonl\n", dir.c_str());
  return 0;
}

int run_main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  // Re-point argv[1] at the program name so ArgParser sees `omxfarm <cmd>`
  // plus only the flags.
  if (cmd == "run") return cmd_run(argc - 1, argv + 1, /*serve=*/false);
  if (cmd == "serve") return cmd_run(argc - 1, argv + 1, /*serve=*/true);
  if (cmd == "work") return cmd_work(argc - 1, argv + 1);
  if (cmd == "status") return cmd_query(argc - 1, argv + 1, "status");
  if (cmd == "results") return cmd_query(argc - 1, argv + 1, "results");
  if (cmd == "merge") return cmd_merge(argc - 1, argv + 1);
  std::fprintf(stderr,
               "usage: omxfarm <run|serve|work|status|results|merge> "
               "[flags]\n"
               "       omxfarm <cmd> --help for per-command flags\n");
  return cmd.empty() || cmd == "--help" || cmd == "-h" ? (cmd.empty() ? 2 : 0)
                                                       : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main([&] { return run_main(argc, argv); });
}
