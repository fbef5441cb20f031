// omxfarm: fork-isolated, crash-safe sweep farm (ROADMAP item 3).
//
// The PR 4 sweep runner survives a *trial* failing because the trial runs
// inside an in-process isolation shell. The farm makes the failure domain a
// whole process: every leased work item runs in a fork(2)'d worker, so a
// trial that corrupts memory, SIGSEGVs, or is SIGKILL'd from outside burns
// only its lease — the daemon classifies the worker's fate (the PR 4
// verdict taxonomy exit codes 2/3/4 for recorded model violations, vs. a
// termination signal for a crash) and re-queues crashed items through the
// WorkQueue's backoff/retry policy.
//
// Durability layering (who survives what):
//
//   worker SIGKILL   → its shard holds at most a torn final line; the
//                      lease fails, the item re-runs, shard repair drops
//                      the debris. Merged results are unaffected.
//   worker hang      → the lease watchdog SIGKILLs it; same as above but
//                      classified separately (watchdog_kills).
//   daemon SIGKILL   → workers finish or die orphaned; every completed
//                      trial is already a durable shard line. A re-run
//                      daemon rescans shards, repairs torn tails, marks
//                      recorded items done and runs only the remainder —
//                      the merged output is byte-identical to an
//                      uninterrupted farm's (and, after canonical sort, to
//                      a single-process Sweep of the same grid).
//
// Per-n artifacts (Algorithm 1's communication graph and √n partition) are
// built in the daemon, through their in-process memos, right before the
// fork that needs them (harness::prebuild_shared_artifacts): every worker
// inherits them copy-on-write and builds nothing.
//
// While running, the daemon serves the framed protocol of transport.h on a
// Unix-domain socket at `<dir>/farm.sock`, the same protocol and handler
// as the worker endpoint: any number of clients can ask for "status",
// "results" or "artifacts" (Farm::query) or stream merged lines with
// "follow" (Farm::follow) while the farm runs.
//
// The daemon is one poll(2) loop, and only events wake it: a new
// connection or a frame on either endpoint, a local worker's exit (each
// forked slot's pidfd polls readable when its worker dies, and the loop
// reaps exactly that slot), and the next lease-watchdog or backoff
// deadline. No fixed tick remains; a slot whose pidfd_open
// failed bounds the wait instead (PidFd::cap_timeout), and a free slot with
// an item already eligible does not wait at all. The daemon reaps only the
// pids it forked, so children of an embedding program keep their exit
// statuses.
//
// Remote workers (FarmOptions::listen nonempty) extend the failure domain
// across the wire: `omxfarm work --connect <endpoint>` processes speak the
// framed, checksummed transport protocol (transport.h) and are leased the
// same config-hash items as local forks. The omission-model discipline:
//
//   message lost      → request/response framing plus the worker's retry
//                       loop re-asks; a lost result resubmits from the
//                       worker's durable spool; a lost heartbeat at worst
//                       expires the lease, which re-queues the item.
//   message duplicated→ every submission is idempotent: the daemon keys
//                       results by config hash and drops the second copy,
//                       so no key ever yields two merged rows.
//   message delayed   → lease epochs (the item's attempt counter) make
//                       stale heartbeats and failure reports inert; stale
//                       *results* are accepted on purpose — deterministic
//                       trials make them byte-identical to fresh ones.
//   connection severed→ the worker reconnects with capped exponential
//                       backoff and resumes its in-flight trial; the
//                       daemon's lease watchdog re-queues items whose
//                       workers stay silent past the deadline. With no
//                       watchdog, nothing else would ever end such a
//                       lease, so the daemon fails it when its
//                       connection closes (abandoned_leases).
//   frame corrupted   → the transport checksum rejects it; the daemon
//                       drops the connection (the lease watchdog, or with
//                       none the close, recovers the item), the worker
//                       exits 5 (CorruptInputError with the byte offset)
//                       rather than act on bad bytes.
//   daemon killed     → durable shard lines survive; a restarted daemon
//                       rescans them while live workers finish in-flight
//                       trials, reconnect, and resubmit — dedup by key
//                       keeps the merge equal to a single-process sweep.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "farm/pidfd.h"
#include "farm/transport.h"
#include "farm/workqueue.h"
#include "harness/sweep.h"

namespace omx::farm {

struct FarmOptions {
  /// Farm state directory: shards/, merged.jsonl, farm.sock.
  std::string dir;
  /// Concurrent fork-isolated local workers (0 = remote workers only;
  /// requires a listen endpoint).
  int workers = 4;
  /// Worker/streaming endpoint ("unix:<path>" or "tcp:<host>:<port>",
  /// port 0 = kernel-assigned). Empty = no remote serving. The resolved
  /// endpoint is published to <dir>/endpoint so scripts can find a
  /// port-0 daemon.
  std::string listen;
  /// After the last item settles, keep answering the worker endpoint for
  /// this long so connected workers receive "done" instead of discovering
  /// the daemon's death through their reconnect deadline.
  std::uint64_t shutdown_linger_ms = 500;
  /// Lease watchdog (ms): a lease still unsettled this long after its
  /// grant is failed, its local worker SIGKILLed; a remote worker hears
  /// "stale" at its next heartbeat and kills its trial. Heartbeats do not
  /// extend the deadline. 0 = none. Distinct from the *cooperative*
  /// per-trial deadline (sweep.trial_deadline_ms), which a healthy engine
  /// honors by recording a timeout verdict; the watchdog is the backstop
  /// for a worker that cannot even do that.
  std::uint64_t watchdog_ms = 0;
  /// Farm-level leases per item (crash/hang retries; 1 = none).
  std::uint32_t max_attempts = 3;
  std::uint64_t backoff_base_ms = 100;
  std::uint64_t backoff_cap_ms = 5000;
  /// Serve the framed protocol on <dir>/farm.sock while running.
  bool serve_socket = true;
  /// In-worker trial options (cooperative deadline, transient-verdict seed
  /// retries, repro capture) — the same knobs a single-process Sweep takes,
  /// so a farm and a Sweep given identical options produce identical lines.
  harness::SweepOptions sweep;
};

struct FarmReport {
  std::size_t items = 0;
  std::size_t done = 0;
  std::size_t failed = 0;    // retry budget exhausted (synthetic outcome)
  std::size_t resumed = 0;   // satisfied from shards before any fork
  std::uint64_t releases = 0;  // farm-level retries (leases beyond first)
  std::size_t crashed_workers = 0;   // exits by signal (not watchdog)
  std::size_t watchdog_kills = 0;    // leases reaped by the watchdog
  std::size_t torn_shard_lines = 0;  // debris dropped by repair/merge
  // Remote-transport accounting:
  std::size_t remote_workers_seen = 0;  // distinct hello'd connections
  std::size_t remote_results = 0;       // lines accepted over the wire
  std::size_t duplicate_results = 0;    // resubmissions dropped by key
  std::size_t late_results = 0;         // results for already-settled items
  std::size_t rejected_results = 0;     // unparseable/mismatched lines
  std::size_t remote_failures = 0;      // worker-reported trial crashes
  /// Remote leases failed because their connection closed while no
  /// watchdog was set to end them.
  std::size_t abandoned_leases = 0;
  std::size_t corrupt_frames = 0;       // transport checksum rejections
  /// Worker exit-code histogram (0 ok-recorded, 2/3/4 the PR 4 taxonomy).
  std::map<int, std::uint64_t> exit_codes;
  std::string merged_path;
  /// Throughput: run()'s wall time up to the published merge, and per
  /// local worker slot the time it held a live worker (fork to reap).
  double wall_ms = 0;
  std::vector<double> slot_busy_ms;
  bool all_ok() const { return failed == 0; }
  /// Trials recorded this run (done) per second of wall time.
  double trials_per_s() const {
    return wall_ms > 0 ? 1000.0 * static_cast<double>(done) / wall_ms : 0.0;
  }
  /// Share of the wall time slot `slot` held a live worker, in [0, 1].
  double utilization(std::size_t slot) const {
    return wall_ms > 0 ? slot_busy_ms.at(slot) / wall_ms : 0.0;
  }
};

class Farm {
 public:
  explicit Farm(FarmOptions options);
  /// As above, but lease deadlines and backoff run on `now` (monotonic ms;
  /// the WorkQueue's clock) instead of the steady clock, so tests can
  /// place a deadline between two of the daemon's clock reads.
  Farm(FarmOptions options, WorkQueue::Clock now);

  /// Queue one sweep cell. Returns false for a duplicate config hash.
  bool add(const harness::ExperimentConfig& cfg);

  /// Run the farm to completion: resume from shards, fork/lease/reap until
  /// every item settles, then publish <dir>/merged.jsonl. Blocking.
  FarmReport run();

  /// One-line JSON status snapshot (the "status" answer).
  std::string status_json() const;

  /// The protocol's request handler, transport-independent: one decoded
  /// request message in, one response message out (empty = no response;
  /// the connection state records side effects like follow subscription).
  /// Public so protocol tests can drive lease/heartbeat/result semantics
  /// without sockets; the event loop calls it per frame from either
  /// endpoint.
  struct RemotePeer {
    std::string name;     // from hello
    bool follow = false;  // subscribed to the merged-line stream
    std::set<std::string> sent_keys;  // follow: lines already pushed
    /// (item index, epoch) of the leases granted on this connection that
    /// were still current at its last grant.
    std::vector<std::pair<std::size_t, std::uint32_t>> leases;
  };
  std::string handle_request(const std::map<std::string, std::string>& msg,
                             RemotePeer* peer);

  /// The endpoint a farm in `dir` serves: unix:<dir>/farm.sock.
  static Endpoint socket_endpoint_for(const std::string& dir);
  /// Path of the file the daemon publishes its resolved listen endpoint to.
  static std::string endpoint_path_for(const std::string& dir);

  /// Client side: send `request` ("status", "results", "artifacts") to the
  /// farm serving `ep` and return the answer as text: the JSON object plus
  /// a newline for status and artifacts, the durable lines for results,
  /// {"error":...} plus a newline for anything else. Throws
  /// PreconditionError when no daemon answers there, CorruptInputError on
  /// a corrupt frame.
  static std::string query(const Endpoint& ep, const std::string& request);

  /// Client side: subscribe to the merged-line stream of the farm serving
  /// `ep` and hand each line to `on_line` as it becomes durable. Returns
  /// true at the daemon's "end" (the farm finished), false when the
  /// connection closes first. Throws like query().
  static bool follow(const Endpoint& ep,
                     const std::function<void(const std::string&)>& on_line);

 private:
  struct Slot {
    std::int64_t pid = -1;          // -1 = free
    std::size_t item_index = 0;
    PidFd pidfd;                    // wakes the loop when the worker exits
    std::chrono::steady_clock::time_point forked_at;
  };
  struct Remote {
    std::unique_ptr<Conn> conn;
    RemotePeer peer;
  };

  std::string shard_dir() const { return options_.dir + "/shards"; }
  std::string shard_path(int slot) const;
  std::string daemon_shard_path() const;
  std::string merged_path() const { return options_.dir + "/merged.jsonl"; }
  std::string artifacts_path() const {
    return options_.dir + "/merged.artifacts.json";
  }

  void resume_from_shards();
  void spawn_ready_workers();
  /// Reap slot `slot`'s worker if it has exited (blocking: wait for it)
  /// and settle its lease from the exit status.
  void reap_worker(std::size_t slot, bool blocking);
  void kill_expired_leases();
  /// Fail the leases a closed connection still holds, when no watchdog is
  /// set (with one, the watchdog ends them and the worker may reconnect
  /// and finish first).
  void fail_abandoned_leases(const RemotePeer& peer);
  void record_exhausted(const WorkItem& item, bool hung);
  /// How long the loop may block: 0 while a free slot could lease an
  /// item now, else until the next lease or backoff deadline, -1 (no
  /// limit) when nothing is timed.
  int wait_timeout_ms() const;
  /// Block in poll(2) on every wake source (sockets, worker pidfds) for at
  /// most timeout_ms, then serve what fired.
  void pump_events(int timeout_ms);
  void pump_remote(Remote* remote);
  void push_follow_lines(bool final_push);
  /// report_ with wall_ms and slot_busy_ms brought up to now (live
  /// workers count until now).
  FarmReport clocked_report() const;
  std::string artifacts_json() const;
  void write_artifacts_index();
  bool accept_result(const std::string& key, const std::string& line,
                     const std::map<std::string, std::string>& msg);
  void note_artifacts(const std::string& key,
                      const std::map<std::string, std::string>& msg);

  FarmOptions options_;
  WorkQueue queue_;
  std::vector<Slot> slots_;
  FarmReport report_;
  std::optional<std::chrono::steady_clock::time_point> run_started_;
  std::unique_ptr<Listener> socket_listener_;  // <dir>/farm.sock
  std::unique_ptr<Listener> worker_listener_;  // FarmOptions::listen
  std::vector<Remote> remotes_;  // connections accepted on either one
  bool durable_dirty_ = false;  // new lines since the last follow push
  /// key → {repro path, trace path, worker name}: the artifacts index,
  /// built from local capture paths and remote workers' reports.
  std::map<std::string, std::map<std::string, std::string>> artifacts_;
};

}  // namespace omx::farm
