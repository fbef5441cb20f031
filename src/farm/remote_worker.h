// The remote half of the farm (ROADMAP item 3): `omxfarm work --connect`.
//
// A RemoteWorker dials the daemon's worker endpoint (transport.h), asks for
// leases, runs each leased trial in a fork of its own (the same
// fork-per-trial failure domain local workers get), and submits the result
// line over the wire. Its crash-safety contract mirrors the local shard
// story, adapted to a lossy link:
//
//   * the trial fork appends its line durably (write + fsync) straight
//     into the worker's spool (<dir>/pending.jsonl), which is empty
//     whenever a trial starts, and the worker submits the line it finds
//     there — a worker killed between "trial done" and "daemon acked"
//     resubmits the spooled line when it restarts, and the daemon's
//     key-based dedup makes the resubmission a no-op if the line already
//     landed. The worker empties (truncates) the spool once the daemon
//     acks or rejects the line, when the trial did not record, and when a
//     stale or unreachable heartbeat killed the trial;
//   * heartbeats (cadence dictated by the daemon's hello response) ask
//     whether the lease is still current; they do not extend it, since the
//     daemon's watchdog deadline is fixed at grant. A "stale" answer means
//     the lease expired or was superseded — the worker kills its trial fork
//     and moves on rather than burn CPU on an item that is now someone
//     else's;
//   * every request carries a monotonic `rid` echoed by the daemon, so a
//     duplicated or delayed response is recognized and discarded instead of
//     desynchronizing the request/response stream;
//   * a lost message (request or response) surfaces as a timeout and the
//     request is simply re-sent — every daemon handler is idempotent or
//     epoch-gated, so re-asking is always safe;
//   * a severed connection triggers capped-exponential-backoff redial; the
//     worker gives up only after reconnect_deadline_ms of continuous
//     failure (a vanished daemon must not leave zombie workers);
//   * a corrupt frame (checksum failure) throws CorruptInputError carrying
//     the byte offset — under guarded_main that is exit 5, the same code a
//     corrupt checkpoint file produces. Bad bytes are never acted upon.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "farm/transport.h"
#include "harness/sweep.h"

namespace omx::farm {

struct RemoteWorkerOptions {
  /// Daemon worker endpoint ("unix:<path>", "tcp:<host>:<port>", or bare
  /// host:port).
  std::string endpoint;
  /// Worker state directory: the pending.jsonl result spool, repro/.
  std::string dir;
  /// Name reported in hello and attached to submitted artifacts.
  std::string name;
  /// FlakyTransport chaos spec applied to this worker's connection
  /// ("seed=...,drop=...,..."); empty = a well-behaved link.
  std::string chaos;
  /// Reconnect backoff: first retry after base, doubling to cap.
  std::uint64_t backoff_base_ms = 100;
  std::uint64_t backoff_cap_ms = 5000;
  /// Give up after this much continuous connect/RPC failure: the daemon is
  /// gone and is not coming back.
  std::uint64_t reconnect_deadline_ms = 30000;
  /// Upper bound on how long to sleep when the daemon answers "idle".
  std::uint64_t idle_poll_ms = 200;
  /// In-trial options (repro capture etc.). The daemon's hello response
  /// overrides max_attempts so retry ladders match the reference sweep;
  /// the leased config already carries its folded trial deadline.
  harness::SweepOptions sweep;
};

struct RemoteWorkerReport {
  std::size_t trials = 0;            // leases actually run
  std::size_t submitted = 0;         // result lines acked by the daemon
  std::size_t resubmitted = 0;       // spooled lines replayed on startup
  std::size_t failures_reported = 0; // trial-fork crashes reported upstream
  std::size_t stale_leases = 0;      // trials abandoned on a stale heartbeat
  std::uint64_t reconnects = 0;      // successful redials after the first
  std::uint64_t heartbeats = 0;
  /// True when the daemon said "done"; false when the worker gave up on an
  /// unreachable daemon (the CLI exits nonzero in that case).
  bool daemon_finished = false;
};

class RemoteWorker {
 public:
  explicit RemoteWorker(RemoteWorkerOptions options);

  /// Work until the daemon reports the grid settled ("done") or the
  /// reconnect deadline expires. Throws CorruptInputError on a corrupt
  /// frame. Blocking.
  RemoteWorkerReport run();

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  std::string spool_path() const { return options_.dir + "/pending.jsonl"; }

  bool ensure_connected();
  void drop_conn();
  /// One reliable request/response exchange: sends (re-sending on timeout,
  /// reconnecting on sever) until the rid-matched response arrives or the
  /// reconnect deadline expires (returns false: give up).
  bool rpc(const Fields& fields, std::map<std::string, std::string>* response);

  /// Returns false when the daemon became unreachable (ends the run).
  bool run_trial(const std::string& key, std::uint32_t epoch,
                 const harness::ExperimentConfig& cfg);
  /// Submit one result line until the daemon acks or rejects it (true)
  /// or stays unreachable (false; the spool keeps the line).
  bool submit_line(const std::string& key, std::uint32_t epoch,
                   const std::string& line, bool from_spool);
  /// Startup: resubmit every whole line a previous run left in the spool,
  /// then empty it. False when the daemon stayed unreachable.
  bool resubmit_spool();
  /// Truncate the spool: its line is settled, or the trial left none.
  void empty_spool();

  RemoteWorkerOptions options_;
  Endpoint endpoint_;
  std::unique_ptr<Conn> conn_;
  std::uint64_t rid_ = 0;
  std::uint64_t heartbeat_ms_ = 1000;  // dictated by the daemon's hello reply
  bool connected_once_ = false;
  std::optional<std::uint64_t> connect_fail_since_;
  RemoteWorkerReport report_;
};

}  // namespace omx::farm
