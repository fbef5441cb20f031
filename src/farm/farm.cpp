#include "farm/farm.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>

#include "farm/shard.h"
#include "support/check.h"
#include "support/durable_file.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// Lease slot id for items held by remote workers (local forks use their
/// slot index >= 0).
constexpr int kRemoteSlot = -2;

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A poll(2) timeout from a millisecond count, saturated at INT_MAX.
int poll_ms(std::uint64_t ms) {
  return static_cast<int>(
      std::min<std::uint64_t>(ms, std::numeric_limits<int>::max()));
}

/// A number for the status JSON, with `decimals` fixed digits.
std::string json_fixed(double value, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

}  // namespace

Farm::Farm(FarmOptions options) : Farm(std::move(options), steady_now_ms) {}

Farm::Farm(FarmOptions options, WorkQueue::Clock now)
    : options_(std::move(options)),
      queue_(WorkQueueOptions{options_.watchdog_ms, options_.max_attempts,
                              options_.backoff_base_ms,
                              options_.backoff_cap_ms},
             std::move(now)) {
  OMX_REQUIRE(!options_.dir.empty(), "farm needs a state directory");
  OMX_REQUIRE(options_.workers >= 1 || !options_.listen.empty(),
              "farm needs local workers or a listen endpoint");
  OMX_REQUIRE(options_.workers >= 0, "farm worker count cannot be negative");
  std::error_code ec;
  fs::create_directories(shard_dir(), ec);
  OMX_REQUIRE(!ec, "farm: cannot create " + shard_dir() + ": " + ec.message());
  // Workers never checkpoint on their own: the shard line IS the
  // checkpoint, written exactly once per completed trial.
  options_.sweep.checkpoint_path.clear();
  slots_.resize(static_cast<std::size_t>(options_.workers));
  report_.slot_busy_ms.assign(slots_.size(), 0.0);
}

bool Farm::add(const harness::ExperimentConfig& cfg) {
  // Fold the sweep-level trial deadline into the config before hashing,
  // exactly as Sweep::run does: the item's key must equal the key a
  // single-process `omxsim --deadline-ms ... --checkpoint` sweep records,
  // or the merged output stops matching the reference byte for byte.
  harness::ExperimentConfig keyed = cfg;
  if (options_.sweep.trial_deadline_ms != 0) {
    keyed.deadline_ms = options_.sweep.trial_deadline_ms;
  }
  const bool added = queue_.add(harness::config_key(keyed), keyed);
  if (added) ++report_.items;
  return added;
}

std::string Farm::shard_path(int slot) const {
  return shard_dir() + "/worker-" + std::to_string(slot) + ".jsonl";
}

std::string Farm::daemon_shard_path() const {
  return shard_dir() + "/daemon.jsonl";
}

Endpoint Farm::socket_endpoint_for(const std::string& dir) {
  return Endpoint::parse("unix:" + dir + "/farm.sock");
}

std::string Farm::endpoint_path_for(const std::string& dir) {
  return dir + "/endpoint";
}

void Farm::resume_from_shards() {
  // Repair first: a shard whose tail was torn by a killed worker must not
  // receive appends after the debris, or the next line would be corrupted.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(shard_dir(), ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      report_.torn_shard_lines += repair_shard(entry.path().string());
    }
  }
  const ShardScan scan = scan_shards(shard_dir());
  for (const auto& [key, line] : scan.lines) {
    if (queue_.mark_done(key)) ++report_.resumed;
  }
  if (!scan.lines.empty()) durable_dirty_ = true;
}

void Farm::spawn_ready_workers() {
  for (int slot = 0; slot < options_.workers; ++slot) {
    if (slots_[static_cast<std::size_t>(slot)].pid != -1) continue;
    const auto index = queue_.acquire(slot, /*pid=*/-1);
    if (!index) return;  // nothing eligible right now
    const WorkItem& item = queue_.item(*index);
    // Built here, once per process, the graph and partition reach every
    // later fork copy-on-write.
    harness::prebuild_shared_artifacts(item.config);
    std::fflush(nullptr);  // no duplicated stdio buffers in the child
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "farm: fork failed: %s\n", std::strerror(errno));
      queue_.fail(*index);
      return;
    }
    if (pid == 0) {
      run_trial_process(options_.sweep, item.key, item.attempts, item.config,
                        shard_path(slot));
    }
    queue_.set_lease_pid(*index, pid);
    slots_[static_cast<std::size_t>(slot)] =
        Slot{pid, *index, PidFd(pid), std::chrono::steady_clock::now()};
  }
}

void Farm::record_exhausted(const WorkItem& item, bool hung) {
  harness::TrialOutcome outcome;
  outcome.verdict =
      hung ? harness::Verdict::Timeout : harness::Verdict::Invariant;
  outcome.attempts = item.attempts;
  outcome.seed_used = item.config.seed;
  outcome.error = hung ? "farm: worker hung past the lease watchdog on every "
                         "attempt (retry budget exhausted)"
                       : "farm: worker crashed on every attempt (retry "
                         "budget exhausted)";
  // The synthetic line keeps the merged results total: every queued key
  // appears exactly once even when its trial never managed to record
  // itself. daemon.jsonl, the daemon's one log, sits beside the worker
  // shards so the merge picks it up like any other.
  if (!support::append_line_durably(
          daemon_shard_path(), harness::checkpoint_line(item.key, outcome))) {
    std::fprintf(stderr, "farm: cannot record exhausted item %s\n",
                 item.key.c_str());
  }
  ++report_.failed;
  durable_dirty_ = true;
}

void Farm::reap_worker(std::size_t slot, bool blocking) {
  const auto pid = static_cast<pid_t>(slots_[slot].pid);
  int status = 0;
  pid_t reaped = -1;
  do {
    reaped = ::waitpid(pid, &status, blocking ? 0 : WNOHANG);
  } while (reaped < 0 && errno == EINTR);
  if (reaped == 0) return;  // still running
  report_.slot_busy_ms[slot] +=
      ms_between(slots_[slot].forked_at, std::chrono::steady_clock::now());
  const std::size_t index = slots_[slot].item_index;
  slots_[slot] = Slot{};  // closes the pidfd
  const WorkItem& item = queue_.item(index);
  // reaped < 0 (ECHILD): another waiter in this process took the exit
  // status, so the outcome is unknown. Settle it as a crash: the re-run's
  // line deduplicates against any line this worker did record.
  const bool exited = reaped == pid && WIFEXITED(status);

  if (item.state == ItemState::Done) {
    // The item was completed by a remote submission while this fork was
    // still running (watchdog expiry + re-lease, then the race resolved
    // both ways). The fork's own shard line, if it got that far, is
    // byte-identical and deduplicates in the merge.
    if (exited) ++report_.exit_codes[WEXITSTATUS(status)];
    ++report_.duplicate_results;
    return;
  }
  if (exited) {
    const int code = WEXITSTATUS(status);
    ++report_.exit_codes[code];
    if (is_recorded_exit(code)) {
      // Recorded outcome (the taxonomy codes are *recorded* model
      // violations — deterministic, so a re-lease would just re-fail).
      queue_.complete(index);
      ++report_.done;
      durable_dirty_ = true;
      return;
    }
    // Any other exit (e.g. 6 = shard append failed) is an unrecorded
    // trial: treat like a crash.
  }
  const bool hung = item.watchdog_fired;
  if (hung) {
    ++report_.watchdog_kills;
  } else {
    ++report_.crashed_workers;
  }
  // The dead worker may have torn its shard tail mid-write; repair before
  // the slot is reused so later appends start on a line boundary.
  report_.torn_shard_lines += repair_shard(shard_path(static_cast<int>(slot)));
  if (item.state == ItemState::Leased && !queue_.fail(index)) {
    record_exhausted(item, hung);
  }
}

void Farm::fail_abandoned_leases(const RemotePeer& peer) {
  if (options_.watchdog_ms != 0) return;
  for (const auto& [index, epoch] : peer.leases) {
    if (!queue_.lease_current(index, epoch)) continue;
    ++report_.abandoned_leases;
    const WorkItem item = queue_.item(index);
    if (!queue_.fail(index)) record_exhausted(item, false);
  }
}

void Farm::kill_expired_leases() {
  for (const std::size_t index : queue_.expired()) {
    bool held_by_local_fork = false;
    for (const auto& slot : slots_) {
      if (slot.pid != -1 && slot.item_index == index) {
        ::kill(static_cast<pid_t>(slot.pid), SIGKILL);
        held_by_local_fork = true;
      }
    }
    if (!held_by_local_fork) {
      // A remote worker went silent past the watchdog (no heartbeat): there
      // is no process to kill, so burn the lease directly. If the worker is
      // merely partitioned and eventually submits, the result deduplicates.
      ++report_.watchdog_kills;
      const WorkItem item = queue_.item(index);
      if (!queue_.fail(index)) record_exhausted(item, true);
    }
  }
}

std::string Farm::status_json() const {
  std::ostringstream os;
  os << "{\"items\":" << queue_.size()
     << ",\"pending\":" << queue_.count(ItemState::Pending)
     << ",\"leased\":" << queue_.count(ItemState::Leased)
     << ",\"done\":" << queue_.count(ItemState::Done)
     << ",\"failed\":" << queue_.count(ItemState::Failed)
     << ",\"resumed\":" << report_.resumed
     << ",\"releases\":" << queue_.retries()
     << ",\"workers\":" << options_.workers
     << ",\"crashed_workers\":" << report_.crashed_workers
     << ",\"watchdog_kills\":" << report_.watchdog_kills
     << ",\"remote_workers\":" << report_.remote_workers_seen
     << ",\"remote_results\":" << report_.remote_results
     << ",\"duplicate_results\":" << report_.duplicate_results;
  const FarmReport clocked = clocked_report();
  os << ",\"wall_ms\":" << json_fixed(clocked.wall_ms, 1)
     << ",\"trials_per_s\":" << json_fixed(clocked.trials_per_s(), 2)
     << ",\"utilization\":[";
  for (std::size_t slot = 0; slot < clocked.slot_busy_ms.size(); ++slot) {
    os << (slot == 0 ? "" : ",") << json_fixed(clocked.utilization(slot), 3);
  }
  os << "],\"listen\":\""
     << harness::json_escape(
            worker_listener_ ? worker_listener_->endpoint().to_string() : "")
     << "\"}";
  return os.str();
}

FarmReport Farm::clocked_report() const {
  FarmReport clocked = report_;
  if (!run_started_) return clocked;
  // One clock read for both, so a live slot never outlasts the wall time.
  const auto now = std::chrono::steady_clock::now();
  clocked.wall_ms = ms_between(*run_started_, now);
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].pid != -1) {
      clocked.slot_busy_ms[slot] += ms_between(slots_[slot].forked_at, now);
    }
  }
  return clocked;
}

// ---------------------------------------------------------------------------
// The worker protocol (transport-independent request handler).

void Farm::note_artifacts(const std::string& key,
                          const std::map<std::string, std::string>& msg) {
  const std::string repro = wire::get(msg, "repro");
  const std::string trace = wire::get(msg, "trace");
  if (repro.empty() && trace.empty()) return;
  auto& entry = artifacts_[key];
  if (!repro.empty()) entry["repro"] = repro;
  if (!trace.empty()) entry["trace"] = trace;
  const std::string worker = wire::get(msg, "worker");
  if (!worker.empty()) entry["worker"] = worker;
}

bool Farm::accept_result(const std::string& key, const std::string& line,
                         const std::map<std::string, std::string>& msg) {
  const auto index = queue_.find(key);
  if (!index) {
    // Not an item of this grid (e.g. a worker outliving a daemon restart
    // with a narrower grid). Ack so the worker clears its spool; record
    // nothing — an unknown key must never grow the merge.
    ++report_.late_results;
    return true;
  }
  const ItemState state = queue_.item(*index).state;
  if (state == ItemState::Done) {
    ++report_.duplicate_results;  // idempotent resubmission: drop, ack
    return true;
  }
  if (state == ItemState::Failed) {
    // The daemon already recorded a synthetic outcome for this key; a late
    // real result would make the merge nondeterministic (two different
    // lines for one key), so the synthetic row wins and the late one is
    // dropped. Deterministically one row per key, always.
    ++report_.late_results;
    return true;
  }
  std::string parsed_key;
  harness::TrialOutcome outcome;
  if (!harness::parse_checkpoint_line(line, &parsed_key, &outcome) ||
      parsed_key != key) {
    ++report_.rejected_results;
    std::fprintf(stderr,
                 "farm: rejecting result for %s: line does not parse or "
                 "names a different key\n",
                 key.c_str());
    return false;
  }
  if (!support::append_line_durably(daemon_shard_path(), line)) {
    std::fprintf(stderr, "farm: cannot append remote result to %s\n",
                 daemon_shard_path().c_str());
    return false;  // no ack: the worker keeps its spool copy and retries
  }
  queue_.mark_done(key);
  ++report_.remote_results;
  ++report_.done;
  durable_dirty_ = true;
  note_artifacts(key, msg);
  return true;
}

std::string Farm::handle_request(
    const std::map<std::string, std::string>& msg, RemotePeer* peer) {
  const std::string type = wire::get(msg, "type");
  const std::string rid = wire::get(msg, "rid");
  using Fields = std::vector<std::pair<std::string, std::string>>;
  const auto reply = [&](Fields fields) {
    fields.insert(fields.begin() + 1, {"rid", rid});
    return wire::encode(fields);
  };

  if (type == "hello") {
    peer->name = wire::get(msg, "name");
    ++report_.remote_workers_seen;
    // Heartbeat cadence: three per watchdog window keeps one lost
    // heartbeat from expiring a healthy lease.
    const std::uint64_t hb =
        options_.watchdog_ms == 0
            ? 1000
            : std::max<std::uint64_t>(options_.watchdog_ms / 3, 50);
    return reply({{"type", "helloed"},
                  {"heartbeat_ms", std::to_string(hb)},
                  {"retries", std::to_string(options_.sweep.max_attempts)}});
  }
  if (type == "next") {
    if (queue_.all_settled()) return reply({{"type", "done"}});
    const auto index = queue_.acquire(kRemoteSlot, /*pid=*/-1);
    if (!index) {
      std::uint64_t poll_ms = 200;
      if (const auto next = queue_.next_deadline_in()) {
        poll_ms = std::min<std::uint64_t>(*next + 1, 500);
      }
      return reply({{"type", "idle"}, {"poll_ms", std::to_string(poll_ms)}});
    }
    const WorkItem& item = queue_.item(*index);
    std::erase_if(peer->leases, [this](const auto& lease) {
      return !queue_.lease_current(lease.first, lease.second);
    });
    peer->leases.emplace_back(*index, item.attempts);
    return reply({{"type", "lease"},
                  {"key", item.key},
                  {"epoch", std::to_string(item.attempts)},
                  {"config", harness::serialize_config(item.config)}});
  }
  if (type == "heartbeat") {
    const auto index = queue_.find(wire::get(msg, "key"));
    const auto epoch = static_cast<std::uint32_t>(
        std::strtoul(wire::get(msg, "epoch").c_str(), nullptr, 10));
    if (index && queue_.lease_current(*index, epoch)) {
      return reply({{"type", "ok"}});
    }
    return reply({{"type", "stale"}});
  }
  if (type == "result") {
    const std::string key = wire::get(msg, "key");
    const std::size_t rejected_before = report_.rejected_results;
    if (accept_result(key, wire::get(msg, "line"), msg)) {
      return reply({{"type", "ok"}});
    }
    // Parse-rejected lines are the worker's bug (the frame checksum passed,
    // so the bytes arrived intact): telling it to retry would loop forever.
    // A daemon-side append failure, by contrast, is worth retrying.
    return reply(
        {{"type",
          report_.rejected_results > rejected_before ? "reject" : "retry"}});
  }
  if (type == "fail") {
    // Worker-side trial crash (its fork died unrecorded). Epoch-gated: a
    // stale failure report must not burn the current lease.
    const auto index = queue_.find(wire::get(msg, "key"));
    const auto epoch = static_cast<std::uint32_t>(
        std::strtoul(wire::get(msg, "epoch").c_str(), nullptr, 10));
    if (index && queue_.lease_current(*index, epoch)) {
      ++report_.remote_failures;
      const WorkItem item = queue_.item(*index);
      if (!queue_.fail(*index)) record_exhausted(item, false);
      return reply({{"type", "ok"}});
    }
    return reply({{"type", "stale"}});
  }
  if (type == "status") {
    return reply({{"type", "status"}, {"json", status_json()}});
  }
  if (type == "results") {
    std::string lines;
    for (const auto& [key, line] : scan_shards(shard_dir()).lines) {
      lines += line;
      lines += '\n';
    }
    return reply({{"type", "results"}, {"lines", lines}});
  }
  if (type == "artifacts") {
    return reply({{"type", "artifacts"}, {"json", artifacts_json()}});
  }
  if (type == "follow") {
    peer->follow = true;
    durable_dirty_ = true;  // force a push so the subscriber catches up
    return reply({{"type", "ok"}});
  }
  return reply({{"type", "error"},
                {"detail", "unknown request type '" + type + "'"}});
}

// ---------------------------------------------------------------------------
// Event loop plumbing.

void Farm::pump_remote(Remote* remote) {
  // Drain every frame that is already buffered; Timeout means "no more".
  for (;;) {
    std::string payload;
    const RecvStatus status = remote->conn->recv(&payload, 0);
    if (status == RecvStatus::Timeout) return;
    if (status == RecvStatus::Closed) {
      remote->conn->close();
      return;
    }
    if (status == RecvStatus::Corrupt) {
      ++report_.corrupt_frames;
      std::fprintf(stderr,
                   "farm: dropping connection%s: %s at byte offset %llu — "
                   "its lease, if any, is re-queued\n",
                   remote->peer.name.empty()
                       ? ""
                       : (" from " + remote->peer.name).c_str(),
                   remote->conn->corrupt_detail().c_str(),
                   static_cast<unsigned long long>(
                       remote->conn->corrupt_offset()));
      remote->conn->close();
      return;
    }
    std::map<std::string, std::string> msg;
    if (!wire::decode(payload, &msg)) {
      // The checksum passed but the payload is not a protocol message: a
      // peer speaking the wrong protocol. Refuse the connection.
      ++report_.corrupt_frames;
      remote->conn->close();
      return;
    }
    const std::string response = handle_request(msg, &remote->peer);
    if (!response.empty() && !remote->conn->send(response)) {
      remote->conn->close();
      return;
    }
  }
}

void Farm::push_follow_lines(bool final_push) {
  if (!durable_dirty_ && !final_push) return;
  const bool any_follower =
      std::any_of(remotes_.begin(), remotes_.end(),
                  [](const Remote& r) { return r.peer.follow; });
  durable_dirty_ = false;
  if (!any_follower) return;
  const ShardScan scan = scan_shards(shard_dir());

  for (auto& remote : remotes_) {
    if (!remote.peer.follow || remote.conn->fd() < 0) continue;
    bool alive = true;
    for (const auto& [key, line] : scan.lines) {
      if (!remote.peer.sent_keys.insert(key).second) continue;
      if (!remote.conn->send(
              wire::encode({{"type", "line"}, {"line", line}}))) {
        alive = false;
        break;
      }
    }
    if (final_push && alive) {
      remote.conn->send(wire::encode({{"type", "end"}}));
    }
    if (!alive) remote.conn->close();
  }
}

int Farm::wait_timeout_ms() const {
  // +1: wake just past the deadline, not a millisecond before it.
  const auto next = queue_.next_deadline_in();
  int wait = next ? poll_ms(*next + 1) : -1;
  // A backoff that ends between spawn_ready_workers()'s acquire() and the
  // clock read above is in neither answer. has_eligible() reads the clock
  // later still and sees such an item: never block while a free slot
  // could take it.
  const bool slot_free = std::any_of(
      slots_.begin(), slots_.end(), [](const Slot& s) { return s.pid == -1; });
  if (slot_free && queue_.has_eligible()) return 0;
  for (const Slot& slot : slots_) {
    if (slot.pid != -1) wait = slot.pidfd.cap_timeout(wait);
  }
  return wait;
}

void Farm::pump_events(int timeout_ms) {
  enum class Source { Listener, Remote, Slot };
  std::vector<pollfd> pfds;
  std::vector<std::pair<Source, std::size_t>> owner;  // parallel to pfds
  const auto watch = [&](int fd, Source source, std::size_t index) {
    pfds.push_back(pollfd{fd, POLLIN, 0});
    owner.emplace_back(source, index);
  };
  Listener* const listeners[] = {socket_listener_.get(),
                                 worker_listener_.get()};
  for (std::size_t i = 0; i < std::size(listeners); ++i) {
    if (listeners[i]) watch(listeners[i]->fd(), Source::Listener, i);
  }
  for (std::size_t i = 0; i < remotes_.size(); ++i) {
    if (remotes_[i].conn->fd() >= 0) {
      watch(remotes_[i].conn->fd(), Source::Remote, i);
    }
  }
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].pid != -1 && slots_[slot].pidfd.fd() >= 0) {
      watch(slots_[slot].pidfd.fd(), Source::Slot, slot);
    }
  }
  OMX_CHECK(timeout_ms >= 0 || !pfds.empty(),
            "farm: the event loop would block with nothing to wake it");
  if (::poll(pfds.data(), pfds.size(), timeout_ms) > 0) {
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto [source, index] = owner[i];
      switch (source) {
        case Source::Listener:
          if (auto conn = listeners[index]->accept(0)) {
            remotes_.push_back(Remote{std::move(conn), RemotePeer{}});
          }
          break;
        case Source::Remote:
          pump_remote(&remotes_[index]);
          break;
        case Source::Slot:
          reap_worker(index, /*blocking=*/false);
          break;
      }
    }
  }
  // A worker without a pidfd cannot wake the poll; its cap_timeout()
  // bounded the sleep, so its exit is seen here at most that late.
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].pid != -1 && slots_[slot].pidfd.fd() < 0) {
      reap_worker(slot, /*blocking=*/false);
    }
  }
  for (const Remote& remote : remotes_) {
    if (remote.conn->fd() < 0) fail_abandoned_leases(remote.peer);
  }
  std::erase_if(remotes_,
                [](const Remote& r) { return r.conn->fd() < 0; });
}

// ---------------------------------------------------------------------------
// Artifacts index (repro/trace capture paths per key).

std::string Farm::artifacts_json() const {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [key, fields] : artifacts_) {
    if (!first) os << ",";
    first = false;
    os << "\"" << harness::json_escape(key) << "\":{";
    bool inner_first = true;
    for (const auto& [k, v] : fields) {
      if (!inner_first) os << ",";
      inner_first = false;
      os << "\"" << harness::json_escape(k) << "\":\""
         << harness::json_escape(v) << "\"";
    }
    os << "}";
  }
  os << "}";
  return os.str();
}

void Farm::write_artifacts_index() {
  // Local captures: Sweep writes <repro_dir>/<key>.repro (+ .trace) inside
  // the forked worker; the daemon shares that directory, so existence is
  // the index. Remote captures were reported in the result messages and
  // already sit in artifacts_.
  std::error_code ec;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::string& key = queue_.item(i).key;
    const std::string stem = options_.sweep.repro_dir + "/" + key;
    if (fs::exists(stem + ".repro", ec)) {
      artifacts_[key]["repro"] = stem + ".repro";
    }
    if (fs::exists(stem + ".trace", ec)) {
      artifacts_[key]["trace"] = stem + ".trace";
    }
  }
  if (!support::publish_file(artifacts_path(), artifacts_json() + "\n")) {
    std::fprintf(stderr, "farm: cannot publish %s\n",
                 artifacts_path().c_str());
  }
}

// ---------------------------------------------------------------------------
// The daemon loop.

FarmReport Farm::run() {
  // A client vanishing mid-response must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
  run_started_ = std::chrono::steady_clock::now();
  resume_from_shards();
  if (options_.serve_socket) {
    // A farm runs without its socket rather than not at all (e.g. a state
    // directory whose path exceeds the AF_UNIX limit).
    try {
      socket_listener_ =
          std::make_unique<Listener>(socket_endpoint_for(options_.dir));
    } catch (const PreconditionError& e) {
      std::fprintf(stderr, "farm: %s — farm.sock disabled\n", e.what());
    }
  }
  if (!options_.listen.empty()) {
    worker_listener_ =
        std::make_unique<Listener>(Endpoint::parse(options_.listen));
    // Publish the resolved endpoint (port 0 → real port) for scripts and
    // workers that only know the farm directory.
    support::publish_file(endpoint_path_for(options_.dir),
                          worker_listener_->endpoint().to_string() + "\n");
  }

  while (!queue_.all_settled()) {
    kill_expired_leases();
    spawn_ready_workers();
    // Push before blocking: lines the last pass made durable (reaps,
    // remote results, exhausted items) must not wait for the next event.
    push_follow_lines(false);
    pump_events(wait_timeout_ms());
  }
  // A fork still running here holds an item another worker recorded first
  // (a remote submission beat it); its line could only deduplicate. Kill
  // and reap it, so run() leaves no child of its own behind.
  for (std::size_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].pid == -1) continue;
    ::kill(static_cast<pid_t>(slots_[slot].pid), SIGKILL);
    reap_worker(slot, /*blocking=*/true);
  }

  const ShardScan merged = merge_shards(shard_dir(), merged_path());
  report_.torn_shard_lines += merged.torn_lines;
  report_.merged_path = merged_path();
  report_.releases = queue_.retries();
  write_artifacts_index();
  report_.wall_ms =
      ms_between(*run_started_, std::chrono::steady_clock::now());
  push_follow_lines(/*final_push=*/true);

  // Linger briefly so workers — connected or just now reconnecting after a
  // severed link — hear "done" instead of timing out against a vanished
  // daemon (their reconnect deadline would still end the run correctly —
  // this just ends it politely and promptly).
  const std::uint64_t linger_until =
      steady_now_ms() + options_.shutdown_linger_ms;
  for (std::uint64_t now = steady_now_ms();
       worker_listener_ && now < linger_until; now = steady_now_ms()) {
    pump_events(poll_ms(linger_until - now));
    push_follow_lines(/*final_push=*/true);
  }

  socket_listener_.reset();  // unlinks farm.sock
  if (worker_listener_) {
    ::unlink(endpoint_path_for(options_.dir).c_str());
    worker_listener_.reset();
  }
  for (auto& remote : remotes_) remote.conn->close();
  remotes_.clear();
  return report_;
}

namespace {

/// Dial a farm endpoint and send one request; throws PreconditionError when
/// nobody listens there.
std::unique_ptr<Conn> dial_farm(const Endpoint& ep, const std::string& type) {
  auto conn = dial(ep);
  if (!conn || !conn->send(wire::encode({{"type", type}, {"rid", "1"}}))) {
    throw PreconditionError("farm: no daemon listening at " +
                            ep.to_string());
  }
  return conn;
}

/// Receive the next decodable message into *msg: Ok, or Timeout when
/// `timeout_ms` passed without one, or Closed. Throws CorruptInputError on
/// bad bytes.
RecvStatus next_message(Conn* conn, const Endpoint& ep, int timeout_ms,
                        std::map<std::string, std::string>* msg) {
  for (;;) {
    std::string payload;
    const RecvStatus status = conn->recv(&payload, timeout_ms);
    if (status == RecvStatus::Corrupt) {
      throw CorruptInputError(ep.to_string(), conn->corrupt_offset(),
                              "transport frame: " + conn->corrupt_detail());
    }
    msg->clear();
    if (status != RecvStatus::Ok || wire::decode(payload, msg)) return status;
  }
}

}  // namespace

std::string Farm::query(const Endpoint& ep, const std::string& request) {
  const auto conn = dial_farm(ep, request);
  std::map<std::string, std::string> msg;
  if (next_message(conn.get(), ep, 5000, &msg) != RecvStatus::Ok) {
    throw PreconditionError("farm: no answer from " + ep.to_string());
  }
  const std::string type = wire::get(msg, "type");
  if (type == "results") return wire::get(msg, "lines");
  if (type == "status" || type == "artifacts") {
    return wire::get(msg, "json") + "\n";
  }
  return "{\"error\":\"" + harness::json_escape(wire::get(msg, "detail")) +
         "\"}\n";
}

bool Farm::follow(const Endpoint& ep,
                  const std::function<void(const std::string&)>& on_line) {
  const auto conn = dial_farm(ep, "follow");
  for (;;) {
    std::map<std::string, std::string> msg;
    const RecvStatus status = next_message(conn.get(), ep, 1000, &msg);
    if (status == RecvStatus::Closed) return false;
    if (status == RecvStatus::Timeout) continue;  // a quiet farm is alive
    const std::string type = wire::get(msg, "type");
    if (type == "line") on_line(wire::get(msg, "line"));
    if (type == "end") return true;
  }
}

}  // namespace omx::farm
