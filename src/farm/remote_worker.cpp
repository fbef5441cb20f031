#include "farm/remote_worker.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "farm/pidfd.h"
#include "farm/shard.h"
#include "farm/test_hooks.h"
#include "support/check.h"
#include "support/durable_file.h"

namespace omx::farm {

namespace fs = std::filesystem;

namespace {

/// Per-attempt wait for an RPC response before re-sending the request.
/// Short enough that a dropped response costs little, long enough that a
/// delay-chaos'd daemon usually answers in one attempt.
constexpr int kResponseTimeoutMs = 750;

[[noreturn]] void throw_corrupt(const Conn& conn, const std::string& where) {
  throw CorruptInputError(where, conn.corrupt_offset(),
                          "transport frame: " + conn.corrupt_detail());
}

}  // namespace

RemoteWorker::RemoteWorker(RemoteWorkerOptions options)
    : options_(std::move(options)),
      endpoint_(Endpoint::parse(options_.endpoint)) {
  OMX_REQUIRE(!options_.dir.empty(), "remote worker needs a state directory");
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  OMX_REQUIRE(!ec, "remote worker: cannot create " + options_.dir + ": " +
                       ec.message());
  if (options_.name.empty()) {
    options_.name = "worker-" + std::to_string(::getpid());
  }
  // The shard line IS the checkpoint; never double-record.
  options_.sweep.checkpoint_path.clear();
}

void RemoteWorker::drop_conn() {
  if (conn_) {
    conn_->close();
    conn_.reset();
  }
}

bool RemoteWorker::ensure_connected() {
  if (conn_) return true;
  std::uint64_t backoff = options_.backoff_base_ms;
  if (!connect_fail_since_) connect_fail_since_ = steady_now_ms();
  for (;;) {
    auto conn = dial_with_chaos(endpoint_, options_.chaos);
    if (conn) {
      // Hello handshake, inline (rpc() would recurse into this function).
      // A chaos-dropped hello or reply falls out at the deadline and the
      // whole dial is retried.
      const std::string rid = std::to_string(++rid_);
      bool helloed = false;
      if (conn->send(wire::encode({{"type", "hello"},
                                   {"rid", rid},
                                   {"name", options_.name}}))) {
        const std::uint64_t deadline = steady_now_ms() + 1000;
        while (steady_now_ms() < deadline) {
          std::string payload;
          const RecvStatus st = conn->recv(&payload, 100);
          if (st == RecvStatus::Corrupt) {
            throw_corrupt(*conn, options_.endpoint);
          }
          if (st == RecvStatus::Closed) break;
          if (st != RecvStatus::Ok) continue;
          std::map<std::string, std::string> msg;
          if (!wire::decode(payload, &msg) || wire::get(msg, "rid") != rid ||
              wire::get(msg, "type") != "helloed") {
            continue;  // stale frame from a previous connection's window
          }
          if (const std::string hb = wire::get(msg, "heartbeat_ms");
              !hb.empty()) {
            heartbeat_ms_ = std::strtoull(hb.c_str(), nullptr, 10);
          }
          if (const std::string retries = wire::get(msg, "retries");
              !retries.empty()) {
            // Match the daemon's in-trial retry ladder so a remote trial
            // produces the byte-identical line a local fork would.
            options_.sweep.max_attempts = static_cast<std::uint32_t>(
                std::strtoul(retries.c_str(), nullptr, 10));
          }
          helloed = true;
          break;
        }
      }
      if (helloed) {
        conn_ = std::move(conn);
        if (connected_once_) ++report_.reconnects;
        connected_once_ = true;
        connect_fail_since_.reset();
        return true;
      }
    }
    if (steady_now_ms() - *connect_fail_since_ >
        options_.reconnect_deadline_ms) {
      connect_fail_since_.reset();
      return false;
    }
    ::usleep(static_cast<useconds_t>(backoff * 1000));
    backoff = std::min(backoff * 2, options_.backoff_cap_ms);
  }
}

bool RemoteWorker::rpc(const Fields& fields,
                       std::map<std::string, std::string>* response) {
  const std::uint64_t start = steady_now_ms();
  for (;;) {
    if (!ensure_connected()) return false;
    const std::string rid = std::to_string(++rid_);
    Fields with_rid = fields;
    with_rid.insert(with_rid.begin() + 1, {"rid", rid});
    if (!conn_->send(wire::encode(with_rid))) {
      drop_conn();
    } else {
      const std::uint64_t deadline = steady_now_ms() + kResponseTimeoutMs;
      for (;;) {
        const std::uint64_t now = steady_now_ms();
        if (now >= deadline) break;  // response lost — re-send the request
        std::string payload;
        const RecvStatus st =
            conn_->recv(&payload, static_cast<int>(deadline - now));
        if (st == RecvStatus::Corrupt) {
          throw_corrupt(*conn_, options_.endpoint);
        }
        if (st == RecvStatus::Closed) {
          drop_conn();
          break;  // severed mid-exchange — reconnect and re-send
        }
        if (st != RecvStatus::Ok) continue;
        std::map<std::string, std::string> msg;
        if (!wire::decode(payload, &msg)) continue;
        // A duplicated or delayed response answers an rid we have already
        // moved past; discard it — this is what keeps a lossy link from
        // desynchronizing the request/response stream.
        if (wire::get(msg, "rid") != rid) continue;
        *response = std::move(msg);
        return true;
      }
    }
    if (steady_now_ms() - start > options_.reconnect_deadline_ms) {
      return false;
    }
  }
}

bool RemoteWorker::submit_line(const std::string& key, std::uint32_t epoch,
                               const std::string& line, bool from_spool) {
  Fields fields = {{"type", "result"},
                   {"key", key},
                   {"epoch", std::to_string(epoch)},
                   {"line", line},
                   {"worker", options_.name}};
  // Report capture paths so the daemon's artifacts index can point at this
  // worker's files (they are local to this host; the worker name says
  // where to look).
  if (!options_.sweep.repro_dir.empty()) {
    const std::string stem = options_.sweep.repro_dir + "/" + key;
    std::error_code ec;
    if (fs::exists(stem + ".repro", ec)) fields.push_back({"repro", stem + ".repro"});
    if (fs::exists(stem + ".trace", ec)) fields.push_back({"trace", stem + ".trace"});
  }
  const std::uint64_t start = steady_now_ms();
  for (;;) {
    std::map<std::string, std::string> response;
    if (!rpc(fields, &response)) return false;  // spool keeps the line
    const std::string type = wire::get(response, "type");
    if (type == "ok") {
      if (from_spool) {
        ++report_.resubmitted;
      } else {
        ++report_.submitted;
      }
      return true;
    }
    if (type == "reject") {
      // The daemon read the line intact (frame checksum passed) and still
      // refused it: re-sending the same bytes cannot help.
      std::fprintf(stderr, "remote worker: daemon rejected result for %s\n",
                   key.c_str());
      return true;
    }
    // "retry": transient daemon-side trouble (e.g. its shard append
    // failed). Keep the spool copy and re-ask, bounded like a reconnect.
    if (steady_now_ms() - start > options_.reconnect_deadline_ms) {
      return false;
    }
    ::usleep(100 * 1000);
  }
}

void RemoteWorker::empty_spool() {
  std::error_code ec;
  fs::resize_file(spool_path(), 0, ec);  // no spool yet is empty too
}

bool RemoteWorker::resubmit_spool() {
  // A trial killed mid-append leaves a torn tail: keep the whole lines.
  std::vector<std::pair<std::string, std::string>> spooled;  // key, line
  std::size_t torn = 0;
  support::repair_lines(
      spool_path(),
      [&](const std::string& line) {
        std::string key;
        harness::TrialOutcome outcome;
        if (!harness::parse_checkpoint_line(line, &key, &outcome)) {
          return false;
        }
        spooled.emplace_back(key, line);
        return true;
      },
      &torn);
  for (const auto& [key, line] : spooled) {
    // Epoch 0: the granting lease is long gone, but result submission is
    // key-based by design — the daemon dedups if the line already landed.
    if (!submit_line(key, 0, line, /*from_spool=*/true)) return false;
  }
  empty_spool();
  return true;
}

bool RemoteWorker::run_trial(const std::string& key, std::uint32_t epoch,
                             const harness::ExperimentConfig& cfg) {
  ++report_.trials;
  // Built once in this process, the artifacts reach every trial fork.
  harness::prebuild_shared_artifacts(cfg);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "remote worker: fork failed: %s\n",
                 std::strerror(errno));
    std::map<std::string, std::string> response;
    return rpc({{"type", "fail"},
                {"key", key},
                {"epoch", std::to_string(epoch)}},
               &response);
  }
  if (pid == 0) {
    // The same trial body local forks run, its hooks keyed by the lease
    // epoch so "crash on first attempt" means the item's first lease
    // anywhere. Its line lands durably in the spool, empty until now.
    run_trial_process(options_.sweep, key, epoch, cfg, spool_path());
  }

  // Sleep until the trial exits (its pidfd fires) or the next heartbeat is
  // due; the holder closes the pidfd on every return below.
  const PidFd pidfd(pid);
  std::uint64_t next_heartbeat = steady_now_ms() + heartbeat_ms_;
  int status = 0;
  for (;;) {
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0) {
      status = 0;
      break;
    }
    const std::uint64_t now = steady_now_ms();
    if (now < next_heartbeat) {
      const auto until_heartbeat = static_cast<int>(std::min<std::uint64_t>(
          next_heartbeat - now, std::numeric_limits<int>::max()));
      pollfd exit_event{pidfd.fd(), POLLIN, 0};
      ::poll(&exit_event, 1, pidfd.cap_timeout(until_heartbeat));
    } else {
      std::map<std::string, std::string> response;
      if (!rpc({{"type", "heartbeat"},
                {"key", key},
                {"epoch", std::to_string(epoch)}},
               &response)) {
        // Daemon unreachable past the deadline: do not leave an orphan
        // trial running against a farm that no longer exists.
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        empty_spool();
        return false;
      }
      ++report_.heartbeats;
      if (wire::get(response, "type") == "stale") {
        // The lease was superseded (we were presumed dead and the item
        // re-leased). Stop burning CPU on it; if our trial had already
        // finished, the spool/submit path would have deduped anyway.
        ++report_.stale_leases;
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        empty_spool();
        return true;
      }
      next_heartbeat = steady_now_ms() + heartbeat_ms_;
    }
  }

  if (WIFEXITED(status) && is_recorded_exit(WEXITSTATUS(status))) {
    std::string line;
    {
      std::ifstream in(spool_path());
      std::getline(in, line);
    }
    std::string parsed_key;
    harness::TrialOutcome outcome;
    if (harness::parse_checkpoint_line(line, &parsed_key, &outcome) &&
        parsed_key == key) {
      // Durable before submit: the fork fsynced the line into the spool,
      // so it survives any crash between here and the daemon's ack, and
      // the restarted worker resubmits it.
      if (crash_after_write_hook_hits(key)) ::_exit(9);
      if (!submit_line(key, epoch, line, /*from_spool=*/false)) return false;
      empty_spool();
      return true;
    }
    // Exit said "recorded" but the spool disagrees — treat as a crash.
  }
  empty_spool();
  std::map<std::string, std::string> response;
  if (!rpc({{"type", "fail"}, {"key", key}, {"epoch", std::to_string(epoch)}},
           &response)) {
    return false;
  }
  ++report_.failures_reported;
  return true;
}

RemoteWorkerReport RemoteWorker::run() {
  ::signal(SIGPIPE, SIG_IGN);
  if (!resubmit_spool()) return report_;
  for (;;) {
    std::map<std::string, std::string> response;
    if (!rpc({{"type", "next"}}, &response)) break;  // gave up
    const std::string type = wire::get(response, "type");
    if (type == "done") {
      report_.daemon_finished = true;
      break;
    }
    if (type == "idle") {
      std::uint64_t poll_ms = options_.idle_poll_ms;
      if (const std::string p = wire::get(response, "poll_ms"); !p.empty()) {
        poll_ms = std::min<std::uint64_t>(
            std::strtoull(p.c_str(), nullptr, 10), options_.idle_poll_ms);
      }
      ::usleep(static_cast<useconds_t>(std::max<std::uint64_t>(poll_ms, 10) *
                                       1000));
      continue;
    }
    if (type == "lease") {
      const std::string key = wire::get(response, "key");
      const auto epoch = static_cast<std::uint32_t>(std::strtoul(
          wire::get(response, "epoch").c_str(), nullptr, 10));
      harness::ExperimentConfig cfg;
      std::string error;
      if (!harness::parse_config(wire::get(response, "config"), &cfg,
                                 &error)) {
        // The frame checksum passed, so this is a protocol-level surprise
        // (e.g. daemon newer than us). Burn the lease promptly rather than
        // let the watchdog time it out.
        std::fprintf(stderr,
                     "remote worker: cannot parse leased config for %s: %s\n",
                     key.c_str(), error.c_str());
        std::map<std::string, std::string> ignored;
        if (!rpc({{"type", "fail"},
                  {"key", key},
                  {"epoch", std::to_string(epoch)}},
                 &ignored)) {
          break;
        }
        continue;
      }
      if (!run_trial(key, epoch, cfg)) break;
      continue;
    }
    // Unknown response type: ignore and re-ask.
  }
  drop_conn();
  return report_;
}

}  // namespace omx::farm
