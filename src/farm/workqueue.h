// Leased work queue for the sweep farm.
//
// A work item is one sweep cell (a full ExperimentConfig), keyed by its
// canonical config hash. The queue owns the retry/backoff policy that makes
// the farm's failure story stronger than the in-process verdict taxonomy:
//
//   * acquire() leases the earliest eligible pending item to a worker slot;
//     a lease carries a watchdog deadline (now + watchdog_ms), fixed at
//     grant: nothing extends it, so a lease held by a local fork and one
//     held by a heartbeating remote worker end at the same time;
//   * complete() retires a leased item (its result line is already durable
//     in a shard before the daemon calls this);
//   * fail() returns a leased item to the queue — a crashed (signaled) or
//     hung (watchdog-killed) worker burns only its lease. Each failure
//     increments the item's attempt count; the item becomes eligible again
//     after an exponential backoff (backoff_base_ms << (attempts-1), capped)
//     so a deterministic crasher cannot hot-loop the farm. Once the retry
//     budget (max_attempts) is exhausted the item is marked Failed and the
//     caller records a synthetic outcome for it;
//   * expired() lists leases whose watchdog deadline has passed so the
//     daemon can SIGKILL the hung worker and fail() the lease. Remote
//     leases (no pid to kill) are failed directly: a silent worker's item
//     re-queues and its late result, if it ever arrives, deduplicates.
//
// Lease epochs: an item's attempt counter doubles as a monotonic lease
// epoch. Every message a remote worker sends about a lease (heartbeat,
// trial-failure report) carries the epoch it was granted; lease_current()
// compares it against the current attempts so a message from a superseded
// lease — delayed, duplicated, or from a worker that was presumed dead and
// re-leased — is answered "stale" and can never fail the *current* lease. Result submission is deliberately NOT epoch-gated: the engine is
// deterministic, so a stale lease's result line is byte-identical to the
// one the current lease would produce, and accepting it early just saves
// work (the current lease's own submission then deduplicates).
//
// Re-runs keep the item's original config (and therefore its seed): the
// engine is deterministic, so a retried trial converges to exactly the line
// a single-process sweep would have produced — byte-identical merges. The
// *seed-perturbed* retry ladder for transient verdicts (timeout/round_cap)
// lives inside the worker's Sweep shell, same as single-process runs.
//
// Time is injected (a now-milliseconds function) so lease expiry and
// backoff are unit-testable without sleeping. The queue is single-owner
// (the daemon's event loop); it is not thread-safe and does not need to be.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace omx::farm {

enum class ItemState {
  Pending,   // waiting (possibly in backoff) for a worker slot
  Leased,    // running in a worker; lease carries a watchdog deadline
  Done,      // result line durable in a shard
  Failed,    // retry budget exhausted; synthetic outcome recorded
};

struct WorkItem {
  std::string key;  // canonical config hash (16 hex digits)
  harness::ExperimentConfig config;
  ItemState state = ItemState::Pending;
  std::uint32_t attempts = 0;        // leases granted so far
  std::uint64_t eligible_at_ms = 0;  // backoff gate (0 = immediately)
  // Lease bookkeeping (valid while state == Leased):
  int worker_slot = -1;
  std::int64_t worker_pid = -1;
  std::uint64_t lease_deadline_ms = 0;
  bool watchdog_fired = false;  // this lease was killed by the watchdog
};

struct WorkQueueOptions {
  /// Lease watchdog: a lease not settled within this many ms of its grant
  /// is failed (a local worker is SIGKILLed first). 0 = no watchdog.
  std::uint64_t watchdog_ms = 0;
  /// Total leases per item (1 = no farm-level retry).
  std::uint32_t max_attempts = 3;
  /// First retry waits this long; doubles per further attempt.
  std::uint64_t backoff_base_ms = 100;
  /// Backoff ceiling.
  std::uint64_t backoff_cap_ms = 5000;
};

class WorkQueue {
 public:
  using Clock = std::function<std::uint64_t()>;  // monotonic ms

  WorkQueue(WorkQueueOptions options, Clock now);

  /// Add a new pending item. Duplicate keys are rejected (returns false) —
  /// the grid expansion must not double-run a cell.
  bool add(std::string key, harness::ExperimentConfig config);

  /// Mark a key done without running it (resume: its line was found in a
  /// shard). Returns false if the key is unknown.
  bool mark_done(const std::string& key);

  /// Lease the earliest eligible pending item to `worker_slot`, or nullopt
  /// if none is eligible right now. The item's attempt count is
  /// incremented; the lease deadline is now + watchdog_ms.
  std::optional<std::size_t> acquire(int worker_slot, std::int64_t pid);

  /// Record the worker pid a lease landed in (the daemon only learns the
  /// pid after acquire(), once fork() returns).
  void set_lease_pid(std::size_t index, std::int64_t pid) {
    items_.at(index).worker_pid = pid;
  }

  /// Retire a leased item whose result is durable.
  void complete(std::size_t index);

  /// Fail the current lease (worker crashed or was watchdog-killed).
  /// Returns true if the item was re-queued (with backoff), false if its
  /// retry budget is exhausted and it is now Failed.
  bool fail(std::size_t index);

  /// Index of the item with this key, or nullopt if unknown.
  std::optional<std::size_t> find(const std::string& key) const;

  /// True iff the item is still leased under `epoch` (its attempts count)
  /// and its watchdog has not fired: the daemon's answer to a remote
  /// worker's heartbeat or failure report. Deliberately does not move the
  /// lease deadline.
  bool lease_current(std::size_t index, std::uint32_t epoch) const;

  /// Indices of leased items whose watchdog deadline has passed (marks
  /// them watchdog_fired so the daemon kills each hung worker once).
  std::vector<std::size_t> expired();

  /// Milliseconds until the next item becomes eligible or the next lease
  /// expires (for the daemon's poll timeout); nullopt if nothing is timed.
  /// A pending item whose backoff has already ended is not a deadline: see
  /// has_eligible().
  std::optional<std::uint64_t> next_deadline_in() const;

  /// True iff some pending item could be leased right now. The daemon
  /// checks this after acquire() came back empty, because a backoff can end
  /// between that call's clock read and next_deadline_in()'s, and then
  /// neither of the two reports the item.
  bool has_eligible() const;

  bool all_settled() const;  // every item Done or Failed
  std::size_t size() const { return items_.size(); }
  const WorkItem& item(std::size_t index) const { return items_[index]; }
  std::size_t count(ItemState s) const;
  /// Total farm-level re-leases (attempts beyond each item's first).
  std::uint64_t retries() const { return retries_; }

 private:
  WorkQueueOptions options_;
  Clock now_;
  std::vector<WorkItem> items_;
  std::vector<std::string> keys_;  // insertion order, for duplicate checks
  std::uint64_t retries_ = 0;
};

}  // namespace omx::farm
