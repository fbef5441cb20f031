// Adaptive full-information adversary interface.
//
// Ordering within a round (paper §2): local computation phase (coins drawn)
// -> adversary observes *everything* (all process states via probes it was
// wired with, all coins drawn so far, every in-flight message) and acts ->
// communication phase delivers the surviving messages.
//
// The engine enforces the omission fault model: an adversary may
//   * corrupt a process at any time, as long as the total stays <= t;
//   * omit (drop) a message only if its sender or receiver is corrupted;
//   * never drop a self-delivery (a process trivially keeps its own state).
// Illegal actions throw AdversaryViolation — experiments cannot silently
// exceed the model's power.
//
// The context offers one way to read the wire and one way to omit:
//   * for_each_message(fn) — full information: every in-flight message
//     with its payload, in ascending wire order (MessagePlane::visit_wire);
//   * drop_links(S, R, pred) — the one omission primitive: a serial walk,
//     in ascending wire order, over just the messages sent by S or
//     addressed to R (MessagePlane::visit_links), usually with S and R the
//     corrupted set. silence() / silence_many() and every strategy's drops
//     go through it, so the cost of an adversary phase scales with the
//     corrupted processes' links rather than with the whole wire.
// Dropping by content is a read walk followed by an omission walk: record
// what for_each_message selects, then hand drop_links a predicate that
// replays the selection (both walks run in ascending index order).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"
#include "sim/message.h"
#include "sim/message_plane.h"

namespace omx::sim {

namespace referee {
// Fault-injection referee self-test layer (sim/fault_injection.h): the only
// code allowed to bypass the legality checks below, so the test suite can
// prove the engine detects every class of illegal adversarial action.
struct Backdoor;
}  // namespace referee

/// Corruption bookkeeping shared between runner and adversary context. The
/// corrupted set is a ProcessSet, so it serves both membership tests and
/// the link walk's sorted member list.
class FaultState {
 public:
  FaultState(std::uint32_t n, std::uint32_t budget)
      : corrupted_(n), budget_(budget) {}

  bool is_corrupted(ProcessId p) const { return corrupted_.contains(p); }
  std::uint32_t num_corrupted() const {
    return static_cast<std::uint32_t>(corrupted_.size());
  }
  std::uint32_t budget() const { return budget_; }
  std::uint32_t remaining_budget() const { return budget_ - num_corrupted(); }
  /// The corrupted processes (byte mask + ascending ids).
  const ProcessSet& corrupted() const { return corrupted_; }

  /// Corrupt p; returns false (no-op) if the budget is exhausted.
  /// Corrupting an already-corrupted process succeeds and costs nothing.
  bool corrupt(ProcessId p) {
    OMX_REQUIRE(p < corrupted_.universe(),
                "corrupt: process " + std::to_string(p) +
                    " out of range (n=" +
                    std::to_string(corrupted_.universe()) + ")");
    if (corrupted_.contains(p)) return true;
    if (num_corrupted() >= budget_) return false;
    corrupted_.insert(p);
    return true;
  }

 private:
  friend struct referee::Backdoor;

  ProcessSet corrupted_;
  std::uint32_t budget_;
};

/// The adversary's per-round window onto the execution. Messages are read
/// straight off the plane's flat buffers: a multicast looks like the
/// equivalent sequence of unicasts (one logical message per recipient), so
/// strategies are oblivious to the fast-path.
///
/// Omissions go through drop_links(), which runs serially in ascending
/// index order: a predicate may draw randomness, one draw per candidate
/// message, and consumes its stream in wire order.
template <class P>
class AdversaryContext {
 public:
  AdversaryContext(std::uint32_t round, MessagePlane<P>* plane,
                   FaultState* faults)
      : round_(round), plane_(plane), faults_(faults) {}

  std::uint32_t round() const { return round_; }
  std::uint32_t num_processes() const { return plane_->num_processes(); }

  /// Number of logical messages produced in this round's computation phase.
  std::size_t num_messages() const { return plane_->num_messages(); }

  /// Full information: visit every message on the wire, contents included,
  /// in ascending index: fn(from, to, payload). The copies of one send call
  /// share one payload reference.
  template <class Fn>
  void for_each_message(Fn&& fn) const {
    plane_->visit_wire([&](std::uint64_t, ProcessId from, ProcessId to,
                           const P& payload) { fn(from, to, payload); });
  }

  // Seal-time accounting caches (computed once per round by the plane):
  // wiretaps like adversary::Recorder read per-round tallies from here
  // instead of re-measuring every payload.

  /// Total bits on the wire this round (dropped messages included — the
  /// sender spent them).
  std::uint64_t wire_bits() const { return plane_->wire_bits(); }
  /// Number of messages dropped so far this round.
  std::size_t num_dropped() const { return plane_->num_dropped(); }

  bool is_corrupted(ProcessId p) const { return faults_->is_corrupted(p); }
  std::uint32_t num_corrupted() const { return faults_->num_corrupted(); }
  /// The corrupted set: pass it as drop_links' senders and/or receivers to
  /// walk every link an omission may touch.
  const ProcessSet& corrupted() const { return faults_->corrupted(); }
  std::uint32_t remaining_budget() const { return faults_->remaining_budget(); }

  /// Adaptively corrupt a process (online, within budget).
  bool corrupt(ProcessId p) { return faults_->corrupt(p); }

  /// Omission, the one primitive behind every strategy's drops: walk, in
  /// ascending index, the messages sent by a process in `senders` or
  /// addressed to one in `receivers` (MessagePlane::visit_links), skip
  /// self-deliveries (never omissible), and drop each message for which
  /// pred(from, to) returns true. Selecting a message between two
  /// non-corrupted processes throws AdversaryViolation, naming the round
  /// and the link, before anything more is dropped. Messages outside the
  /// walk are never offered to pred, so the sets must cover every link
  /// pred may select (corrupted() for both always does). pred runs
  /// serially in index order and may draw randomness; it must not corrupt
  /// processes, since the walk may be reading the corrupted set.
  template <class Pred>
  void drop_links(const ProcessSet& senders, const ProcessSet& receivers,
                  Pred&& pred) {
    plane_->visit_links(
        senders, receivers,
        [&](std::uint64_t i, ProcessId from, ProcessId to) {
          if (from == to || !pred(from, to)) return;
          if (!faults_->is_corrupted(from) && !faults_->is_corrupted(to)) {
            throw AdversaryViolation(
                "round " + std::to_string(round_) + ": cannot omit message " +
                std::to_string(from) + "->" + std::to_string(to) +
                " between two non-corrupted processes");
          }
          plane_->mark_dropped(static_cast<std::size_t>(i));
        });
  }

  /// Convenience: drop every message from/to p (p must be corrupted).
  void silence(ProcessId p) {
    silence_many(std::span<const ProcessId>(&p, 1));
  }

  /// Silence a batch of processes in one link walk (the drop set is a
  /// union, so one walk equals per-victim silence() calls). Ids outside
  /// the system have no links and are ignored.
  void silence_many(std::span<const ProcessId> ps) {
    if (ps.empty()) return;
    victims_.reset(plane_->num_processes());
    for (const ProcessId p : ps) victims_.insert(p);
    drop_links(victims_, victims_, [](ProcessId, ProcessId) { return true; });
  }

 private:
  friend struct referee::Backdoor;

  std::uint32_t round_;
  MessagePlane<P>* plane_;
  FaultState* faults_;
  ProcessSet victims_;
};

/// Base adversary: observes each round and may intervene. Default: benign.
template <class P>
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual void intervene(AdversaryContext<P>& ctx) { (void)ctx; }
};

}  // namespace omx::sim
