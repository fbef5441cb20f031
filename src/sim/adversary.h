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
// Because every omission sits on a corrupted process's link, bulk omission
// has one primitive, AdversaryContext::drop_links(S, R, pred): a serial
// walk, in ascending wire order, over just the messages sent by S or
// addressed to R (MessagePlane::visit_links), usually with S and R the
// corrupted set. silence() / silence_many() and every strategy's bulk drops
// go through it, so the cost of an adversary phase scales with the
// corrupted processes' links rather than with the whole wire.
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

/// Read-only iterable view over the plane's logical messages. Elements are
/// lightweight proxies carrying (from, to, payload&) — range-for loops over
/// ctx.messages() see one element per logical message, without the engine
/// building per-recipient message objects.
template <class P>
class MessageView {
 public:
  struct Ref {
    ProcessId from;
    ProcessId to;
    const P& payload;
  };

  explicit MessageView(const MessagePlane<P>* plane) : plane_(plane) {}

  std::size_t size() const { return plane_->num_messages(); }
  bool empty() const { return size() == 0; }
  Ref operator[](std::size_t i) const {
    return Ref{plane_->from(i), plane_->to(i), plane_->payload(i)};
  }

  class iterator {
   public:
    iterator(const MessagePlane<P>* plane, std::size_t i)
        : plane_(plane), i_(i) {}
    Ref operator*() const {
      return Ref{plane_->from(i_), plane_->to(i_), plane_->payload(i_)};
    }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const MessagePlane<P>* plane_;
    std::size_t i_;
  };
  iterator begin() const { return iterator(plane_, 0); }
  iterator end() const { return iterator(plane_, size()); }

 private:
  const MessagePlane<P>* plane_;
};

/// The adversary's per-round window onto the execution. Messages are exposed
/// through an indexed view straight into the plane's flat buffers: a
/// multicast looks like the equivalent sequence of unicasts (one logical
/// index per recipient), so strategies are oblivious to the fast-path.
///
/// Bulk omissions go through drop_links(), which runs serially in
/// ascending index order: a predicate may draw randomness, one draw per
/// candidate message, and consumes its stream in wire order.
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

  /// Indexed view (full information: contents are visible before delivery).
  ProcessId from(std::size_t i) const { return plane_->from(i); }
  ProcessId to(std::size_t i) const { return plane_->to(i); }
  const P& payload(std::size_t i) const { return plane_->payload(i); }

  /// Iterable proxy view for wiretaps and audits.
  MessageView<P> messages() const { return MessageView<P>(plane_); }

  // Seal-time accounting caches (computed once per round by the plane):
  // wiretaps like adversary::Recorder read per-round tallies from here
  // instead of re-measuring every payload.

  /// Bit size of logical message #i.
  std::uint64_t payload_bits(std::size_t i) const {
    return plane_->payload_bits(i);
  }
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

  /// Omit message #idx. Legal only if one endpoint is corrupted and it is
  /// not a self-delivery.
  void drop(std::size_t idx) {
    OMX_REQUIRE(idx < plane_->num_messages(),
                "drop: message index " + std::to_string(idx) +
                    " out of range (round " + std::to_string(round_) + ", " +
                    std::to_string(plane_->num_messages()) +
                    " messages on the wire)");
    const ProcessId from = plane_->from(idx);
    const ProcessId to = plane_->to(idx);
    if (from == to) {
      throw AdversaryViolation("round " + std::to_string(round_) +
                               ": cannot omit the self-delivery of process " +
                               std::to_string(from));
    }
    if (!faults_->is_corrupted(from) && !faults_->is_corrupted(to)) {
      throw AdversaryViolation(
          "round " + std::to_string(round_) + ": cannot omit message " +
          std::to_string(from) + "->" + std::to_string(to) +
          " between two non-corrupted processes");
    }
    plane_->mark_dropped(idx);
  }

  bool dropped(std::size_t idx) const { return plane_->dropped(idx); }

  /// Bulk omission, the one primitive behind every strategy's bulk drops:
  /// walk, in ascending index, the messages sent by a process in `senders`
  /// or addressed to one in `receivers` (MessagePlane::visit_links), skip
  /// self-deliveries, and drop each message for which pred(from, to)
  /// returns true. A dropped message between two non-corrupted processes
  /// throws AdversaryViolation, exactly like drop(). Messages outside the
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
