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
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/check.h"
#include "support/thread_pool.h"
#include "sim/message.h"
#include "sim/message_plane.h"

namespace omx::sim {

namespace referee {
// Fault-injection referee self-test layer (sim/fault_injection.h): the only
// code allowed to bypass the legality checks below, so the test suite can
// prove the engine detects every class of illegal adversarial action.
struct Backdoor;
}  // namespace referee

/// Corruption bookkeeping shared between runner and adversary context.
class FaultState {
 public:
  FaultState(std::uint32_t n, std::uint32_t budget)
      : corrupted_(n, false), budget_(budget) {}

  bool is_corrupted(ProcessId p) const { return corrupted_[p]; }
  std::uint32_t num_corrupted() const { return num_corrupted_; }
  std::uint32_t budget() const { return budget_; }
  std::uint32_t remaining_budget() const { return budget_ - num_corrupted_; }

  /// Corrupt p; returns false (no-op) if the budget is exhausted.
  /// Corrupting an already-corrupted process succeeds and costs nothing.
  bool corrupt(ProcessId p) {
    OMX_REQUIRE(p < corrupted_.size(),
                "corrupt: process " + std::to_string(p) +
                    " out of range (n=" + std::to_string(corrupted_.size()) +
                    ")");
    if (corrupted_[p]) return true;
    if (num_corrupted_ >= budget_) return false;
    corrupted_[p] = true;
    ++num_corrupted_;
    return true;
  }

 private:
  friend struct referee::Backdoor;

  std::vector<bool> corrupted_;
  std::uint32_t budget_;
  std::uint32_t num_corrupted_ = 0;
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
/// The bulk operations (drop_where, scan_messages, silence, silence_many)
/// shard the wire scan across the engine's thread pool when one was wired
/// in — with results bit-identical to the serial scan: drop_where lanes own
/// disjoint 64-aligned drop-bitset slices, and scan_messages concatenates
/// per-lane candidate lists in lane (== ascending index) order before the
/// serial consume pass. Predicates passed to them must be pure functions of
/// (from, to) and adversary state — in particular they must not draw
/// randomness (do that in scan_messages' consume step, which runs serially
/// in ascending index order).
template <class P>
class AdversaryContext {
 public:
  AdversaryContext(std::uint32_t round, MessagePlane<P>* plane,
                   FaultState* faults,
                   support::ThreadPool* pool = nullptr, unsigned lanes = 1)
      : round_(round), plane_(plane), faults_(faults), pool_(pool),
        lanes_(lanes) {}

  std::uint32_t round() const { return round_; }

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

  /// Bulk omission: drop every non-self-delivery message whose endpoints
  /// satisfy pred(from, to). Self-deliveries are skipped silently (no
  /// strategy may touch them anyway); a matching message between two
  /// non-corrupted processes throws AdversaryViolation, exactly like
  /// drop(). Sharded across the pool when the wire is large enough; the
  /// resulting drop bitset is identical to a serial scan's.
  template <class Pred>
  void drop_where(Pred&& pred) {
    const std::size_t mm = plane_->num_messages();
    auto scan = [&](std::uint64_t lo, std::uint64_t hi) {
      plane_->visit_index_range(
          lo, hi,
          [&](std::uint64_t i, ProcessId from, ProcessId to) {
            if (from == to || !pred(from, to)) return;
            if (!faults_->is_corrupted(from) &&
                !faults_->is_corrupted(to)) {
              throw AdversaryViolation(
                  "round " + std::to_string(round_) +
                  ": cannot omit message " + std::to_string(from) + "->" +
                  std::to_string(to) +
                  " between two non-corrupted processes");
            }
            plane_->mark_dropped(static_cast<std::size_t>(i));
          });
    };
    if (use_pool(mm)) {
      pool_->run([&](unsigned w) {
        const auto [lo, hi] = plane_->lane_index_range(w, lanes_);
        scan(lo, hi);
      });
    } else {
      scan(0, mm);
    }
  }

  /// Sharded candidate scan for strategies that need per-message randomness:
  /// lanes collect every message with pred(from, to) true, then consume(idx,
  /// from, to) runs serially in ascending index order — so a strategy that
  /// draws one coin per candidate consumes its rng stream in exactly the
  /// serial scan's order, at every lane count.
  template <class Pred, class Consume>
  void scan_messages(Pred&& pred, Consume&& consume) {
    const std::size_t mm = plane_->num_messages();
    if (!use_pool(mm)) {
      plane_->visit_index_range(
          0, mm, [&](std::uint64_t i, ProcessId from, ProcessId to) {
            if (pred(from, to)) {
              consume(static_cast<std::size_t>(i), from, to);
            }
          });
      return;
    }
    auto& hits = plane_->scan_scratch(lanes_);
    pool_->run([&](unsigned w) {
      const auto [lo, hi] = plane_->lane_index_range(w, lanes_);
      auto& out = hits[w];
      out.clear();
      plane_->visit_index_range(
          lo, hi, [&](std::uint64_t i, ProcessId from, ProcessId to) {
            if (pred(from, to)) {
              out.push_back(typename MessagePlane<P>::ScanHit{i, from, to});
            }
          });
    });
    for (unsigned w = 0; w < lanes_; ++w) {
      for (const auto& h : hits[w]) {
        consume(static_cast<std::size_t>(h.idx), h.from, h.to);
      }
    }
  }

  /// Convenience: drop every message from/to p (p must be corrupted).
  void silence(ProcessId p) {
    drop_where([p](ProcessId from, ProcessId to) {
      return from == p || to == p;
    });
  }

  /// Silence a batch of processes in one wire scan (the drop set is a
  /// union, so one scan equals per-victim silence() calls — minus the
  /// repeated O(messages) walks).
  void silence_many(std::span<const ProcessId> ps) {
    if (ps.empty()) return;
    if (ps.size() == 1) {
      silence(ps[0]);
      return;
    }
    silence_mask_.assign(plane_->num_processes(), 0);
    for (const ProcessId p : ps) silence_mask_[p] = 1;
    drop_where([this](ProcessId from, ProcessId to) {
      return silence_mask_[from] != 0 || silence_mask_[to] != 0;
    });
  }

 private:
  friend struct referee::Backdoor;

  bool use_pool(std::size_t messages) const {
    return pool_ != nullptr && lanes_ > 1 &&
           messages >= MessagePlane<P>::kParallelGrain;
  }

  std::uint32_t round_;
  MessagePlane<P>* plane_;
  FaultState* faults_;
  support::ThreadPool* pool_;
  unsigned lanes_;
  std::vector<std::uint8_t> silence_mask_;
};

/// Base adversary: observes each round and may intervene. Default: benign.
template <class P>
class Adversary {
 public:
  virtual ~Adversary() = default;
  virtual void intervene(AdversaryContext<P>& ctx) { (void)ctx; }
};

}  // namespace omx::sim
