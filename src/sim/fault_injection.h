// Fault-injection referee self-test layer.
//
// The engine's central robustness claim is its legality firewall: an
// adversary can only act within the adaptive-omission model of §2 (drop a
// message only if an endpoint is corrupted, never a self-delivery, corrupt
// at most t processes, never inject messages), and protocol randomness is
// metered by the rng ledger. That firewall is itself code, so it needs
// tests that *attack* it: the decorators here deliberately commit each
// class of illegal action, bypassing the cooperative AdversaryContext API
// through a friend backdoor, and the test suite asserts the engine's
// second-layer audit throws the precise exception for every class — at
// thread count 1 and 8 alike (the thread pool rethrows worker exceptions
// on the calling thread, so the matrix is uniform).
//
// Nothing in this header is used by experiments; it exists so a silent
// weakening of the firewall fails the build's test suite instead of
// silently admitting super-model adversaries into published tables.
#pragma once

#include <cstdint>

#include "sim/adversary.h"
#include "sim/machine.h"
#include "sim/message_plane.h"

namespace omx::sim::referee {

/// The only sanctioned way around the legality checks. Friended by
/// FaultState and AdversaryContext; exists solely so the self-tests can
/// commit violations the public API refuses to express.
struct Backdoor {
  /// Corrupt p unconditionally, ignoring the budget t.
  static void force_corrupt(FaultState& faults, ProcessId p) {
    faults.corrupted_.insert(p);  // mask and sorted ids; ids >= n refused
  }

  template <class P>
  static MessagePlane<P>* plane(AdversaryContext<P>& ctx) {
    return ctx.plane_;
  }

  template <class P>
  static FaultState* faults(AdversaryContext<P>& ctx) {
    return ctx.faults_;
  }
};

/// The classes of illegal action the engine must detect.
enum class Illegal {
  HonestLinkDrop,      // omit a message between two non-corrupted processes
  BudgetOverrun,       // corrupt more than t processes
  SelfDeliveryDrop,    // omit a process's message to itself
  WrongRoundDelivery,  // conjure a message onto the sealed wire
};

inline const char* to_string(Illegal c) {
  switch (c) {
    case Illegal::HonestLinkDrop: return "honest-link-drop";
    case Illegal::BudgetOverrun: return "budget-overrun";
    case Illegal::SelfDeliveryDrop: return "self-delivery-drop";
    case Illegal::WrongRoundDelivery: return "wrong-round-delivery";
  }
  return "?";
}

/// An adversary that commits exactly one illegal action of the requested
/// class, on the first round where the wire offers the opportunity, going
/// through the backdoor so AdversaryContext's eager checks cannot stop it.
/// The engine's post-intervention audit (or the plane's seal check) must
/// catch it; if the run completes, the firewall has a hole.
template <class P>
class IllegalActionAdversary final : public Adversary<P> {
 public:
  explicit IllegalActionAdversary(Illegal what) : what_(what) {}

  /// True once the illegal action has been committed.
  bool fired() const { return fired_; }

  void intervene(AdversaryContext<P>& ctx) override {
    if (fired_) return;
    MessagePlane<P>* plane = Backdoor::plane(ctx);
    FaultState* faults = Backdoor::faults(ctx);
    switch (what_) {
      case Illegal::HonestLinkDrop:
        // No honest-honest message this round: try the next one.
        drop_first(*plane, [&](ProcessId from, ProcessId to) {
          return from != to && !faults->is_corrupted(from) &&
                 !faults->is_corrupted(to);
        });
        return;
      case Illegal::BudgetOverrun: {
        const std::uint32_t target = faults->budget() + 1;
        const auto n = static_cast<ProcessId>(plane->num_processes());
        for (ProcessId p = 0; p < n && faults->num_corrupted() < target;
             ++p) {
          Backdoor::force_corrupt(*faults, p);
        }
        fired_ = faults->num_corrupted() > faults->budget();
        return;
      }
      case Illegal::SelfDeliveryDrop:
        // No self-delivery this round: try the next one.
        drop_first(*plane,
                   [](ProcessId from, ProcessId to) { return from == to; });
        return;
      case Illegal::WrongRoundDelivery: {
        // The wire was sealed before intervene(); appending a record now
        // models delivering a message into a round it was never sent in.
        plane->log().send(0, 0, P{});
        fired_ = true;
        return;
      }
    }
  }

 private:
  /// Mark the lowest-index message whose endpoints satisfy pred dropped,
  /// straight in the drop set, and record that the action fired.
  template <class Pred>
  void drop_first(MessagePlane<P>& plane, Pred pred) {
    const std::size_t none = plane.num_messages();
    std::size_t hit = none;
    plane.visit_wire([&](std::uint64_t i, ProcessId from, ProcessId to,
                         const P&) {
      if (hit == none && pred(from, to)) hit = static_cast<std::size_t>(i);
    });
    if (hit == none) return;
    plane.mark_dropped(hit);
    fired_ = true;
  }

  Illegal what_;
  bool fired_ = false;
};

/// Machine decorator: forwards every call to the wrapped machine, but one
/// designated process additionally draws `draws_per_round` unchecked
/// 64-bit words each round — modelling protocol code that ignores
/// can_draw(). Under a finite ledger budget the engine must surface
/// rng::BudgetExhausted (bounded budgets force the serial billing path, so
/// the exhaustion point is thread-count independent).
template <class P>
class OverdrawMachine final : public Machine<P> {
 public:
  OverdrawMachine(Machine<P>* inner, ProcessId who,
                  unsigned draws_per_round = 4)
      : inner_(inner), who_(who), draws_(draws_per_round) {}

  std::uint32_t num_processes() const override {
    return inner_->num_processes();
  }
  void set_lanes(unsigned lanes) override { inner_->set_lanes(lanes); }
  void begin_round(std::uint32_t round) override {
    inner_->begin_round(round);
  }
  bool finished() const override { return inner_->finished(); }

  void round(ProcessId p, RoundIo<P>& io) override {
    if (p == who_) {
      for (unsigned i = 0; i < draws_; ++i) io.rng().draw_bits(64);
    }
    inner_->round(p, io);
  }

 private:
  Machine<P>* inner_;
  ProcessId who_;
  unsigned draws_;
};

}  // namespace omx::sim::referee
