// Protocol machine interface.
//
// Protocols are written "orchestrator-style": one object owns the local
// state of all n processes and the engine calls round(p, io) for each
// process in every round. This matches the lock-step synchronous model and
// keeps protocol code close to the paper's pseudocode. The autonomy
// requirement of the model — process p's transition may depend only on p's
// own state, p's inbox, and p's random stream — is a discipline the protocol
// implementations follow (and the test suite spot-checks via determinism and
// permutation tests), not something C++ can enforce cheaply.
//
// RoundIo writes into a SendLog rather than the message plane itself: in a
// serial round that log *is* the plane's wire log; in a sharded round it is
// the stepping worker's private staging outbox, merged into the wire at the
// shard barrier. io.lane() identifies the worker (0 in serial rounds), so
// machines that need mutable scratch during round() can keep one scratch
// buffer per lane (sized via set_lanes) instead of one shared one.
#pragma once

#include <cstdint>
#include <span>

#include "rng/ledger.h"
#include "sim/message.h"
#include "sim/message_plane.h"

namespace omx::sim {

/// Per-process, per-round I/O handed to Machine::round().
template <class P>
class RoundIo {
 public:
  /// `plane` holds the wire delivered at the end of the previous round;
  /// for_each_in() walks this process's share of it.
  RoundIo(std::uint32_t round, ProcessId self, const MessagePlane<P>* plane,
          SendLog<P>* log, rng::Source* rng, unsigned lane = 0)
      : round_(round),
        self_(self),
        plane_(plane),
        log_(log),
        rng_(rng),
        lane_(lane) {}

  std::uint32_t round() const { return round_; }
  ProcessId self() const { return self_; }

  /// Which engine worker lane is stepping this process (0 in serial rounds).
  /// Stable for the duration of one round() call; use it to index per-lane
  /// scratch so concurrently stepped processes never share mutable state.
  unsigned lane() const { return lane_; }

  /// Visit every message delivered to this process at the end of the
  /// previous round, in global send order: fn(ProcessId from, const P&).
  /// Payloads are read straight off the delivered wire — a reference stays
  /// valid for the rest of this round.
  template <class Fn>
  void for_each_in(Fn&& fn) const {
    plane_->stream_inbox(self_, std::forward<Fn>(fn));
  }

  /// Queue a message for the communication phase of this round.
  void send(ProcessId to, P payload) {
    log_->send(self_, to, std::move(payload));
  }

  /// Broadcast fast-path: one payload to every process in id order (the
  /// sender itself only when `include_self`). The payload is stored once;
  /// the adversary and the metrics still observe one logical message per
  /// recipient, exactly as if send() had been called in a loop.
  void send_to_all(P payload, bool include_self = false) {
    log_->broadcast(self_, std::move(payload), include_self);
  }

  /// Multicast fast-path: one payload to the listed receivers, in order.
  void send_to(std::span<const ProcessId> to, P payload) {
    log_->multicast(self_, to, std::move(payload));
  }

  /// Multicast skipping one id (typically the sender in a member list).
  void send_to_except(std::span<const ProcessId> to, ProcessId skip,
                      P payload) {
    log_->multicast(self_, to, std::move(payload), skip);
  }

  /// This process's metered random source.
  rng::Source& rng() { return *rng_; }

 private:
  std::uint32_t round_;
  ProcessId self_;
  const MessagePlane<P>* plane_;
  SendLog<P>* log_;
  rng::Source* rng_;
  unsigned lane_;
};

/// A synchronous protocol over payload P, covering processes 0..n-1.
template <class P>
class Machine {
 public:
  virtual ~Machine() = default;

  /// Number of processes the machine covers.
  virtual std::uint32_t num_processes() const = 0;

  /// The engine announces how many worker lanes may step processes
  /// concurrently (1 = serial). Machines with mutable round() scratch size
  /// their per-lane copies here; stateless machines ignore it. Called before
  /// the first round and never during a round.
  virtual void set_lanes(unsigned lanes) { (void)lanes; }

  /// Called once per round, before any process steps, with the round index.
  virtual void begin_round(std::uint32_t round) { (void)round; }

  /// Local computation + send phase for process p. May run concurrently with
  /// round(q, ...) for q in another shard; implementations must only touch
  /// p's own state, lane-local scratch (io.lane()), and the io object.
  virtual void round(ProcessId p, RoundIo<P>& io) = 0;

  /// True when every process has terminated (the engine then stops).
  /// Implementations typically report all *non-idle* members decided; the
  /// runner additionally stops at the machine's schedule end or max_rounds.
  virtual bool finished() const = 0;
};

}  // namespace omx::sim
