// Local I/O plumbing shared by the core protocol state machines.
//
// Core protocols operate on *member-local* indices 0..m-1 (Algorithm 4 runs
// Algorithm 1 on a subset of processes); the machine adapters translate
// between local indices and global sim::ProcessId.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "sim/machine.h"
#include "support/check.h"

namespace omx::core {

/// One delivered message, as seen by a core protocol: local sender index
/// plus a borrowed payload.
struct In {
  std::uint32_t from;
  const Msg* msg;
};

/// Send callback: (local destination index, payload).
using SendFn = std::function<void(std::uint32_t, Msg)>;

/// Send surface handed to the core state machines. Destinations are
/// member-local indices 0..m-1; `all` and `many` let identical-payload
/// fan-outs reach the engine's broadcast fast-path (the payload is stored
/// once on the wire) while per-receiver payloads keep using `to`.
class Outbox {
 public:
  virtual ~Outbox() = default;

  /// Send to one member.
  virtual void to(std::uint32_t q, Msg m) = 0;

  /// Send one payload to every member except the stepping process, in
  /// ascending member order.
  virtual void all(Msg m) = 0;

  /// Send one payload to the listed members, in list order. By value, so
  /// an engine-backed outbox can move the single payload onto the wire.
  virtual void many(std::span<const std::uint32_t> qs, Msg m) = 0;
};

/// Outbox over a plain callback — used by unit tests that capture sends
/// into vectors. Fan-outs degrade to the equivalent unicast loop.
class FnOutbox final : public Outbox {
 public:
  FnOutbox(std::uint32_t members, std::uint32_t self, SendFn send)
      : members_(members), self_(self), send_(std::move(send)) {}

  void to(std::uint32_t q, Msg m) override { send_(q, std::move(m)); }

  void all(Msg m) override {
    for (std::uint32_t q = 0; q < members_; ++q) {
      if (q != self_) send_(q, m);
    }
  }

  void many(std::span<const std::uint32_t> qs, Msg m) override {
    for (std::uint32_t q : qs) send_(q, m);
  }

 private:
  std::uint32_t members_;
  std::uint32_t self_;
  SendFn send_;
};

/// Outbox over the engine's RoundIo. Two modes:
///   * direct — member-local index == global ProcessId (a core protocol run
///     on the whole system);
///   * embedded — the protocol runs on a member list (Algorithm 4 runs
///     Algorithm 1 on a slice); local indices are translated through
///     `members`, and `many` uses a caller-owned scratch vector so steady
///     state does not allocate.
class IoOutbox final : public Outbox {
 public:
  /// Direct mode: local index q is the global process id.
  explicit IoOutbox(sim::RoundIo<Msg>& io)
      : io_(io), members_(), scratch_(nullptr) {}

  /// Embedded mode: members[q] is the global id of local member q; the
  /// stepping process must itself appear in `members`.
  IoOutbox(sim::RoundIo<Msg>& io, std::span<const sim::ProcessId> members,
           std::vector<sim::ProcessId>* scratch)
      : io_(io), members_(members), scratch_(scratch) {
    OMX_REQUIRE(scratch != nullptr, "embedded IoOutbox needs a scratch");
  }

  void to(std::uint32_t q, Msg m) override {
    io_.send(embedded() ? members_[q] : q, std::move(m));
  }

  void all(Msg m) override {
    if (embedded()) {
      io_.send_to_except(members_, io_.self(), std::move(m));
    } else {
      io_.send_to_all(std::move(m));
    }
  }

  void many(std::span<const std::uint32_t> qs, Msg m) override {
    if (embedded()) {
      scratch_->clear();
      scratch_->reserve(qs.size());
      for (std::uint32_t q : qs) scratch_->push_back(members_[q]);
      io_.send_to(*scratch_, std::move(m));
    } else {
      io_.send_to(qs, std::move(m));
    }
  }

 private:
  bool embedded() const { return !members_.empty(); }

  sim::RoundIo<Msg>& io_;
  std::span<const sim::ProcessId> members_;
  std::vector<sim::ProcessId>* scratch_;
};

}  // namespace omx::core
