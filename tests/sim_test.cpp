// Engine semantics: round structure, delivery, bit accounting, adversary
// legality enforcement, determinism.
#include <gtest/gtest.h>

#include <vector>

#include "adversary/strategies.h"
#include "rng/ledger.h"
#include "sim/adversary.h"
#include "sim/runner.h"

namespace omx::sim {
namespace {

struct Ping {
  std::uint32_t value = 0;
  std::uint64_t bit_size() const { return 8; }
};

/// Every process sends its id+round to the next process (mod n) for
/// `rounds` rounds and records what it receives.
class RingMachine final : public Machine<Ping> {
 public:
  RingMachine(std::uint32_t n, std::uint32_t rounds) : n_(n), rounds_(rounds) {
    received_.resize(n);
  }

  std::uint32_t num_processes() const override { return n_; }
  void begin_round(std::uint32_t round) override { cur_ = round; }
  void round(ProcessId p, RoundIo<Ping>& io) override {
    io.for_each_in([&](ProcessId, const Ping& ping) {
      received_[p].push_back(ping.value);
    });
    if (cur_ < rounds_) {
      io.send((p + 1) % n_, Ping{p * 1000 + cur_});
    }
  }
  bool finished() const override { return cur_ + 1 > rounds_; }

  std::uint32_t cur_ = 0;
  std::uint32_t n_;
  std::uint32_t rounds_;
  std::vector<std::vector<std::uint32_t>> received_;
};

TEST(Runner, DeliversNextRoundInOrder) {
  rng::Ledger ledger(4, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping> runner(4, 0, &ledger, &adv);
  RingMachine m(4, 3);
  const auto rr = runner.run(m);
  EXPECT_FALSE(rr.hit_round_cap);
  // Process 1 hears from process 0 in rounds 1..3: values 0*1000+{0,1,2}.
  EXPECT_EQ(m.received_[1], (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(m.received_[0], (std::vector<std::uint32_t>{3000, 3001, 3002}));
}

TEST(Runner, CountsMessagesAndBits) {
  rng::Ledger ledger(4, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping> runner(4, 0, &ledger, &adv);
  RingMachine m(4, 3);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.messages, 12u);   // 4 processes x 3 rounds
  EXPECT_EQ(rr.metrics.comm_bits, 96u);  // 8 bits each
  EXPECT_EQ(rr.metrics.rounds, 4u);      // 3 send rounds + final delivery
  EXPECT_EQ(rr.metrics.random_calls, 0u);
}

TEST(Runner, RoundCapReported) {
  rng::Ledger ledger(2, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping>::Options opts;
  opts.max_rounds = 2;
  Runner<Ping> runner(2, 0, &ledger, &adv, opts);
  RingMachine m(2, 100);
  const auto rr = runner.run(m);
  EXPECT_TRUE(rr.hit_round_cap);
  EXPECT_EQ(rr.metrics.rounds, 2u);
}

/// Adversary that drops every message from process 0 after corrupting it.
class DropZero final : public Adversary<Ping> {
 public:
  void intervene(AdversaryContext<Ping>& ctx) override {
    ctx.corrupt(0);
    ctx.silence(0);
  }
};

TEST(Runner, OmittedMessagesCountAsSentButNotDelivered) {
  rng::Ledger ledger(4, 1);
  DropZero adv;
  Runner<Ping> runner(4, 1, &ledger, &adv);
  RingMachine m(4, 2);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.messages, 8u);
  EXPECT_EQ(rr.metrics.omitted, 4u);  // 0's out + 3's in (to 0) per round
  EXPECT_TRUE(m.received_[1].empty());  // 0 -> 1 all dropped
  EXPECT_EQ(m.received_[2].size(), 2u);
  EXPECT_EQ(rr.metrics.corrupted, 1u);
}

/// Drops process 0's outgoing links with nothing corrupted: illegal.
class IllegalDropper final : public Adversary<Ping> {
 public:
  void intervene(AdversaryContext<Ping>& ctx) override {
    ProcessSet zero(ctx.num_processes());
    zero.insert(0);
    ctx.drop_links(zero, ProcessSet{},
                   [](ProcessId, ProcessId) { return true; });
  }
};

TEST(Runner, IllegalDropThrows) {
  rng::Ledger ledger(3, 1);
  IllegalDropper adv;
  Runner<Ping> runner(3, 1, &ledger, &adv);
  RingMachine m(3, 2);
  EXPECT_THROW(runner.run(m), AdversaryViolation);
}

/// Sends to itself; the adversary tries to drop the self-delivery.
class SelfSendMachine final : public Machine<Ping> {
 public:
  std::uint32_t num_processes() const override { return 2; }
  void begin_round(std::uint32_t r) override { cur_ = r; }
  void round(ProcessId p, RoundIo<Ping>& io) override {
    io.for_each_in([&](ProcessId from, const Ping& ping) {
      received_[p].push_back(from * 1000 + ping.value);
    });
    if (cur_ == 0) io.send(p, Ping{p});
  }
  bool finished() const override { return cur_ >= 1; }
  std::uint32_t cur_ = 0;
  std::vector<std::uint32_t> received_[2];
};

class SelfDropper final : public Adversary<Ping> {
 public:
  void intervene(AdversaryContext<Ping>& ctx) override {
    if (ctx.num_messages() == 0) return;
    ctx.corrupt(0);
    ctx.silence(0);  // every link of 0, its self-delivery 0 -> 0 included
  }
};

// The omission walk never offers a self-delivery, so silencing a corrupted
// process still delivers its message to itself. (A self-delivery dropped
// behind the context's back is the audit's to refuse: fault_injection_test,
// self-delivery-drop rows.)
TEST(Runner, SelfDeliveryCannotBeDropped) {
  rng::Ledger ledger(2, 1);
  SelfDropper adv;
  Runner<Ping> runner(2, 1, &ledger, &adv);
  SelfSendMachine m;
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.corrupted, 1u);
  EXPECT_EQ(rr.metrics.messages, 2u);
  EXPECT_EQ(rr.metrics.omitted, 0u);
  EXPECT_EQ(m.received_[0], (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(m.received_[1], (std::vector<std::uint32_t>{1001}));
}

TEST(FaultState, BudgetEnforced) {
  FaultState faults(5, 2);
  EXPECT_TRUE(faults.corrupt(0));
  EXPECT_TRUE(faults.corrupt(0));  // idempotent, free
  EXPECT_TRUE(faults.corrupt(3));
  EXPECT_FALSE(faults.corrupt(4));  // budget exhausted
  EXPECT_EQ(faults.num_corrupted(), 2u);
  EXPECT_TRUE(faults.is_corrupted(0));
  EXPECT_FALSE(faults.is_corrupted(4));
  EXPECT_EQ(faults.remaining_budget(), 0u);
}

/// Machine that flips coins: checks the runner bills randomness.
class CoinMachine final : public Machine<Ping> {
 public:
  std::uint32_t num_processes() const override { return 3; }
  void begin_round(std::uint32_t r) override { cur_ = r; }
  void round(ProcessId, RoundIo<Ping>& io) override {
    if (cur_ == 0) io.rng().draw_bit();
  }
  bool finished() const override { return cur_ >= 1; }
  std::uint32_t cur_ = 0;
};

TEST(Runner, RandomnessBilledToMetrics) {
  rng::Ledger ledger(3, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping> runner(3, 0, &ledger, &adv);
  CoinMachine m;
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.random_calls, 3u);
  EXPECT_EQ(rr.metrics.random_bits, 3u);
  EXPECT_EQ(ledger.calls(), 3u);
}

/// Round 0: process 1 broadcasts including itself, process 2 broadcasts
/// excluding itself, process 0 multicasts to {3, 1}. Round 1: consume.
class FanOutMachine final : public Machine<Ping> {
 public:
  std::uint32_t num_processes() const override { return 4; }
  void begin_round(std::uint32_t r) override { cur_ = r; }
  void round(ProcessId p, RoundIo<Ping>& io) override {
    io.for_each_in([&](ProcessId from, const Ping& ping) {
      received_[p].push_back(from * 1000 + ping.value);
    });
    if (cur_ == 0) {
      if (p == 0) {
        const ProcessId targets[] = {3, 1};
        io.send_to(targets, Ping{7});
      } else if (p == 1) {
        io.send_to_all(Ping{11}, /*include_self=*/true);
      } else if (p == 2) {
        io.send_to_all(Ping{22});
      }
    }
  }
  bool finished() const override { return cur_ >= 1; }
  std::uint32_t cur_ = 0;
  std::vector<std::uint32_t> received_[4];
};

TEST(Runner, BroadcastFanOutMatchesUnicastOrderAndAccounting) {
  rng::Ledger ledger(4, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping> runner(4, 0, &ledger, &adv);
  FanOutMachine m;
  const auto rr = runner.run(m);
  // Inbox order must equal global send order: process 0's multicast
  // records first, then 1's broadcast, then 2's.
  EXPECT_EQ(m.received_[0],
            (std::vector<std::uint32_t>{1011, 2022}));  // not 0's own
  EXPECT_EQ(m.received_[1], (std::vector<std::uint32_t>{7, 1011, 2022}));
  EXPECT_EQ(m.received_[2],
            (std::vector<std::uint32_t>{1011}));  // excl. self broadcast
  EXPECT_EQ(m.received_[3], (std::vector<std::uint32_t>{7, 1011, 2022}));
  // 2 multicast + 4 incl-self broadcast + 3 excl-self broadcast.
  EXPECT_EQ(rr.metrics.messages, 9u);
  EXPECT_EQ(rr.metrics.comm_bits, 72u);
  EXPECT_EQ(rr.metrics.omitted, 0u);
}

/// Drops exactly one fanned-out copy of process 1's broadcast (the copy
/// addressed to process 3) after corrupting the sender.
class FanOutDropper final : public Adversary<Ping> {
 public:
  void intervene(AdversaryContext<Ping>& ctx) override {
    if (ctx.num_messages() == 0) return;
    ctx.corrupt(1);
    ctx.drop_links(ctx.corrupted(), ctx.corrupted(),
                   [](ProcessId from, ProcessId to) {
                     return from == 1 && to == 3;
                   });
  }
};

TEST(Runner, DroppingOneFanOutCopyLeavesSiblingsDelivered) {
  rng::Ledger ledger(4, 1);
  FanOutDropper adv;
  Runner<Ping> runner(4, 1, &ledger, &adv);
  FanOutMachine m;
  const auto rr = runner.run(m);
  EXPECT_EQ(m.received_[0], (std::vector<std::uint32_t>{1011, 2022}));
  EXPECT_EQ(m.received_[3], (std::vector<std::uint32_t>{7, 2022}));
  // The dropped copy still counts as sent (and as omitted).
  EXPECT_EQ(rr.metrics.messages, 9u);
  EXPECT_EQ(rr.metrics.comm_bits, 72u);
  EXPECT_EQ(rr.metrics.omitted, 1u);
}

TEST(Runner, EngineStatsCountRoundsAndPhases) {
  rng::Ledger ledger(4, 1);
  adversary::NullAdversary<Ping> adv;
  EngineStats stats;
  Runner<Ping>::Options opts;
  opts.stats = &stats;
  Runner<Ping> runner(4, 0, &ledger, &adv, opts);
  RingMachine m(4, 3);
  const auto rr = runner.run(m);
  EXPECT_EQ(stats.rounds, rr.metrics.rounds);
  EXPECT_GT(stats.compute_ns + stats.adversary_ns + stats.delivery_ns, 0u);
}

TEST(Runner, RequiresMatchingSizes) {
  rng::Ledger ledger(4, 1);
  adversary::NullAdversary<Ping> adv;
  Runner<Ping> runner(3, 0, &ledger, &adv);
  RingMachine m(4, 1);
  EXPECT_THROW(runner.run(m), PreconditionError);
  rng::Ledger small(2, 1);
  EXPECT_THROW(Runner<Ping>(3, 0, &small, &adv), PreconditionError);
}

}  // namespace
}  // namespace omx::sim
