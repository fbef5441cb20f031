// Adversary strategies: each stays within the omission fault model and has
// the intended effect on delivery.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "adversary/schedule.h"
#include "adversary/strategies.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx::adversary {
namespace {

using sim::ProcessId;

struct Bit {
  std::uint8_t v = 0;
  std::uint64_t bit_size() const { return 1; }
};

/// All-to-all broadcaster for `rounds` rounds; records per-process inbox
/// sizes and sender sets.
class BroadcastMachine final : public sim::Machine<Bit> {
 public:
  BroadcastMachine(std::uint32_t n, std::uint32_t rounds)
      : n_(n), rounds_(rounds) {
    heard_.assign(n, {});
  }
  std::uint32_t num_processes() const override { return n_; }
  void begin_round(std::uint32_t r) override { cur_ = r; }
  void round(ProcessId p, sim::RoundIo<Bit>& io) override {
    io.for_each_in([&](ProcessId from, const Bit&) {
      heard_[p].push_back(from);
    });
    if (cur_ < rounds_) {
      for (ProcessId q = 0; q < n_; ++q) {
        if (q != p) io.send(q, Bit{1});
      }
    }
  }
  bool finished() const override { return cur_ + 1 > rounds_; }

  std::uint32_t n_, rounds_, cur_ = 0;
  std::vector<std::vector<ProcessId>> heard_;
};

template <class Adv>
BroadcastMachine run_broadcast(std::uint32_t n, std::uint32_t t,
                               std::uint32_t rounds, Adv& adv) {
  rng::Ledger ledger(n, 1);
  sim::Runner<Bit> runner(n, t, &ledger, &adv);
  BroadcastMachine m(n, rounds);
  runner.run(m);
  return m;
}

TEST(StaticCrash, SilencesFromScheduledRound) {
  StaticCrashAdversary<Bit> adv({{2, 1}});  // crash process 2 at round 1
  auto m = run_broadcast(4, 1, 3, adv);
  // Process 0 hears 2 in round 1 (sent at round 0), then never again.
  int from2 = 0;
  for (auto f : m.heard_[0]) from2 += (f == 2);
  EXPECT_EQ(from2, 1);
  // Other senders are never affected: 3 rounds x 2 other senders + 1.
  int from1 = 0;
  for (auto f : m.heard_[0]) from1 += (f == 1);
  EXPECT_EQ(from1, 3);
}

TEST(StaticCrash, RespectsBudget) {
  StaticCrashAdversary<Bit> adv({{0, 0}, {1, 0}, {2, 0}});
  rng::Ledger ledger(4, 1);
  sim::Runner<Bit> runner(4, 2, &ledger, &adv);  // budget 2 < 3 crashes
  BroadcastMachine m(4, 2);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.corrupted, 2u);
}

TEST(RandomOmission, DropsOnlyFaultyLinks) {
  RandomOmissionAdversary<Bit> adv(8, 2, 1.0, 42);  // drop everything faulty
  auto m = run_broadcast(8, 2, 2, adv);
  // Exactly 2 processes are fully silenced: everyone hears from 5 others.
  for (std::uint32_t p = 0; p < 8; ++p) {
    std::vector<int> cnt(8, 0);
    for (auto f : m.heard_[p]) ++cnt[f];
    int silent = 0;
    for (std::uint32_t q = 0; q < 8; ++q) {
      if (q == p) continue;
      if (cnt[q] == 0) ++silent;
      else EXPECT_EQ(cnt[q], 2);
    }
    // A faulty receiver loses everything; a healthy one only the faulty two.
    EXPECT_TRUE(silent == 2 || silent == 7) << "p=" << p << " silent=" << silent;
  }
}

TEST(SplitBrain, FaultySendersReachOnlyLowerHalf) {
  SplitBrainAdversary<Bit> adv(8, {1});
  auto m = run_broadcast(8, 1, 2, adv);
  // Lower half (ids < 4) hears process 1; upper half never does.
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (p == 1) continue;
    int from1 = 0;
    for (auto f : m.heard_[p]) from1 += (f == 1);
    if (p < 4) EXPECT_GT(from1, 0) << p;
    else EXPECT_EQ(from1, 0) << p;
  }
}

TEST(GroupKiller, ConcentratesExactlyBudgetVictims) {
  std::vector<std::vector<ProcessId>> groups{{0, 1, 2}, {3, 4, 5}, {6, 7}};
  GroupKillerAdversary<Bit> adv(groups);
  rng::Ledger ledger(8, 1);
  sim::Runner<Bit> runner(8, 4, &ledger, &adv);
  BroadcastMachine m(8, 2);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.corrupted, 4u);  // 0,1,2 then 3 (partial group)
  // Victims are silenced: nobody hears 0..3; everyone hears 4..7.
  for (std::uint32_t p = 4; p < 8; ++p) {
    for (auto f : m.heard_[p]) EXPECT_GE(f, 4u);
  }
}

/// Fake probe: fixed votes, always fresh.
class FakeProbe final : public VoteProbe {
 public:
  explicit FakeProbe(std::vector<std::uint8_t> votes)
      : votes_(std::move(votes)) {}
  std::uint32_t probe_num_processes() const override {
    return static_cast<std::uint32_t>(votes_.size());
  }
  std::uint8_t probe_value(sim::ProcessId p) const override {
    return votes_[p];
  }
  bool probe_counts_in_vote(sim::ProcessId) const override { return true; }
  bool probe_votes_fresh() const override { return true; }

 private:
  std::vector<std::uint8_t> votes_;
};

TEST(CoinHiding, PullsMajorityBackIntoDeadZone) {
  // 12 of 16 vote 1 (75% > 60%): the adversary should silence 1-voters.
  std::vector<std::uint8_t> votes(16, 0);
  for (int i = 0; i < 12; ++i) votes[i] = 1;
  FakeProbe probe(votes);
  rng::Ledger ledger(16, 1);
  CoinHidingAdversary<Bit> adv(&probe, &ledger);
  sim::Runner<Bit> runner(16, 8, &ledger, &adv);
  BroadcastMachine m(16, 2);
  const auto rr = runner.run(m);
  EXPECT_GT(rr.metrics.corrupted, 0u);
  EXPECT_LE(rr.metrics.corrupted, 8u);
  EXPECT_GT(adv.victims(), 0u);
  // Victims must all be 1-voters.
  // 75% -> target <= 60%: hide k such that (12-k)/(16-k) <= 0.6 -> k >= 6,
  // but the per-round allowance caps it; over 2 rounds it gets there.
  // (Exact count depends on allowance; the invariant: never over budget.)
}

// --- legality firewall, eager layer: AdversaryContext refuses illegal
// actions at the call site, with round/process context in the message ---

bool always(ProcessId, ProcessId) { return true; }

TEST(Legality, DropOfHonestLinkThrowsWithContext) {
  sim::MessagePlane<Bit> plane(4);
  plane.begin_round(3);
  plane.log().send(0, 1, Bit{1});
  plane.seal();
  sim::FaultState faults(4, 2);
  sim::AdversaryContext<Bit> ctx(3, &plane, &faults);
  sim::ProcessSet sender(4);
  sender.insert(0);
  try {
    ctx.drop_links(sender, sim::ProcessSet{}, always);
    FAIL() << "honest-honest drop was accepted";
  } catch (const AdversaryViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("round 3"), std::string::npos) << what;
    EXPECT_NE(what.find("0->1"), std::string::npos) << what;
    EXPECT_NE(what.find("non-corrupted"), std::string::npos) << what;
  }
  EXPECT_FALSE(plane.dropped(0));  // the illegal action left no trace
}

// Corruption does not make a self-delivery omissible: the omission walk
// never offers it, so an always-true predicate drops only the other link.
// (A self-delivery dropped behind the context's back is the engine
// audit's to refuse: fault_injection_test, self-delivery-drop rows.)
TEST(Legality, DropLinksSparesSelfDeliveryEvenWhenCorrupted) {
  sim::MessagePlane<Bit> plane(4);
  plane.begin_round(5);
  plane.log().send(2, 2, Bit{1});  // #0: self
  plane.log().send(2, 0, Bit{1});  // #1
  plane.seal();
  sim::FaultState faults(4, 2);
  faults.corrupt(2);
  sim::AdversaryContext<Bit> ctx(5, &plane, &faults);
  std::vector<std::pair<ProcessId, ProcessId>> offered;
  ctx.drop_links(ctx.corrupted(), ctx.corrupted(),
                 [&](ProcessId from, ProcessId to) {
                   offered.emplace_back(from, to);
                   return true;
                 });
  EXPECT_EQ(offered, (std::vector<std::pair<ProcessId, ProcessId>>{{2, 0}}));
  EXPECT_FALSE(plane.dropped(0));
  EXPECT_TRUE(plane.dropped(1));
  EXPECT_EQ(ctx.num_dropped(), 1u);
}

TEST(Legality, DropLegalOnceAnEndpointIsCorrupted) {
  sim::MessagePlane<Bit> plane(4);
  plane.begin_round(0);
  plane.log().send(0, 1, Bit{1});
  plane.seal();
  sim::FaultState faults(4, 2);
  sim::AdversaryContext<Bit> ctx(0, &plane, &faults);
  ASSERT_TRUE(ctx.corrupt(1));  // receiver corrupted → drop becomes legal
  ctx.drop_links(ctx.corrupted(), ctx.corrupted(), always);
  EXPECT_TRUE(plane.dropped(0));
  EXPECT_EQ(ctx.num_dropped(), 1u);
}

TEST(Legality, SilenceOfAnUncorruptedProcessNamesTheLowestIllegalMessage) {
  sim::MessagePlane<Bit> plane(4);
  plane.begin_round(2);
  plane.log().send(0, 1, Bit{1});                      // #0
  plane.log().broadcast(1, Bit{1}, false);             // #1..3: 1->0,2,3
  plane.log().send(2, 2, Bit{1});                      // #4: self
  const std::vector<ProcessId> list{2, 1};
  plane.log().multicast(3, list, Bit{1});              // #5..6: 3->2,1
  plane.log().send(2, 0, Bit{1});                      // #7
  plane.seal();
  sim::FaultState faults(4, 2);
  faults.corrupt(1);
  sim::AdversaryContext<Bit> ctx(2, &plane, &faults);
  // 1->2 is legal (1 is corrupted) and the self-delivery is skipped; 3->2
  // is the first of process 2's links with no corrupted endpoint.
  try {
    ctx.silence(2);
    FAIL() << "silencing an uncorrupted process was accepted";
  } catch (const AdversaryViolation& e) {
    EXPECT_EQ(std::string(e.what()),
              "round 2: cannot omit message 3->2 between two non-corrupted "
              "processes");
  }
}

// Ops naming a process outside the system have no links: a drop op from
// such a sender and a silence op of one drop nothing and throw nothing.
TEST(ScheduleReplay, OpsOnProcessesOutsideTheSystemAreNoOps) {
  Schedule schedule;
  std::string err;
  ASSERT_TRUE(Schedule::parse("c0.1,d0.500.1,d0.1.2,d0.4294967295.3,s1.700,"
                              "s1.1",
                              &schedule, &err))
      << err;
  ScheduleAdversary<Bit> adv(schedule);
  rng::Ledger ledger(8, 1);
  sim::Runner<Bit> runner(8, 1, &ledger, &adv);
  BroadcastMachine m(8, 2);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.corrupted, 1u);
  // Round 0 drops 1->2 only; round 1 silences process 1 (7 + 7 links).
  EXPECT_EQ(rr.metrics.omitted, 1u + 14u);
}

TEST(Legality, CorruptBeyondBudgetIsRefusedNotSilentlyClamped) {
  sim::FaultState faults(4, 1);
  EXPECT_TRUE(faults.corrupt(0));
  EXPECT_TRUE(faults.corrupt(0));  // re-corruption is free
  EXPECT_FALSE(faults.corrupt(1));  // budget spent
  EXPECT_EQ(faults.num_corrupted(), 1u);
  EXPECT_THROW(faults.corrupt(99), PreconditionError);  // out of range
}

TEST(CoinHiding, IdleWhenBalanced) {
  std::vector<std::uint8_t> votes(16, 0);
  for (int i = 0; i < 9; ++i) votes[i] = 1;  // 56% in (50%, 60%]
  FakeProbe probe(votes);
  rng::Ledger ledger(16, 1);
  CoinHidingAdversary<Bit> adv(&probe, &ledger);
  sim::Runner<Bit> runner(16, 8, &ledger, &adv);
  BroadcastMachine m(16, 2);
  const auto rr = runner.run(m);
  EXPECT_EQ(rr.metrics.corrupted, 0u);
}

}  // namespace
}  // namespace omx::adversary
