// White-box tests of GroupBitsSpreading (Algorithm 3): heartbeat liveness,
// link-death discipline, the forwarded-once amortization of Lemma 2, one
// payload per sender per round, count propagation through a damaged graph,
// and the LiveLinks bookkeeping it shares with Algorithm 4's gossip.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "adversary/strategies.h"
#include "core/links.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx::core {
namespace {

TEST(Spreading, FaultFreeRunKillsNoLinks) {
  const std::uint32_t n = 200;
  OptimalConfig cfg;
  cfg.t = 0;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);
  adversary::NullAdversary<Msg> adv;
  sim::Runner<Msg> runner(n, 0, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  EXPECT_TRUE(machine.core().dead_links().empty())
      << "heartbeats must keep healthy links alive";
}

TEST(Spreading, DeadLinksAlwaysTouchAFaultyEndpoint) {
  const std::uint32_t n = 200;
  const std::uint32_t t = core::Params::max_t_optimal(n);
  OptimalConfig cfg;
  cfg.t = t;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 2);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 2);
  adversary::RandomOmissionAdversary<Msg> adv(n, t, 0.95, 5);
  sim::Runner<Msg> runner(n, t, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);

  const auto dead = machine.core().dead_links();
  EXPECT_FALSE(dead.empty());  // at 95% drop, some links must die
  for (const auto& [m, q] : dead) {
    // A link can also die because its far end went (transitively)
    // inoperative — but inoperativity itself only arises from faulty
    // endpoints, so check the weaker, sound invariant: never between two
    // processes that are both non-faulty AND still operative.
    const bool both_healthy_operative =
        !runner.faults().is_corrupted(m) && !runner.faults().is_corrupted(q) &&
        machine.core().operative(m) && machine.core().operative(q);
    EXPECT_FALSE(both_healthy_operative)
        << "live healthy link was killed: " << m << " -> " << q;
  }
}

/// Counts SpreadEntry occurrences per (sender, receiver, group) per epoch.
class ForwardOnceAuditor final : public sim::Adversary<Msg> {
 public:
  ForwardOnceAuditor(std::uint32_t epoch_rounds) : epoch_rounds_(epoch_rounds) {}

  void intervene(sim::AdversaryContext<Msg>& ctx) override {
    const std::uint32_t epoch = ctx.round() / epoch_rounds_;
    ctx.for_each_message(
        [&](sim::ProcessId from, sim::ProcessId to, const Msg& payload) {
          const auto* sm = std::get_if<SpreadMsg>(&payload);
          if (sm == nullptr) return;
          for (const auto& e : sm->entries) {
            const auto key = std::make_tuple(epoch, from, to, e.group);
            violations_ += !seen_.insert(key).second;
          }
        });
  }

  std::uint64_t violations() const { return violations_; }

 private:
  std::uint32_t epoch_rounds_;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t>> seen_;
  std::uint64_t violations_ = 0;
};

TEST(Spreading, EachGroupCountCrossesEachLinkAtMostOncePerEpoch) {
  const std::uint32_t n = 144;
  OptimalConfig cfg;
  cfg.t = 0;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 3);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 3);
  ForwardOnceAuditor auditor(machine.core().epoch_rounds());
  sim::Runner<Msg> runner(n, 0, &ledger, &auditor);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  EXPECT_EQ(auditor.violations(), 0u)
      << "Lemma 2 amortization: entries must be forwarded once per link";
}

/// Checks that all of one sender's SpreadMsgs in a round are one payload
/// on the wire (the same arena slot), not per-link copies.
class PayloadSharingAuditor final : public sim::Adversary<Msg> {
 public:
  void intervene(sim::AdversaryContext<Msg>& ctx) override {
    std::map<sim::ProcessId, const Msg*> first;
    ctx.for_each_message(
        [&](sim::ProcessId from, sim::ProcessId, const Msg& payload) {
          if (!std::holds_alternative<SpreadMsg>(payload)) return;
          ++spread_messages_;
          const auto [it, fresh] = first.emplace(from, &payload);
          if (fresh) return;
          ++repeats_;
          copies_ += it->second != &payload;
        });
  }

  std::uint64_t spread_messages_ = 0;
  std::uint64_t repeats_ = 0;  // messages after a sender's first in a round
  std::uint64_t copies_ = 0;   // ... that carried a payload of their own
};

TEST(Spreading, OnePayloadPerSenderPerSpreadRound) {
  const std::uint32_t n = 144;
  for (unsigned threads : {1u, 4u}) {
    OptimalConfig cfg;
    cfg.t = 0;
    auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 4);
    OptimalMachine machine(cfg, inputs);
    rng::Ledger ledger(n, 4);
    PayloadSharingAuditor auditor;
    sim::Runner<Msg>::Options options;
    options.threads = threads;
    sim::Runner<Msg> runner(n, 0, &ledger, &auditor, options);
    machine.set_fault_view(&runner.faults());
    runner.run(machine);
    EXPECT_GT(auditor.spread_messages_, 0u) << threads;
    EXPECT_GT(auditor.repeats_, 0u) << threads;
    EXPECT_EQ(auditor.copies_, 0u)
        << threads << " lanes: a sender built per-link SpreadMsg copies";
  }
}

TEST(Spreading, HeartbeatBitsAreSmall) {
  // The liveness heartbeats must stay within the O(n log² n)-per-epoch
  // budget: measure pure-heartbeat (empty) spread messages.
  const std::uint32_t n = 256;
  OptimalConfig cfg;
  cfg.t = 0;
  auto inputs = harness::make_inputs(harness::InputPattern::AllOne, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);

  class HeartbeatCounter final : public sim::Adversary<Msg> {
   public:
    void intervene(sim::AdversaryContext<Msg>& ctx) override {
      ctx.for_each_message(
          [&](sim::ProcessId, sim::ProcessId, const Msg& payload) {
            if (const auto* sm = std::get_if<SpreadMsg>(&payload)) {
              heartbeat_bits_ += sm->entries.empty() ? sm->bit_size() : 0;
            }
          });
    }
    std::uint64_t heartbeat_bits_ = 0;
  } counter;

  sim::Runner<Msg> runner(n, 0, &ledger, &counter);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  const double logn = 8.0;  // log2(256)
  const double per_epoch = static_cast<double>(counter.heartbeat_bits_) /
                           machine.core().epochs_total();
  // n links of degree Δ = delta_factor·log n, S = spread_factor·log n
  // rounds, 1 bit each -> ~delta_factor·spread_factor·n·log² n per epoch.
  const core::Params params;
  const double constant = params.delta_factor * params.spread_factor * 1.5;
  EXPECT_LT(per_epoch, constant * n * logn * logn);
}

TEST(Spreading, CountsRouteAroundSilencedRegions) {
  // Silence a contiguous block of t processes (whole groups plus change):
  // every remaining operative process must still see every *live* group's
  // counts — the expander routes around the hole (Lemma 6).
  const std::uint32_t n = 225;  // 15 groups of 15
  const std::uint32_t t = core::Params::max_t_optimal(n);  // 7
  OptimalConfig cfg;
  cfg.t = t;
  auto inputs = harness::make_inputs(harness::InputPattern::AllOne, n, 1);
  OptimalMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);
  std::vector<adversary::StaticCrashAdversary<Msg>::Crash> schedule;
  for (std::uint32_t i = 0; i < t; ++i) schedule.push_back({i, 0});
  adversary::StaticCrashAdversary<Msg> adv(schedule);
  sim::Runner<Msg> runner(n, t, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);

  for (std::uint32_t p = t; p < n; ++p) {
    if (!machine.core().operative(p)) continue;
    const auto est = machine.core().last_estimate(p);
    ASSERT_TRUE(est.has_value());
    // All n - t live inputs (all ones) are counted.
    EXPECT_GE(est->first, n - t) << p;
    EXPECT_EQ(est->second, 0u) << p;
  }
}

// --- LiveLinks: the link bookkeeping shared with Algorithm 4's gossip ---

struct LinkHistory {
  std::vector<std::map<std::uint32_t, bool>> accepted;  // per round
  std::vector<std::uint32_t> heard;
  std::vector<std::vector<std::uint32_t>> live;
  std::vector<std::vector<bool>> dead;
  bool operator==(const LinkHistory&) const = default;
};

// Feeds the same per-round sender sets in the given order and records what
// the links made of them.
LinkHistory run_links(
    const std::vector<std::uint32_t>& nb,
    const std::vector<std::vector<std::uint32_t>>& rounds) {
  LiveLinks links(nb);
  LinkHistory h;
  for (const auto& senders : rounds) {
    auto& acc = h.accepted.emplace_back();
    for (std::uint32_t from : senders) acc[from] = links.hear(from);
    h.heard.push_back(links.close_round());
    const auto live = links.live();
    h.live.emplace_back(live.begin(), live.end());
    auto& dead = h.dead.emplace_back();
    for (std::size_t slot = 0; slot < nb.size(); ++slot) {
      dead.push_back(links.dead(slot));
    }
  }
  return h;
}

TEST(LiveLinks, SilentLinksDieAndStayDead) {
  const std::vector<std::uint32_t> nb{2, 5, 7, 11};
  const auto h = run_links(nb, {{2, 5, 7, 11}, {2, 7, 11}, {2, 5, 7}});
  EXPECT_EQ(h.heard, (std::vector<std::uint32_t>{4, 3, 2}));
  // Round 2: 5 fell silent. Round 3: 5 is disregarded, 11 fell silent.
  EXPECT_FALSE(h.accepted[2].at(5));
  EXPECT_TRUE(h.accepted[2].at(7));
  EXPECT_EQ(h.live[0], nb);
  EXPECT_EQ(h.live[1], (std::vector<std::uint32_t>{2, 7, 11}));
  EXPECT_EQ(h.live[2], (std::vector<std::uint32_t>{2, 7}));
  EXPECT_EQ(h.dead[2], (std::vector<bool>{false, true, false, true}));
}

TEST(LiveLinks, SenderOrderDoesNotChangeTheOutcome) {
  const std::vector<std::uint32_t> nb{2, 5, 7, 11, 13, 20, 31, 40};
  // Ascending, as the wire delivers them; a repeated sender counts once.
  const std::vector<std::vector<std::uint32_t>> ascending{
      {2, 5, 7, 11, 13, 20, 31, 40},
      {2, 7, 7, 11, 20, 31, 40},  // 5 and 13 fall silent
      {2, 5, 7, 13, 20, 40},      // 5, 13 on dead links; 11, 31 silent
      {},                         // everything still live dies
      {2, 40}};
  const LinkHistory expected = run_links(nb, ascending);
  EXPECT_EQ(expected.heard, (std::vector<std::uint32_t>{8, 6, 4, 0, 0}));
  EXPECT_EQ(expected.live[2], (std::vector<std::uint32_t>{2, 7, 20, 40}));
  EXPECT_TRUE(expected.live[3].empty());

  std::mt19937 gen(7);
  for (int trial = 0; trial < 20; ++trial) {
    auto shuffled = ascending;
    for (auto& senders : shuffled) {
      if (trial == 0) {
        std::reverse(senders.begin(), senders.end());
      } else {
        std::shuffle(senders.begin(), senders.end(), gen);
      }
    }
    EXPECT_EQ(run_links(nb, shuffled), expected) << "trial " << trial;
  }
}

TEST(LiveLinks, NonNeighborSenderThrows) {
  const std::vector<std::uint32_t> nb{2, 5, 7, 11};
  LiveLinks links(nb);
  EXPECT_THROW(links.hear(0), InvariantError);
  EXPECT_THROW(links.hear(6), InvariantError);
  EXPECT_TRUE(links.hear(7));
  EXPECT_THROW(links.hear(3), InvariantError);   // behind the cursor
  EXPECT_THROW(links.hear(12), InvariantError);  // past the last neighbor
  // A dead link's sender is disregarded, but a stranger still throws.
  links.close_round();
  EXPECT_FALSE(links.hear(2));
  EXPECT_THROW(links.hear(4), InvariantError);
  LiveLinks isolated(std::span<const std::uint32_t>{});
  EXPECT_THROW(isolated.hear(0), InvariantError);
}

}  // namespace
}  // namespace omx::core
