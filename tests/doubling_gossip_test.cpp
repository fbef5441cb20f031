// Doubling gossip (the §B.3 crash-model primitive): correct and frugal
// under crashes, quadratic-blow-up under the receive-starvation omission
// attack.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/strategies.h"
#include "baselines/doubling_gossip.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx::baselines {
namespace {

struct GossipRun {
  sim::Metrics metrics;
  std::unique_ptr<rng::Ledger> ledger;  // gossip draws no randomness
  std::unique_ptr<DoublingGossipMachine> machine;
  std::unique_ptr<sim::Runner<core::Msg>> runner;
};

GossipRun run_gossip(std::uint32_t n, std::uint32_t t,
                     sim::Adversary<core::Msg>& adv,
                     harness::InputPattern pattern = harness::InputPattern::Random,
                     std::uint32_t fixed_exchanges = 0,
                     bool crash_semantics = false) {
  GossipRun out;
  DoublingConfig cfg;
  cfg.t = t;
  cfg.max_exchanges = fixed_exchanges;
  auto inputs = harness::make_inputs(pattern, n, 7);
  out.ledger = std::make_unique<rng::Ledger>(n, 1);
  out.machine = std::make_unique<DoublingGossipMachine>(cfg, inputs);
  out.runner = std::make_unique<sim::Runner<core::Msg>>(n, t, out.ledger.get(),
                                                        &adv);
  out.machine->set_fault_view(&out.runner->faults());
  out.machine->set_crash_semantics(crash_semantics);
  // With a fixed horizon we measure steady-state traffic: do NOT stop when
  // the non-faulty processes complete.
  out.machine->set_run_full_horizon(fixed_exchanges != 0);
  out.metrics = out.runner->run(*out.machine).metrics;
  return out;
}

class GossipCompleteness
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 harness::InputPattern>> {};

TEST_P(GossipCompleteness, FaultFreeEveryoneLearnsEverything) {
  const auto [n, pattern] = GetParam();
  adversary::NullAdversary<core::Msg> adv;
  auto run = run_gossip(n, 0, adv, pattern);
  auto inputs = harness::make_inputs(pattern, n, 7);
  std::uint32_t true_ones = 0;
  for (auto b : inputs) true_ones += b;
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_TRUE(run.machine->completed(p)) << p;
    EXPECT_EQ(run.machine->ones_of(p), true_ones) << p;
    EXPECT_EQ(run.machine->zeros_of(p), n - true_ones) << p;
    EXPECT_EQ(run.machine->doublings_of(p), 0u) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GossipCompleteness,
    ::testing::Combine(::testing::Values(16u, 64u, 200u),
                       ::testing::Values(harness::InputPattern::Random,
                                         harness::InputPattern::AllOne)));

TEST(DoublingGossip, ToleratesCrashesWithBoundedDoubling) {
  const std::uint32_t n = 128, t = 8;
  std::vector<adversary::StaticCrashAdversary<core::Msg>::Crash> schedule;
  for (std::uint32_t i = 0; i < t; ++i) {
    schedule.push_back({i * 16, i % 4});
  }
  adversary::StaticCrashAdversary<core::Msg> adv(schedule);
  auto run = run_gossip(n, t, adv);
  std::uint32_t total_doublings = 0;
  for (std::uint32_t p = 0; p < n; ++p) {
    if (run.runner->faults().is_corrupted(p)) continue;
    EXPECT_TRUE(run.machine->completed(p)) << p;
    // Crash-coverage claim: survivors know all but the crashed inputs.
    EXPECT_GE(run.machine->ones_of(p) + run.machine->zeros_of(p), n - t);
    total_doublings += run.machine->doublings_of(p);
  }
  // Amortization: only processes whose window hit crashes double, a few
  // times each — nowhere near n doublings.
  EXPECT_LT(total_doublings, n);
}

TEST(DoublingGossip, SubquadraticUnderCrashesQuadraticUnderStarvation) {
  const std::uint32_t n = 256, t = 16;
  const std::uint32_t horizon = 32;  // fixed exchanges: steady-state cost

  std::vector<adversary::StaticCrashAdversary<core::Msg>::Crash> schedule;
  for (std::uint32_t i = 0; i < t; ++i) schedule.push_back({i * 7, 1});
  adversary::StaticCrashAdversary<core::Msg> crash(schedule);
  auto crash_run = run_gossip(n, t, crash, harness::InputPattern::Random,
                              horizon, /*crash_semantics=*/true);

  std::vector<sim::ProcessId> victims;
  for (std::uint32_t i = 0; i < t; ++i) victims.push_back(i * 7);
  adversary::StarveReceiversAdversary<core::Msg> starve(victims);
  auto starve_run = run_gossip(n, t, starve,
                               harness::InputPattern::Random, horizon);

  // §B.3: the same fault budget costs far more against omissions — crashed
  // processes fall silent and completed ones stop, while each starved
  // victim escalates to interrogating the whole network every exchange
  // until the end of time.
  EXPECT_GT(starve_run.metrics.messages, 2 * crash_run.metrics.messages);

  // The victims escalated to (nearly) full windows.
  std::uint32_t escalated = 0;
  for (auto v : victims) {
    escalated += starve_run.machine->contacts_of(v) == n - 1;
  }
  EXPECT_EQ(escalated, victims.size());

  // And the non-victims still completed correctly.
  for (std::uint32_t p = 0; p < n; ++p) {
    if (starve_run.runner->faults().is_corrupted(p)) continue;
    EXPECT_TRUE(starve_run.machine->completed(p)) << p;
  }
}

TEST(DoublingGossip, StarvedVictimsNeverComplete) {
  const std::uint32_t n = 64, t = 2;
  adversary::StarveReceiversAdversary<core::Msg> starve({3, 9});
  auto run = run_gossip(n, t, starve);
  EXPECT_FALSE(run.machine->completed(3));
  EXPECT_FALSE(run.machine->completed(9));
  EXPECT_EQ(run.machine->ones_of(3) + run.machine->zeros_of(3), 1u);
}

// FNV-1a over little-endian 32-bit words: a compact pin for per-process
// vectors.
std::uint64_t fnv1a_words(const std::vector<std::uint32_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint32_t w : words) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// The graph-restricted wire through the engine's per-receiver index:
// inquiry rounds are all-kList multicast wires and response rounds mix in
// unicasts. The run's Metrics and final knowledge are pinned to what the
// engine produced when it still copied every message into a materialized
// inbox, serial and pool-sharded alike.
TEST(DoublingGossip, StreamedMatchesMaterializedAcrossThreadCounts) {
  const std::uint32_t n = 200;
  const std::uint32_t t = 12;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    adversary::RandomOmissionAdversary<core::Msg> adv(n, t, 0.8, 11);
    DoublingConfig cfg;
    cfg.t = t;
    auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 7);
    rng::Ledger ledger(n, 1);
    DoublingGossipMachine machine(cfg, inputs);
    sim::Runner<core::Msg>::Options opts;
    opts.threads = threads;
    sim::Runner<core::Msg> runner(n, t, &ledger, &adv, opts);
    machine.set_fault_view(&runner.faults());
    const sim::Metrics m = runner.run(machine).metrics;
    std::vector<std::uint32_t> known;
    std::vector<std::uint32_t> completed;
    for (std::uint32_t p = 0; p < n; ++p) {
      known.push_back(machine.known_of(p));
      completed.push_back(machine.completed(p) ? 1u : 0u);
    }
    EXPECT_EQ(m.rounds, 19u);
    EXPECT_EQ(m.messages, 54861u);
    EXPECT_EQ(m.comm_bits, 6530893u);
    EXPECT_EQ(m.omitted, 11273u);
    EXPECT_EQ(m.corrupted, 12u);
    EXPECT_EQ(fnv1a_words(known), 0x264e770bfc35008bull);
    EXPECT_EQ(fnv1a_words(completed), 0x2c85abac3a01d965ull);
  }
}

TEST(DoublingGossip, RespectsRoundCap) {
  const std::uint32_t n = 32;
  DoublingConfig cfg;
  cfg.t = 1;
  cfg.max_exchanges = 3;
  auto inputs = harness::make_inputs(harness::InputPattern::Random, n, 1);
  DoublingGossipMachine machine(cfg, inputs);
  EXPECT_EQ(machine.scheduled_rounds(), 6u);
}

TEST(DoublingGossip, RejectsTinyInstances) {
  DoublingConfig cfg;
  std::vector<std::uint8_t> one(1, 0);
  EXPECT_THROW(DoublingGossipMachine(cfg, one), PreconditionError);
}

}  // namespace
}  // namespace omx::baselines
