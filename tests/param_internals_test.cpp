// White-box tests of ParamOmissions internals: phase geometry, decision
// propagation through gossip, inner-run isolation, and the safety tail.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "adversary/strategies.h"
#include "core/optimal_core.h"
#include "core/param_consensus.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx::core {
namespace {

TEST(ParamInternals, ScheduleIsSumOfPhaseBlocksPlusTail) {
  const std::uint32_t n = 120;
  const core::Params params;
  for (std::uint32_t x : {1u, 2u, 4u, 8u}) {
    ParamConfig cfg;
    cfg.t = Params::max_t_param(n);
    cfg.x = x;
    std::vector<std::uint8_t> inputs(n, 0);
    ParamMachine machine(cfg, inputs);

    const std::uint32_t width = (n + x - 1) / x;
    const std::uint32_t phases = (n + width - 1) / width;
    EXPECT_EQ(machine.num_phases(), phases);

    std::uint32_t expected = 0;
    for (std::uint32_t i = 0; i < phases; ++i) {
      const std::uint32_t lo = i * width;
      const std::uint32_t size = std::min(n, lo + width) - lo;
      expected += OptimalCore::schedule_length(
                      params, size, Params::max_t_optimal(size), true) +
                  params.gossip_rounds(n) + 1;  // + settle round
    }
    expected += 4;                    // safety send/collect, bcast, collect
    expected += cfg.t + 3;            // flood fallback
    EXPECT_EQ(machine.scheduled_rounds(), expected) << "x=" << x;
  }
}

TEST(ParamInternals, FirstReliablePhaseDecidesForEveryone) {
  // Fault-free + unanimous inputs: phase 0's inner run decides its value,
  // the gossip floods it, and *every* process enters phase 1 with that
  // value — so later phases are unanimous and draw no coins.
  const std::uint32_t n = 96;
  ParamConfig cfg;
  cfg.t = Params::max_t_param(n);
  cfg.x = 4;
  std::vector<std::uint8_t> inputs(n, 0);
  // Mixed inputs but phase-0 members all 1: phase 0 decides 1 whp... make
  // it deterministic: ALL inputs 1 except members of later phases hold 0 —
  // phase 0's unanimous-1 inner run must force the global decision to 1.
  for (std::uint32_t p = 0; p < 24; ++p) inputs[p] = 1;  // SP_0 unanimous 1
  ParamMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 7);
  adversary::NullAdversary<Msg> adv;
  sim::Runner<Msg> runner(n, cfg.t, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  for (std::uint32_t p = 0; p < n; ++p) {
    const auto out = machine.outcome(p);
    ASSERT_TRUE(out.decided) << p;
    EXPECT_EQ(out.value, 1) << p;
  }
  EXPECT_EQ(ledger.bits(), 0u)
      << "after phase 0 unifies, no later inner run may flip coins";
}

TEST(ParamInternals, GossipFloodsOnGraphNotAllToAll) {
  // During gossip rounds no process may send more than its graph degree.
  const std::uint32_t n = 100;
  ParamConfig cfg;
  cfg.t = 1;
  cfg.x = 4;
  std::vector<std::uint8_t> inputs(n, 1);
  ParamMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);

  class DegreeAuditor final : public sim::Adversary<Msg> {
   public:
    void intervene(sim::AdversaryContext<Msg>& ctx) override {
      std::map<sim::ProcessId, std::uint32_t> per_sender;
      bool any_gossip = false;
      ctx.for_each_message(
          [&](sim::ProcessId from, sim::ProcessId, const Msg& payload) {
            if (std::get_if<GossipMsg>(&payload) != nullptr) {
              any_gossip = true;
              ++per_sender[from];
            }
          });
      if (!any_gossip) return;
      for (const auto& [p, count] : per_sender) {
        max_fanout_ = std::max(max_fanout_, count);
      }
    }
    std::uint32_t max_fanout_ = 0;
  } auditor;

  sim::Runner<Msg> runner(n, 1, &ledger, &auditor);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  const core::Params params;
  EXPECT_GT(auditor.max_fanout_, 0u);
  EXPECT_LE(auditor.max_fanout_, 2 * params.delta(n))
      << "gossip must use the sparse graph, not all-to-all";
}

TEST(ParamInternals, InnerRunsNeverLeakOutsideTheirSuperProcess) {
  const std::uint32_t n = 80;
  ParamConfig cfg;
  cfg.t = 1;
  cfg.x = 4;  // width 20
  std::vector<std::uint8_t> inputs(n, 0);
  for (std::uint32_t p = 0; p < n; p += 2) inputs[p] = 1;
  ParamMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 2);

  class LeakAuditor final : public sim::Adversary<Msg> {
   public:
    void intervene(sim::AdversaryContext<Msg>& ctx) override {
      ctx.for_each_message(
          [&](sim::ProcessId from, sim::ProcessId to, const Msg& payload) {
            const bool inner_kind =
                std::get_if<RelayPush>(&payload) != nullptr ||
                std::get_if<RelayAck>(&payload) != nullptr ||
                std::get_if<RelayShare>(&payload) != nullptr ||
                std::get_if<SpreadMsg>(&payload) != nullptr;
            if (inner_kind && from / 20 != to / 20) ++leaks_;
          });
    }
    std::uint64_t leaks_ = 0;
  } auditor;

  sim::Runner<Msg> runner(n, 1, &ledger, &auditor);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  EXPECT_EQ(auditor.leaks_, 0u)
      << "inner aggregation/spreading must stay within the super-process";
}

TEST(ParamInternals, OuterInoperativeMembersIdleInInnerRuns) {
  // Fully silence one process from round 0: it must go outer-inoperative
  // during the first gossip and take no further part, yet still decide via
  // the final broadcast (line 25).
  const std::uint32_t n = 80;
  ParamConfig cfg;
  cfg.t = 1;
  cfg.x = 4;
  std::vector<std::uint8_t> inputs(n, 1);
  ParamMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 3);
  adversary::StaticCrashAdversary<Msg> adv({{41, 0}});
  sim::Runner<Msg> runner(n, 1, &ledger, &adv);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  EXPECT_FALSE(machine.operative(41));
  for (std::uint32_t p = 0; p < n; ++p) {
    if (runner.faults().is_corrupted(p)) continue;
    EXPECT_TRUE(machine.outcome(p).decided) << p;
    EXPECT_EQ(machine.outcome(p).value, 1) << p;
  }
}

TEST(ParamInternals, OperativeCountFloor) {
  // Lemma 16 analog: >= n - 3t operative at the end, under heavy omission.
  const std::uint32_t n = 240;
  const std::uint32_t t = Params::max_t_param(n);
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::Param;
  cfg.n = n;
  cfg.t = t;
  cfg.x = 6;
  cfg.attack = harness::Attack::RandomOmission;
  cfg.drop_prob = 1.0;
  cfg.inputs = harness::InputPattern::Random;
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_GE(r.operative_end + 3 * t, n);
}

}  // namespace
}  // namespace omx::core
