// The experiment harness itself: verdict semantics (agreement / validity /
// termination over the post-run corruption set), input construction, config
// validation, and time accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/params.h"
#include "graph/comm_graph.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "support/check.h"

namespace omx::harness {
namespace {

TEST(Harness, MakeInputsPatterns) {
  EXPECT_EQ(make_inputs(InputPattern::AllZero, 5, 1),
            (std::vector<std::uint8_t>{0, 0, 0, 0, 0}));
  EXPECT_EQ(make_inputs(InputPattern::AllOne, 4, 1),
            (std::vector<std::uint8_t>{1, 1, 1, 1}));
  EXPECT_EQ(make_inputs(InputPattern::Half, 4, 1),
            (std::vector<std::uint8_t>{1, 1, 0, 0}));
  EXPECT_EQ(make_inputs(InputPattern::OneDissent, 3, 1),
            (std::vector<std::uint8_t>{0, 1, 1}));
  EXPECT_EQ(make_inputs(InputPattern::Alternating, 4, 1),
            (std::vector<std::uint8_t>{0, 1, 0, 1}));
  // Random is seeded and fair-ish.
  const auto a = make_inputs(InputPattern::Random, 1000, 7);
  const auto b = make_inputs(InputPattern::Random, 1000, 7);
  const auto c = make_inputs(InputPattern::Random, 1000, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  std::uint32_t ones = 0;
  for (auto v : a) ones += v;
  EXPECT_NEAR(ones, 500, 80);
}

TEST(Harness, ToStringCoversEverything) {
  EXPECT_STREQ(to_string(Algo::Optimal), "optimal");
  EXPECT_STREQ(to_string(Algo::Param), "param");
  EXPECT_STREQ(to_string(Algo::FloodSet), "floodset");
  EXPECT_STREQ(to_string(Algo::BenOr), "benor");
  EXPECT_STREQ(to_string(Attack::None), "none");
  EXPECT_STREQ(to_string(Attack::SendOmission), "send-omit");
  EXPECT_STREQ(to_string(Attack::Chaos), "chaos");
  EXPECT_STREQ(to_string(InputPattern::Alternating), "alternating");
}

TEST(Harness, ExplicitInputsMustMatchN) {
  ExperimentConfig cfg;
  cfg.n = 8;
  cfg.explicit_inputs = {0, 1};  // wrong length
  EXPECT_THROW(run_experiment(cfg), PreconditionError);
}

TEST(Harness, ExplicitInputsOverridePattern) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 9;
  cfg.t = 0;
  cfg.inputs = InputPattern::AllZero;          // would decide 0...
  cfg.explicit_inputs.assign(9, 1);            // ...but these say 1
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.decision, 1);
}

TEST(Harness, CoinHidingOnFloodSetIsRejected) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.attack = Attack::CoinHiding;  // no vote probe on a det. protocol
  cfg.n = 16;
  cfg.t = 1;
  EXPECT_THROW(run_experiment(cfg), PreconditionError);
}

TEST(Harness, TimeRoundsNeverExceedsEngineRounds) {
  for (auto algo : {Algo::Optimal, Algo::Param, Algo::FloodSet, Algo::BenOr}) {
    ExperimentConfig cfg;
    cfg.algo = algo;
    cfg.n = 64;
    cfg.x = 4;
    cfg.t = algo == Algo::Param ? core::Params::max_t_param(64)
                                : core::Params::max_t_optimal(64);
    cfg.attack = Attack::StaticCrash;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_LE(r.time_rounds, r.metrics.rounds + 1) << to_string(algo);
    EXPECT_GE(r.time_rounds, 1u) << to_string(algo);
  }
}

TEST(Harness, ValidityVerdictUsesNonFaultyInputsOnly) {
  // Non-faulty unanimous 1, the (crashed) dissenter holds 0: the verdict
  // must demand decision == 1, and the algorithms deliver it.
  ExperimentConfig cfg;
  cfg.n = 60;
  cfg.t = 1;
  cfg.inputs = InputPattern::OneDissent;  // process 0 dissents...
  cfg.attack = Attack::StaticCrash;       // ...and the schedule may hit it
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.seed = seed;
    const auto r = run_experiment(cfg);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity) << "seed " << seed;
  }
}

TEST(Harness, BudgetFieldCapsLedger) {
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.t = 2;
  cfg.inputs = InputPattern::Alternating;  // would draw 64 coins uncapped
  cfg.random_bit_budget = 10;
  const auto r = run_experiment(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_LE(r.metrics.random_bits, 10u);
}

TEST(Harness, CorruptedCountNeverExceedsBudget) {
  for (auto attack : {Attack::StaticCrash, Attack::RandomOmission,
                      Attack::SplitBrain, Attack::GroupKiller, Attack::Chaos}) {
    ExperimentConfig cfg;
    cfg.n = 90;
    cfg.t = 3;
    cfg.attack = attack;
    const auto r = run_experiment(cfg);
    EXPECT_LE(r.corrupted, 3u) << to_string(attack);
  }
}

TEST(Harness, OperativeEndReportedForOperativeAlgorithmsOnly) {
  ExperimentConfig cfg;
  cfg.n = 64;
  cfg.t = 2;
  const auto opt = run_experiment(cfg);
  EXPECT_GT(opt.operative_end, 0u);
  cfg.algo = Algo::FloodSet;
  const auto flood = run_experiment(cfg);
  EXPECT_EQ(flood.operative_end, 0u);  // concept does not apply
}


// --- eager config validation: run_experiment rejects an invalid config up
// front with the offending values in the message, before building anything ---

std::string precondition_message(const ExperimentConfig& cfg) {
  try {
    run_experiment(cfg);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(Harness, PrebuiltArtifactsLeaveTheTrialNothingToBuild) {
  // The farm calls prebuild_shared_artifacts before each fork so trials
  // inherit their graph and partition: a trial run after it must build
  // neither. Param's super-processes (17, 17, 16 at n=50, x=3) run
  // Algorithm 1 at their own sizes; group-killer reads the partition at n.
  std::vector<ExperimentConfig> cfgs(4);
  cfgs[0].algo = Algo::Optimal;
  cfgs[0].attack = Attack::RandomOmission;
  cfgs[1].algo = Algo::Param;
  cfgs[1].x = 3;
  cfgs[2].algo = Algo::FloodSet;
  cfgs[2].attack = Attack::GroupKiller;
  cfgs[3].algo = Algo::BenOr;
  for (ExperimentConfig& cfg : cfgs) {
    cfg.n = 50;
    cfg.t = 4;
    prebuild_shared_artifacts(cfg);
    const std::uint64_t graphs = graph::CommGraph::common_for_shared_builds();
    const std::uint64_t partitions = groups::SqrtPartition::shared_builds();
    EXPECT_TRUE(run_experiment(cfg).ok()) << to_string(cfg.algo);
    EXPECT_EQ(graph::CommGraph::common_for_shared_builds(), graphs)
        << to_string(cfg.algo);
    EXPECT_EQ(groups::SqrtPartition::shared_builds(), partitions)
        << to_string(cfg.algo);
  }
}

TEST(Harness, PrebuildBuildsNothingForTrialsThatLookUpNothing) {
  // The farm calls the helper before every fork, so it must not build what
  // the trial never reads: the baselines, under every attack but
  // group-killer, use neither a graph nor a partition — and the trial
  // confirms it by building nothing either.
  for (const Algo algo : {Algo::FloodSet, Algo::BenOr}) {
    for (const Attack attack :
         {Attack::None, Attack::StaticCrash, Attack::RandomOmission,
          Attack::SendOmission, Attack::SplitBrain, Attack::Chaos}) {
      ExperimentConfig cfg;
      cfg.algo = algo;
      cfg.attack = attack;
      cfg.n = 53;
      cfg.t = 5;
      const std::uint64_t graphs = graph::CommGraph::common_for_shared_builds();
      const std::uint64_t partitions = groups::SqrtPartition::shared_builds();
      prebuild_shared_artifacts(cfg);
      EXPECT_EQ(graph::CommGraph::common_for_shared_builds(), graphs)
          << to_string(algo) << "/" << to_string(attack);
      EXPECT_EQ(groups::SqrtPartition::shared_builds(), partitions)
          << to_string(algo) << "/" << to_string(attack);
      EXPECT_TRUE(run_experiment(cfg).ok())
          << to_string(algo) << "/" << to_string(attack);
      EXPECT_EQ(graph::CommGraph::common_for_shared_builds(), graphs)
          << to_string(algo) << "/" << to_string(attack);
      EXPECT_EQ(groups::SqrtPartition::shared_builds(), partitions)
          << to_string(algo) << "/" << to_string(attack);
    }
  }
}

TEST(Harness, PrebuildLeavesInvalidConfigsToTheTrial) {
  // The daemon prebuilds before it forks; a config the trial will reject
  // must reach the trial (which records the rejection), so the helper must
  // not throw on it.
  std::vector<ExperimentConfig> cfgs(4);
  cfgs[0].algo = Algo::Optimal;
  cfgs[0].n = 0;
  cfgs[1].algo = Algo::Param;
  cfgs[1].n = 64;
  cfgs[1].x = 0;
  cfgs[2].algo = Algo::Param;
  cfgs[2].n = 8;
  cfgs[2].x = 9;
  cfgs[3].algo = Algo::Optimal;
  cfgs[3].n = 8;
  cfgs[3].t = 8;
  for (const ExperimentConfig& cfg : cfgs) {
    EXPECT_NO_THROW(prebuild_shared_artifacts(cfg))
        << "n=" << cfg.n << " x=" << cfg.x << " t=" << cfg.t;
    EXPECT_FALSE(precondition_message(cfg).empty())
        << "n=" << cfg.n << " x=" << cfg.x << " t=" << cfg.t;
  }
}

TEST(HarnessValidation, RejectsFaultBudgetAtLeastN) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 8;
  cfg.t = 8;
  const std::string msg = precondition_message(cfg);
  ASSERT_FALSE(msg.empty()) << "t >= n was accepted";
  EXPECT_NE(msg.find("t=8"), std::string::npos) << msg;
  EXPECT_NE(msg.find("n=8"), std::string::npos) << msg;
}

TEST(HarnessValidation, RejectsZeroProcessesAndZeroSuperProcesses) {
  ExperimentConfig cfg;
  cfg.n = 0;
  EXPECT_FALSE(precondition_message(cfg).empty());
  cfg = ExperimentConfig{};
  cfg.algo = Algo::Param;
  cfg.n = 64;
  cfg.t = 1;
  cfg.x = 0;
  const std::string msg = precondition_message(cfg);
  ASSERT_FALSE(msg.empty()) << "x = 0 was accepted";
  EXPECT_NE(msg.find("x=0"), std::string::npos) << msg;
}

TEST(HarnessValidation, RejectsDropProbOutsideUnitInterval) {
  for (const double p : {-0.1, 1.5}) {
    ExperimentConfig cfg;
    cfg.algo = Algo::FloodSet;
    cfg.n = 8;
    cfg.t = 2;
    cfg.attack = Attack::RandomOmission;
    cfg.drop_prob = p;
    const std::string msg = precondition_message(cfg);
    ASSERT_FALSE(msg.empty()) << "drop_prob " << p << " was accepted";
    EXPECT_NE(msg.find("drop_prob"), std::string::npos) << msg;
  }
}

TEST(HarnessValidation, RejectsExplicitInputsOfWrongLength) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 8;
  cfg.t = 2;
  cfg.explicit_inputs = {1, 0, 1};  // 3 entries for n = 8
  const std::string msg = precondition_message(cfg);
  ASSERT_FALSE(msg.empty()) << "short explicit_inputs was accepted";
  EXPECT_NE(msg.find("explicit_inputs"), std::string::npos) << msg;
  EXPECT_NE(msg.find("3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("8"), std::string::npos) << msg;
}

TEST(HarnessValidation, FromStringRoundTripsEveryEnumerator) {
  for (const auto a : {Algo::Optimal, Algo::Param, Algo::FloodSet,
                       Algo::BenOr}) {
    Algo back;
    ASSERT_TRUE(algo_from_string(to_string(a), &back)) << to_string(a);
    EXPECT_EQ(back, a);
  }
  for (const auto a :
       {Attack::None, Attack::StaticCrash, Attack::RandomOmission,
        Attack::SendOmission, Attack::SplitBrain, Attack::GroupKiller,
        Attack::CoinHiding, Attack::Chaos}) {
    Attack back;
    ASSERT_TRUE(attack_from_string(to_string(a), &back)) << to_string(a);
    EXPECT_EQ(back, a);
  }
  for (const auto p :
       {InputPattern::AllZero, InputPattern::AllOne, InputPattern::Half,
        InputPattern::Random, InputPattern::OneDissent,
        InputPattern::Alternating}) {
    InputPattern back;
    ASSERT_TRUE(inputs_from_string(to_string(p), &back)) << to_string(p);
    EXPECT_EQ(back, p);
  }
  Algo a;
  Attack at;
  InputPattern ip;
  EXPECT_FALSE(algo_from_string("nope", &a));
  EXPECT_FALSE(attack_from_string("nope", &at));
  EXPECT_FALSE(inputs_from_string("nope", &ip));
}

}  // namespace
}  // namespace omx::harness
