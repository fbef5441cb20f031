// Thread-count determinism matrix.
//
// The sharded computation phase (sim/runner.h) promises *bit-identical*
// executions at every thread count: contiguous shards merged in process-id
// order reproduce the serial wire exactly, and racked rng accounting
// reduces to the serial totals. This suite runs an
// (algorithm x adversary x n x seed) grid at threads in {1, 2, 4, 8} and
// asserts the full observable metric vector is identical across counts —
// including a run with a finite random-bit budget, where the engine must
// fall back to serial stepping near exhaustion so the budget cliff lands
// on exactly the same draw. The flood-path grid is pinned to literals.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/params.h"
#include "harness/experiment.h"
#include "rng/ledger.h"

namespace omx {
namespace {

struct FullVector {
  std::uint64_t rounds, messages, comm_bits, random_calls, random_bits,
      omitted, time_rounds;
  std::uint32_t corrupted;
  std::uint8_t decision;
  bool agreement, validity, all_decided, hit_cap;

  bool operator==(const FullVector&) const = default;
};

FullVector run(harness::Algo algo, harness::Attack attack, std::uint32_t n,
               std::uint64_t seed, unsigned threads,
               std::uint64_t bit_budget = rng::kUnlimited) {
  harness::ExperimentConfig cfg;
  cfg.algo = algo;
  cfg.attack = attack;
  cfg.n = n;
  cfg.t = algo == harness::Algo::Param ? core::Params::max_t_param(n)
                                       : core::Params::max_t_optimal(n);
  cfg.x = 3;
  cfg.inputs = harness::InputPattern::Random;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.random_bit_budget = bit_budget;
  const auto r = harness::run_experiment(cfg);
  return FullVector{r.metrics.rounds,       r.metrics.messages,
                    r.metrics.comm_bits,    r.metrics.random_calls,
                    r.metrics.random_bits,  r.metrics.omitted,
                    r.time_rounds,          r.metrics.corrupted,
                    r.decision,             r.agreement,
                    r.validity,             r.all_nonfaulty_decided,
                    r.hit_round_cap};
}

struct GridRow {
  harness::Algo algo;
  harness::Attack attack;
  std::uint32_t n;
  std::uint64_t seed;
};

class DeterminismMatrix : public ::testing::TestWithParam<GridRow> {};

TEST_P(DeterminismMatrix, MetricVectorIdenticalAcrossThreadCounts) {
  const GridRow& g = GetParam();
  const FullVector serial = run(g.algo, g.attack, g.n, g.seed, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FullVector parallel = run(g.algo, g.attack, g.n, g.seed, threads);
    EXPECT_EQ(parallel.rounds, serial.rounds);
    EXPECT_EQ(parallel.messages, serial.messages);
    EXPECT_EQ(parallel.comm_bits, serial.comm_bits);
    EXPECT_EQ(parallel.random_calls, serial.random_calls);
    EXPECT_EQ(parallel.random_bits, serial.random_bits);
    EXPECT_EQ(parallel.omitted, serial.omitted);
    EXPECT_EQ(parallel.time_rounds, serial.time_rounds);
    EXPECT_EQ(parallel.corrupted, serial.corrupted);
    EXPECT_EQ(parallel.decision, serial.decision);
    EXPECT_TRUE(parallel == serial);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeterminismMatrix,
    ::testing::Values(
        GridRow{harness::Algo::Optimal, harness::Attack::None, 48u, 3u},
        GridRow{harness::Algo::Optimal, harness::Attack::RandomOmission, 96u,
                3u},
        GridRow{harness::Algo::Optimal, harness::Attack::CoinHiding, 96u, 5u},
        GridRow{harness::Algo::Optimal, harness::Attack::Chaos, 64u, 11u},
        GridRow{harness::Algo::Param, harness::Attack::RandomOmission, 96u,
                3u},
        GridRow{harness::Algo::Param, harness::Attack::GroupKiller, 160u, 5u},
        GridRow{harness::Algo::FloodSet, harness::Attack::RandomOmission, 96u,
                3u},
        GridRow{harness::Algo::FloodSet, harness::Attack::SplitBrain, 64u,
                9u},
        GridRow{harness::Algo::BenOr, harness::Attack::None, 48u, 3u},
        GridRow{harness::Algo::BenOr, harness::Attack::RandomOmission, 96u,
                5u}),
    [](const ::testing::TestParamInfo<GridRow>& info) {
      const auto& g = info.param;
      std::string name = harness::to_string(g.algo);
      name += "_";
      name += harness::to_string(g.attack);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(g.n) + "_s" +
             std::to_string(g.seed);
    });

// Flood-path matrix: each run, at every thread count, must produce the
// pinned observable vector. The literals were captured from the serial
// engine on the pair-list flood state, which the word-packed views
// replaced. n is chosen so each round's all-to-all wire clears the
// engine's parallel grain — the sharded delivery index genuinely engages
// instead of falling back to serial.
struct FloodGridRow {
  GridRow row;
  FullVector golden;
};

std::string literal(const FullVector& v) {
  return "{" + std::to_string(v.rounds) + ", " + std::to_string(v.messages) +
         ", " + std::to_string(v.comm_bits) + ", " +
         std::to_string(v.random_calls) + ", " +
         std::to_string(v.random_bits) + ", " + std::to_string(v.omitted) +
         ", " + std::to_string(v.time_rounds) + ", " +
         std::to_string(v.corrupted) + ", " + std::to_string(v.decision) +
         ", " + (v.agreement ? "true" : "false") + ", " +
         (v.validity ? "true" : "false") + ", " +
         (v.all_decided ? "true" : "false") + ", " +
         (v.hit_cap ? "true" : "false") + "}";
}

class FloodModeMatrix : public ::testing::TestWithParam<FloodGridRow> {};

TEST_P(FloodModeMatrix, AllModesMatchLegacySerial) {
  const GridRow& g = GetParam().row;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FullVector v = run(g.algo, g.attack, g.n, g.seed, threads);
    EXPECT_TRUE(v == GetParam().golden) << "got " << literal(v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FloodGrid, FloodModeMatrix,
    ::testing::Values(
        FloodGridRow{{harness::Algo::FloodSet, harness::Attack::None, 96u,
                      3u},
                     {5, 27360, 5882400, 0, 0, 0, 5, 0, 0, true, true, true,
                      false}},
        FloodGridRow{{harness::Algo::FloodSet,
                      harness::Attack::RandomOmission, 96u, 3u},
                     {5, 36480, 5891520, 0, 0, 1788, 5, 3, 0, true, true, true,
                      false}},
        FloodGridRow{{harness::Algo::FloodSet, harness::Attack::StaticCrash,
                      96u, 7u},
                     {5, 27265, 5758805, 0, 0, 849, 5, 3, 1, true, true, true,
                      false}},
        FloodGridRow{{harness::Algo::BenOr, harness::Attack::RandomOmission,
                      96u, 5u},
                     {3, 27552, 36672, 1, 1, 1351, 3, 3, 0, true, true, true,
                      false}},
        FloodGridRow{{harness::Algo::BenOr, harness::Attack::Chaos, 64u,
                      11u},
                     {3, 12224, 16256, 0, 0, 0, 3, 0, 0, true, true, true,
                      false}}),
    [](const ::testing::TestParamInfo<FloodGridRow>& info) {
      const auto& g = info.param.row;
      std::string name = harness::to_string(g.algo);
      name += "_";
      name += harness::to_string(g.attack);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(g.n) + "_s" +
             std::to_string(g.seed);
    });

// A finite bit budget is the hard case: budget checks are sequential in the
// serial engine, so the racked engine must refuse to shard any round where
// the outcome could depend on billing order. The budget cliff (draws stop,
// protocols degrade deterministically) must land identically at every
// thread count.
TEST(DeterminismBudget, BudgetExhaustionPointIdenticalAcrossThreadCounts) {
  // Tight enough that BenOr exhausts it mid-run at n=64 (coin flips in the
  // dead zone), exercising the serial-fallback path.
  const std::uint64_t kBudget = 24;
  const FullVector serial = run(harness::Algo::BenOr,
                                harness::Attack::RandomOmission, 64u, 7u, 1,
                                kBudget);
  EXPECT_LE(serial.random_bits, kBudget);
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FullVector parallel = run(harness::Algo::BenOr,
                                    harness::Attack::RandomOmission, 64u, 7u,
                                    threads, kBudget);
    EXPECT_TRUE(parallel == serial);
    EXPECT_EQ(parallel.random_bits, serial.random_bits);
    EXPECT_EQ(parallel.random_calls, serial.random_calls);
  }
}

// Same, for the Optimal algorithm whose epochs draw one bit per operative
// process: a budget below one epoch's demand forces deterministic votes.
TEST(DeterminismBudget, OptimalWithTinyBudgetIdenticalAcrossThreadCounts) {
  const std::uint64_t kBudget = 40;
  const FullVector serial = run(harness::Algo::Optimal,
                                harness::Attack::None, 48u, 5u, 1, kBudget);
  EXPECT_LE(serial.random_bits, kBudget);
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FullVector parallel = run(harness::Algo::Optimal,
                                    harness::Attack::None, 48u, 5u, threads,
                                    kBudget);
    EXPECT_TRUE(parallel == serial);
  }
}

}  // namespace
}  // namespace omx
