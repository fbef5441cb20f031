// Packed-vs-legacy equivalence golden matrix.
//
// The packed representations (core/packed_view.h, support/run_set.h)
// promise *bit-identical observable behaviour*:
// same decisions, same full Metrics vector, and — where traces apply —
// byte-identical event streams. This suite pins that contract across
// n x threads x attack, for the flood-set baseline, Ben-Or's fallback tail
// and the doubling gossip.
//
// Trace byte-identity is checked at the small sizes (a traced flood run
// emits one event per logical message, so an n=1024 trace is ~100 MB);
// the large rows pin metrics + decisions, which the per-message accounting
// units in packed_view_test.cpp extend to the wire encoding.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/strategies.h"
#include "baselines/ben_or.h"
#include "baselines/doubling_gossip.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"

namespace omx {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / "omx_packed_eq" / name;
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_same_metrics(const sim::Metrics& a, const sim::Metrics& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.comm_bits, b.comm_bits);
  EXPECT_EQ(a.random_calls, b.random_calls);
  EXPECT_EQ(a.random_bits, b.random_bits);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.omitted, b.omitted);
}

// ---------------------------------------------------------------------------
// FloodSet via the harness: legacy vs packed, full matrix.

harness::ExperimentResult flood_run(std::uint32_t n, std::uint32_t t,
                                    harness::Attack attack, unsigned threads,
                                    bool packed,
                                    const std::string& trace_path = "") {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = attack;
  cfg.n = n;
  cfg.t = t;
  cfg.inputs = harness::InputPattern::Random;
  cfg.seed = 9;
  cfg.threads = threads;
  cfg.packed = packed;
  cfg.trace_path = trace_path;
  return harness::run_experiment(cfg);
}

class FloodPackedMatrix
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, unsigned, harness::Attack>> {};

TEST_P(FloodPackedMatrix, PackedAndStreamedMatchLegacy) {
  const auto [n, threads, attack] = GetParam();
  const std::uint32_t t = 4;
  const bool trace = n <= 64;  // byte-identity at the small rows
  const fs::path dir = scratch("flood");
  const std::string tag = std::to_string(n) + "_" +
                          std::to_string(threads) + "_" +
                          std::to_string(static_cast<int>(attack));
  const std::string trace_legacy =
      trace ? (dir / ("legacy_" + tag + ".trace")).string() : "";
  const std::string trace_packed =
      trace ? (dir / ("packed_" + tag + ".trace")).string() : "";

  const auto legacy = flood_run(n, t, attack, threads, false, trace_legacy);
  const auto packed = flood_run(n, t, attack, threads, true, trace_packed);

  ASSERT_TRUE(legacy.ok());
  expect_same_metrics(legacy.metrics, packed.metrics);
  EXPECT_EQ(legacy.decision, packed.decision);
  EXPECT_EQ(legacy.time_rounds, packed.time_rounds);
  EXPECT_EQ(legacy.ok(), packed.ok());
  if (trace) {
    const std::string a = slurp(trace_legacy);
    const std::string b = slurp(trace_packed);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "packed trace diverges from legacy trace";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FloodPackedMatrix,
    ::testing::Combine(::testing::Values(64u, 1024u),
                       ::testing::Values(1u, 8u),
                       ::testing::Values(harness::Attack::None,
                                         harness::Attack::RandomOmission)),
    [](const ::testing::TestParamInfo<FloodPackedMatrix::ParamType>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "T" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == harness::Attack::None ? "None"
                                                               : "RandOmit");
    });

// n = 4096: a legacy run costs minutes (the O(n * pairs) consume loop the
// packed views replace), so the large row pins what is checkable in test
// time — the packed path is invariant across thread counts and meets the
// consensus spec. Equivalence to legacy is covered by the rows above plus
// the encoding units in packed_view_test.cpp.
TEST(FloodPackedScale, N4096InvariantAcrossDeliveryAndThreads) {
  const std::uint32_t n = 4096, t = 3;
  const auto base = flood_run(n, t, harness::Attack::None, /*threads=*/1,
                              /*packed=*/true);
  ASSERT_TRUE(base.ok());
  const auto r = flood_run(n, t, harness::Attack::None, /*threads=*/8,
                           /*packed=*/true);
  ASSERT_TRUE(r.ok());
  expect_same_metrics(base.metrics, r.metrics);
  EXPECT_EQ(base.decision, r.decision);
  EXPECT_EQ(base.time_rounds, r.time_rounds);
}

// ---------------------------------------------------------------------------
// Ben-Or with a tiny voting cap: every survivor enters the flood-set
// fallback, which is exactly the packed/legacy split under test.

struct BenOrOut {
  sim::Metrics metrics;
  std::vector<core::MemberOutcome> outcomes;
};

BenOrOut benor_run(std::uint32_t n, std::uint32_t t, bool packed,
                   unsigned threads, bool starve,
                   const std::string& trace_path = "") {
  baselines::BenOrConfig cfg;
  cfg.t = t;
  cfg.round_cap = 2;  // force the fallback tail almost everywhere
  cfg.packed = packed;
  const auto inputs =
      harness::make_inputs(harness::InputPattern::Alternating, n, 1);
  baselines::BenOrMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 42);

  adversary::NullAdversary<core::Msg> none;
  std::vector<sim::ProcessId> victims;
  for (std::uint32_t i = 0; i < t; ++i) victims.push_back(i * 3 + 1);
  adversary::StarveReceiversAdversary<core::Msg> starver(victims);
  sim::Adversary<core::Msg>* adv = starve
      ? static_cast<sim::Adversary<core::Msg>*>(&starver)
      : static_cast<sim::Adversary<core::Msg>*>(&none);

  sim::Runner<core::Msg>::Options opts;
  opts.threads = threads;
  std::unique_ptr<trace::TraceWriter> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<trace::TraceWriter>(trace_path, n);
    opts.trace = tracer.get();
  }
  sim::Runner<core::Msg> runner(n, t, &ledger, adv, opts);
  machine.set_fault_view(&runner.faults());

  BenOrOut out;
  out.metrics = runner.run(machine).metrics;
  if (tracer != nullptr) tracer->close();
  for (sim::ProcessId p = 0; p < n; ++p) {
    out.outcomes.push_back(machine.outcome(p));
  }
  return out;
}

class BenOrPackedMatrix
    : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(BenOrPackedMatrix, FallbackTailBitIdentical) {
  const auto [threads, starve] = GetParam();
  const std::uint32_t n = 64, t = 4;
  const fs::path dir = scratch("benor");
  const std::string tag =
      std::to_string(threads) + (starve ? "_starve" : "_none");
  const std::string ta = (dir / ("legacy_" + tag + ".trace")).string();
  const std::string tb = (dir / ("packed_" + tag + ".trace")).string();

  const BenOrOut legacy = benor_run(n, t, false, threads, starve, ta);
  const BenOrOut packed = benor_run(n, t, true, threads, starve, tb);

  expect_same_metrics(legacy.metrics, packed.metrics);
  ASSERT_EQ(legacy.outcomes.size(), packed.outcomes.size());
  for (std::size_t p = 0; p < legacy.outcomes.size(); ++p) {
    EXPECT_EQ(legacy.outcomes[p].decided, packed.outcomes[p].decided) << p;
    EXPECT_EQ(legacy.outcomes[p].has_value, packed.outcomes[p].has_value)
        << p;
    if (legacy.outcomes[p].has_value) {
      EXPECT_EQ(legacy.outcomes[p].value, packed.outcomes[p].value) << p;
      EXPECT_EQ(legacy.outcomes[p].decision_round,
                packed.outcomes[p].decision_round)
          << p;
    }
  }
  const std::string a = slurp(ta);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == slurp(tb)) << "packed trace diverges from legacy trace";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BenOrPackedMatrix,
    ::testing::Combine(::testing::Values(1u, 8u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<BenOrPackedMatrix::ParamType>& info) {
      return "T" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Starve" : "None");
    });

// ---------------------------------------------------------------------------
// Doubling gossip: run-length-coded knowledge vs the legacy known/sent
// matrices — same metrics, same completion/readout per process.

struct GossipOut {
  sim::Metrics metrics;
  std::vector<std::uint32_t> known, ones, zeros, contacts, doublings;
  std::vector<bool> completed;
};

GossipOut gossip_run(std::uint32_t n, std::uint32_t t, bool packed,
                     unsigned threads, sim::Adversary<core::Msg>& adv,
                     const std::string& trace_path = "") {
  baselines::DoublingConfig cfg;
  cfg.t = t;
  cfg.packed = packed;
  const auto inputs =
      harness::make_inputs(harness::InputPattern::Random, n, 7);
  baselines::DoublingGossipMachine machine(cfg, inputs);
  rng::Ledger ledger(n, 1);
  sim::Runner<core::Msg>::Options opts;
  opts.threads = threads;
  std::unique_ptr<trace::TraceWriter> tracer;
  if (!trace_path.empty()) {
    tracer = std::make_unique<trace::TraceWriter>(trace_path, n);
    opts.trace = tracer.get();
  }
  sim::Runner<core::Msg> runner(n, t, &ledger, &adv, opts);
  machine.set_fault_view(&runner.faults());

  GossipOut out;
  out.metrics = runner.run(machine).metrics;
  if (tracer != nullptr) tracer->close();
  for (sim::ProcessId p = 0; p < n; ++p) {
    out.known.push_back(machine.known_of(p));
    out.ones.push_back(machine.ones_of(p));
    out.zeros.push_back(machine.zeros_of(p));
    out.contacts.push_back(machine.contacts_of(p));
    out.doublings.push_back(machine.doublings_of(p));
    out.completed.push_back(machine.completed(p));
  }
  return out;
}

void expect_same_gossip(const GossipOut& a, const GossipOut& b) {
  expect_same_metrics(a.metrics, b.metrics);
  EXPECT_EQ(a.known, b.known);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.zeros, b.zeros);
  EXPECT_EQ(a.contacts, b.contacts);
  EXPECT_EQ(a.doublings, b.doublings);
  EXPECT_EQ(a.completed, b.completed);
}

class GossipPackedMatrix
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, unsigned>> {};

TEST_P(GossipPackedMatrix, FaultFreeRunSetMatchesLegacy) {
  const auto [n, threads] = GetParam();
  adversary::NullAdversary<core::Msg> adv_a, adv_b;
  const GossipOut legacy = gossip_run(n, 0, false, threads, adv_a);
  const GossipOut packed = gossip_run(n, 0, true, threads, adv_b);
  expect_same_gossip(legacy, packed);
  // Everyone completed with the whole ring known.
  for (std::uint32_t p = 0; p < n; ++p) {
    EXPECT_TRUE(packed.completed[p]) << p;
    EXPECT_EQ(packed.known[p], n) << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GossipPackedMatrix,
    ::testing::Combine(::testing::Values(64u, 301u),
                       ::testing::Values(1u, 8u)),
    [](const ::testing::TestParamInfo<GossipPackedMatrix::ParamType>& info) {
      return "N" + std::to_string(std::get<0>(info.param)) + "T" +
             std::to_string(std::get<1>(info.param));
    });

TEST(GossipPacked, StarvationAttackMatchesLegacy) {
  // The asymmetric case: victims never learn, double to full windows, and
  // every responder's per-channel snapshots diverge — the packed run-set
  // algebra must still mirror the legacy sent-matrix exactly.
  const std::uint32_t n = 128, t = 4;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    adversary::StarveReceiversAdversary<core::Msg> adv_a({3, 9, 11, 40});
    adversary::StarveReceiversAdversary<core::Msg> adv_b({3, 9, 11, 40});
    const GossipOut legacy = gossip_run(n, t, false, threads, adv_a);
    const GossipOut packed = gossip_run(n, t, true, threads, adv_b);
    expect_same_gossip(legacy, packed);
    EXPECT_FALSE(packed.completed[3]);
    EXPECT_EQ(packed.known[3], 1u);
  }
}

TEST(GossipPacked, TraceByteIdenticalToLegacy) {
  const std::uint32_t n = 64;
  const fs::path dir = scratch("gossip");
  const std::string ta = (dir / "legacy.trace").string();
  const std::string tb = (dir / "packed.trace").string();
  adversary::NullAdversary<core::Msg> adv_a, adv_b;
  const GossipOut legacy = gossip_run(n, 0, false, 1, adv_a, ta);
  const GossipOut packed = gossip_run(n, 0, true, 1, adv_b, tb);
  expect_same_gossip(legacy, packed);
  const std::string a = slurp(ta);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == slurp(tb)) << "packed trace diverges from legacy trace";
}

}  // namespace
}  // namespace omx
