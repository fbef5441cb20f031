// Flood and gossip goldens: decisions, Metrics, per-process readouts and
// trace hashes of the flood-set baseline, Ben-Or's flood-set fallback tail
// and the doubling gossip, pinned as literals.
//
// The literals were captured from the pair-list flood state: (id, bit)
// pair lists on the wire, a per-member known vector, and the gossip's n×n
// `sent` matrices. The word-packed views (core/packed_view.h) and the
// run-length gossip sets (support/run_set.h) must reproduce them bit for
// bit. Every row runs at two lane counts against one literal, so the suite
// also pins thread-count invariance.
//
// Trace hashes are pinned at the small sizes (a traced flood run emits one
// event per logical message, so an n=1024 trace holds ~4M records); the
// n=1024 rows pin Metrics and decisions. A trace hash is taken over the
// trace's fixed-width image (tests/trace_image.h): the bytes of the raw
// trace files the literals were captured from. Readouts of every process
// are folded into one FNV-1a digest; the counts beside it say what a
// mismatch is about.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/strategies.h"
#include "baselines/ben_or.h"
#include "baselines/doubling_gossip.h"
#include "harness/experiment.h"
#include "rng/ledger.h"
#include "sim/runner.h"
#include "trace_image.h"

namespace omx {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A fresh per-case trace path: ctest runs the cases as parallel processes.
std::string trace_path(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("omx_flood_golden_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return (dir / "run.trace").string();
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct MetricsGolden {
  std::uint64_t rounds, messages, comm_bits, random_calls, random_bits,
      omitted;
  std::uint32_t corrupted;
};

std::string literal(const sim::Metrics& m) {
  return "{" + std::to_string(m.rounds) + ", " + std::to_string(m.messages) +
         ", " + std::to_string(m.comm_bits) + ", " +
         std::to_string(m.random_calls) + ", " +
         std::to_string(m.random_bits) + ", " + std::to_string(m.omitted) +
         ", " + std::to_string(m.corrupted) + "}";
}

void expect_metrics(const sim::Metrics& m, const MetricsGolden& g) {
  EXPECT_EQ(m.rounds, g.rounds);
  EXPECT_EQ(m.messages, g.messages);
  EXPECT_EQ(m.comm_bits, g.comm_bits);
  EXPECT_EQ(m.random_calls, g.random_calls);
  EXPECT_EQ(m.random_bits, g.random_bits);
  EXPECT_EQ(m.omitted, g.omitted);
  EXPECT_EQ(m.corrupted, g.corrupted);
}

// ---------------------------------------------------------------------------
// FloodSet via the harness: n x attack, at 1 and 8 lanes.

struct FloodGolden {
  const char* name;
  std::uint32_t n;
  harness::Attack attack;
  MetricsGolden metrics;
  std::uint8_t decision;
  std::uint64_t time_rounds;
  std::uint64_t trace_hash;  // 0: untraced
};

void PrintTo(const FloodGolden& g, std::ostream* os) { *os << g.name; }

class FloodGoldenRun
    : public ::testing::TestWithParam<std::tuple<FloodGolden, unsigned>> {};

TEST_P(FloodGoldenRun, MetricsDecisionAndTracePinned) {
  const auto& [g, lanes] = GetParam();
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = g.attack;
  cfg.n = g.n;
  cfg.t = 4;
  cfg.inputs = harness::InputPattern::Random;
  cfg.seed = 9;
  cfg.threads = lanes;
  if (g.trace_hash != 0) {
    cfg.trace_path =
        trace_path(std::string(g.name) + "_" + std::to_string(lanes));
  }
  const auto r = harness::run_experiment(cfg);
  const std::uint64_t hash =
      g.trace_hash != 0 ? fnv1a_fixed_width_image(cfg.trace_path) : 0;
  SCOPED_TRACE("got " + literal(r.metrics) + ", " +
               std::to_string(r.decision) + ", " +
               std::to_string(r.time_rounds) + ", " + hex(hash));
  ASSERT_TRUE(r.ok());
  expect_metrics(r.metrics, g.metrics);
  EXPECT_EQ(r.decision, g.decision);
  EXPECT_EQ(r.time_rounds, g.time_rounds);
  EXPECT_EQ(hash, g.trace_hash);
}

const FloodGolden kFloodGoldens[] = {
    {"n64_none", 64, harness::Attack::None,
     {6, 12096, 1568448, 0, 0, 0, 0}, 0, 6, 0x42784552d3d75952ull},
    {"n64_rand_omit", 64, harness::Attack::RandomOmission,
     {6, 16128, 1572480, 0, 0, 1569, 4}, 0, 6, 0x44fed29457fdc4f2ull},
    {"n1024_none", 1024, harness::Attack::None,
     {6, 3142656, 10732170240ull, 0, 0, 0, 0}, 0, 6, 0},
    {"n1024_rand_omit", 1024, harness::Attack::RandomOmission,
     {6, 4189185, 10733216769ull, 0, 0, 26136, 4}, 0, 6, 0},
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, FloodGoldenRun,
    ::testing::Combine(::testing::ValuesIn(kFloodGoldens),
                       ::testing::Values(1u, 8u)),
    [](const ::testing::TestParamInfo<FloodGoldenRun::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_lanes" +
             std::to_string(std::get<1>(info.param));
    });

// n = 4096 has no pair-list literal: that representation took minutes per
// run (its O(n * pairs) consume loop). The row pins what is checkable in
// test time: the run is invariant across thread counts and meets the
// consensus spec.
TEST(FloodScale, N4096InvariantAcrossThreads) {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.n = 4096;
  cfg.t = 3;
  cfg.inputs = harness::InputPattern::Random;
  cfg.seed = 9;
  const auto base = harness::run_experiment(cfg);
  ASSERT_TRUE(base.ok());
  cfg.threads = 8;
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(literal(r.metrics), literal(base.metrics));
  EXPECT_EQ(r.decision, base.decision);
  EXPECT_EQ(r.time_rounds, base.time_rounds);
}

// ---------------------------------------------------------------------------
// Ben-Or with a voting cap of 2: every survivor enters the flood-set
// fallback tail, with and without receive starvation.

struct BenOrGolden {
  const char* name;
  bool starve;
  MetricsGolden metrics;
  std::uint32_t decided;
  std::uint64_t outcome_digest;  // (decided, has_value, value, round) per id
  std::uint64_t trace_hash;
};

void PrintTo(const BenOrGolden& g, std::ostream* os) { *os << g.name; }

class BenOrGoldenRun
    : public ::testing::TestWithParam<std::tuple<BenOrGolden, unsigned>> {};

TEST_P(BenOrGoldenRun, FallbackTailPinned) {
  const auto& [g, lanes] = GetParam();
  const std::uint32_t n = 64, t = 4;
  baselines::BenOrConfig cfg;
  cfg.t = t;
  cfg.round_cap = 2;
  baselines::BenOrMachine machine(
      cfg, harness::make_inputs(harness::InputPattern::Alternating, n, 1));
  rng::Ledger ledger(n, 42);

  adversary::NullAdversary<core::Msg> none;
  std::vector<sim::ProcessId> victims;
  for (std::uint32_t i = 0; i < t; ++i) victims.push_back(i * 3 + 1);
  adversary::StarveReceiversAdversary<core::Msg> starver(victims);
  sim::Adversary<core::Msg>* adv = g.starve
      ? static_cast<sim::Adversary<core::Msg>*>(&starver)
      : static_cast<sim::Adversary<core::Msg>*>(&none);

  const std::string path =
      trace_path(std::string(g.name) + "_" + std::to_string(lanes));
  trace::TraceWriter tracer(path, n);
  sim::Runner<core::Msg>::Options opts;
  opts.threads = lanes;
  opts.trace = &tracer;
  sim::Runner<core::Msg> runner(n, t, &ledger, adv, opts);
  machine.set_fault_view(&runner.faults());
  const sim::Metrics metrics = runner.run(machine).metrics;
  tracer.close();

  std::uint32_t decided = 0;
  std::uint64_t digest = kFnvBasis;
  for (sim::ProcessId p = 0; p < n; ++p) {
    const core::MemberOutcome o = machine.outcome(p);
    decided += o.decided ? 1 : 0;
    digest = fnv_step(digest, o.decided);
    digest = fnv_step(digest, o.has_value);
    digest = fnv_step(digest, o.has_value ? o.value : 0);
    digest = fnv_step(digest, o.has_value
                                  ? static_cast<std::uint64_t>(
                                        o.decision_round)
                                  : 0);
  }
  const std::uint64_t hash = fnv1a_fixed_width_image(path);
  SCOPED_TRACE("got " + literal(metrics) + ", " + std::to_string(decided) +
               ", " + hex(digest) + ", " + hex(hash));
  expect_metrics(metrics, g.metrics);
  EXPECT_EQ(decided, g.decided);
  EXPECT_EQ(digest, g.outcome_digest);
  EXPECT_EQ(hash, g.trace_hash);
}

const BenOrGolden kBenOrGoldens[] = {
    {"none", false, {8, 20288, 1576640, 128, 128, 0, 0}, 64,
     0xa092d7eecaa69325ull, 0xacf59cf28bea2112ull},
    {"starve", true, {3, 11968, 16000, 60, 60, 744, 4}, 64,
     0xc4690fda8664b525ull, 0x2fc92e2dcceba1d1ull},
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, BenOrGoldenRun,
    ::testing::Combine(::testing::ValuesIn(kBenOrGoldens),
                       ::testing::Values(1u, 8u)),
    [](const ::testing::TestParamInfo<BenOrGoldenRun::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_lanes" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Doubling gossip: fault-free rings, receive starvation (victims never
// learn, double to full windows, and every responder's per-channel state
// diverges), and §B.3's crash runs (faulty processes halt at round 1, full
// 24-exchange horizon).

enum class GossipFaults { None, Starve, Crash };

struct GossipGolden {
  const char* name;
  std::uint32_t n;
  GossipFaults faults;
  MetricsGolden metrics;
  std::uint32_t completed;
  std::uint64_t readout_digest;  // known, ones, zeros, contacts, doublings,
                                 // completed per id
  std::uint64_t trace_hash;      // 0: untraced
};

void PrintTo(const GossipGolden& g, std::ostream* os) { *os << g.name; }

struct GossipOut {
  sim::Metrics metrics;
  std::vector<std::uint32_t> known;
  std::vector<bool> completed;
  std::uint64_t digest = kFnvBasis;
};

GossipOut gossip_run(const GossipGolden& g, unsigned lanes,
                     const std::string& path) {
  const std::uint32_t n = g.n;
  baselines::DoublingConfig cfg;
  std::vector<sim::ProcessId> victims;
  std::unique_ptr<sim::Adversary<core::Msg>> adv;
  switch (g.faults) {
    case GossipFaults::None:
      adv = std::make_unique<adversary::NullAdversary<core::Msg>>();
      break;
    case GossipFaults::Starve:
      cfg.t = 4;
      adv = std::make_unique<adversary::StarveReceiversAdversary<core::Msg>>(
          std::vector<sim::ProcessId>{3, 9, 11, 40});
      break;
    case GossipFaults::Crash: {
      // bench_b3_crash_vs_omission's crash column.
      cfg.t = n / 16;
      cfg.max_exchanges = 24;
      std::vector<adversary::StaticCrashAdversary<core::Msg>::Crash> crashes;
      for (std::uint32_t i = 0; i < cfg.t; ++i) {
        crashes.push_back({i * 7 % n, 1});
      }
      adv = std::make_unique<adversary::StaticCrashAdversary<core::Msg>>(
          std::move(crashes));
      break;
    }
  }
  baselines::DoublingGossipMachine machine(
      cfg, harness::make_inputs(harness::InputPattern::Random, n, 7));
  rng::Ledger ledger(n, 1);
  sim::Runner<core::Msg>::Options opts;
  opts.threads = lanes;
  std::unique_ptr<trace::TraceWriter> tracer;
  if (!path.empty()) {
    tracer = std::make_unique<trace::TraceWriter>(path, n);
    opts.trace = tracer.get();
  }
  sim::Runner<core::Msg> runner(n, cfg.t, &ledger, adv.get(), opts);
  machine.set_fault_view(&runner.faults());
  if (g.faults == GossipFaults::Crash) {
    machine.set_crash_semantics(true);
    machine.set_run_full_horizon(true);
  }

  GossipOut out;
  out.metrics = runner.run(machine).metrics;
  if (tracer != nullptr) tracer->close();
  for (sim::ProcessId p = 0; p < n; ++p) {
    out.known.push_back(machine.known_of(p));
    out.completed.push_back(machine.completed(p));
    out.digest = fnv_step(out.digest, machine.known_of(p));
    out.digest = fnv_step(out.digest, machine.ones_of(p));
    out.digest = fnv_step(out.digest, machine.zeros_of(p));
    out.digest = fnv_step(out.digest, machine.contacts_of(p));
    out.digest = fnv_step(out.digest, machine.doublings_of(p));
    out.digest = fnv_step(out.digest, machine.completed(p));
  }
  return out;
}

class GossipGoldenRun
    : public ::testing::TestWithParam<std::tuple<GossipGolden, unsigned>> {};

TEST_P(GossipGoldenRun, MetricsAndReadoutsPinned) {
  const auto& [g, lanes] = GetParam();
  const std::string path =
      g.trace_hash != 0
          ? trace_path(std::string(g.name) + "_" + std::to_string(lanes))
          : "";
  const GossipOut out = gossip_run(g, lanes, path);
  std::uint32_t completed = 0;
  for (const bool c : out.completed) completed += c ? 1 : 0;
  const std::uint64_t hash =
      path.empty() ? 0 : fnv1a_fixed_width_image(path);
  SCOPED_TRACE("got " + literal(out.metrics) + ", " +
               std::to_string(completed) + ", " + hex(out.digest) + ", " +
               hex(hash));
  expect_metrics(out.metrics, g.metrics);
  EXPECT_EQ(completed, g.completed);
  EXPECT_EQ(out.digest, g.readout_digest);
  EXPECT_EQ(hash, g.trace_hash);
  if (g.faults == GossipFaults::None) {
    for (std::uint32_t p = 0; p < g.n; ++p) {
      EXPECT_TRUE(out.completed[p]) << p;
      EXPECT_EQ(out.known[p], g.n) << p;
    }
  }
  if (g.faults == GossipFaults::Starve) {
    EXPECT_FALSE(out.completed[3]);
    EXPECT_EQ(out.known[3], 1u);
  }
}

const GossipGolden kGossipGoldens[] = {
    {"n64", 64, GossipFaults::None, {11, 7680, 304128, 0, 0, 0, 0}, 64,
     0x8c8d91c377ddd325ull, 0x4e734720640d4fd5ull},
    {"n301", 301, GossipFaults::None, {13, 65016, 13610016, 0, 0, 0, 0}, 301,
     0xf6bc05dc26a7fc5dull, 0},
    {"n128_starve", 128, GossipFaults::Starve,
     {13, 24689, 1937851, 0, 0, 2186, 4}, 124, 0xfa8f76ac420aa325ull, 0},
};

INSTANTIATE_TEST_SUITE_P(
    Matrix, GossipGoldenRun,
    ::testing::Combine(::testing::ValuesIn(kGossipGoldens),
                       ::testing::Values(1u, 8u)),
    [](const ::testing::TestParamInfo<GossipGoldenRun::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_lanes" +
             std::to_string(std::get<1>(info.param));
    });

const GossipGolden kGossipCrashGoldens[] = {
    {"n128_crash", 128, GossipFaults::Crash,
     {48, 19859, 1366199, 0, 0, 742, 8}, 120, 0x84c26cb400547665ull,
     0x34c3180dac941163ull},
    {"n256_crash", 256, GossipFaults::Crash,
     {48, 52826, 7052747, 0, 0, 1943, 16}, 240, 0xff5f5ae791d97f45ull,
     0x9bd72f88b8cdab9bull},
};

INSTANTIATE_TEST_SUITE_P(
    Crash, GossipGoldenRun,
    ::testing::Combine(::testing::ValuesIn(kGossipCrashGoldens),
                       ::testing::Values(1u, 4u)),
    [](const ::testing::TestParamInfo<GossipGoldenRun::ParamType>& info) {
      return std::string(std::get<0>(info.param).name) + "_lanes" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace omx
