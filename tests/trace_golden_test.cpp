// Trace goldens: for a small (algorithm x adversary x lanes) matrix, the
// FNV-1a hash of the trace's fixed-width image (tests/trace_image.h — the
// bytes format version 1 stored) is pinned; two rows pin the packed file
// itself, so the encoding is frozen too.
// The hashes were captured from the engine that still materialized
// per-receiver inboxes (the optimal_rand_omit rows from the core that still
// built one SpreadMsg per link; the crash, send-omit, split-brain and
// schedule rows from the engine whose bulk omissions still tested every
// message on the wire; the fallback rows from the flood-set fallback that
// still sent (id, bit) pair lists), so they freeze the exact event stream
// (send/drop order, rng draws, corruptions, decisions) across any rewrite
// of how the engine emits traces or delivers messages, or of how a
// protocol builds its sends. trace_test.cpp checks that
// traces agree across thread counts within one build; this suite checks
// that they agree across versions.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/optimal_core.h"
#include "core/param_consensus.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "trace_image.h"

namespace omx {
namespace {

namespace fs = std::filesystem;

std::uint64_t fnv1a_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct TraceGolden {
  const char* name;
  harness::Algo algo;
  harness::Attack attack;
  std::uint32_t n;
  unsigned threads;
  /// Hash the packed file's bytes rather than the fixed-width image.
  bool hash_file;
  std::uint64_t seed;
  std::uint64_t hash;
  const char* schedule = "";  // Attack::Schedule only
  harness::InputPattern inputs = harness::InputPattern::Random;
  /// The run must decide inside the flood-set fallback: some non-faulty
  /// process decides after the schedule's last pre-fallback round.
  bool enters_fallback = false;
  core::Params params = core::Params::practical();
};

/// First round of the flood-set fallback in cfg's schedule.
std::uint64_t fallback_start(const harness::ExperimentConfig& cfg) {
  if (cfg.algo == harness::Algo::Optimal) {
    return core::OptimalCore::schedule_length(cfg.params, cfg.n, cfg.t,
                                              /*truncated=*/true);
  }
  core::ParamConfig pc;
  pc.params = cfg.params;
  pc.t = cfg.t;
  pc.x = cfg.x;
  const core::ParamMachine m(pc, harness::make_inputs(cfg.inputs, cfg.n,
                                                      cfg.seed));
  return m.scheduled_rounds() - (cfg.t + 3);  // the fallback's t+3 rounds
}

/// One epoch per inner run: a super-process split 50/50 cannot decide in
/// it, so under alternating inputs no phase reaches a consensus decision,
/// every process keeps its input, the safety counts tie, and every
/// operative process floods in Algorithm 4's fallback.
core::Params one_epoch() {
  core::Params p;
  p.epoch_factor = 0.1;
  p.min_epochs = 1;
  return p;
}

class TraceGoldenRun : public ::testing::TestWithParam<TraceGolden> {};

TEST_P(TraceGoldenRun, TraceBytesPinned) {
  const TraceGolden& g = GetParam();
  // One directory per case: ctest runs the cases as parallel processes.
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("omx_trace_golden_" + std::string(g.name));
  fs::remove_all(dir);
  fs::create_directories(dir);

  harness::ExperimentConfig cfg;
  cfg.algo = g.algo;
  cfg.attack = g.attack;
  cfg.n = g.n;
  cfg.t = g.algo == harness::Algo::Param ? core::Params::max_t_param(g.n)
                                         : core::Params::max_t_optimal(g.n);
  cfg.x = 3;
  cfg.params = g.params;
  cfg.inputs = g.inputs;
  cfg.seed = g.seed;
  cfg.schedule = g.schedule;
  cfg.threads = g.threads;
  cfg.trace_path = (dir / "run.trace").string();
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.ok());
  if (g.enters_fallback) {
    EXPECT_GT(r.time_rounds, fallback_start(cfg));
  }

  const std::uint64_t got = g.hash_file
                                ? fnv1a_file(cfg.trace_path)
                                : fnv1a_fixed_width_image(cfg.trace_path);
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, g.hash) << g.name << ": trace hash is " << hex;
}

using harness::Algo;
using harness::Attack;
constexpr harness::InputPattern kAlt = harness::InputPattern::Alternating;

INSTANTIATE_TEST_SUITE_P(
    Matrix, TraceGoldenRun,
    ::testing::Values(
        TraceGolden{"optimal_coin_hiding_s1", Algo::Optimal,
                    Attack::CoinHiding, 96, 1, false, 1,
                    0x28c6261ceccb2850ull},
        TraceGolden{"optimal_coin_hiding_s2", Algo::Optimal,
                    Attack::CoinHiding, 96, 1, false, 2,
                    0x2bfffbff118fc8baull},
        TraceGolden{"optimal_group_killer_3lanes_s1", Algo::Optimal,
                    Attack::GroupKiller, 128, 3, false, 1,
                    0xd063dfd1f5896ef6ull},
        // Random omission kills spreading links unevenly mid-epoch, so
        // these rows pin the per-sender live-link lists and the stitching
        // of their multicast groups across shards.
        TraceGolden{"optimal_rand_omit_4lanes_s1", Algo::Optimal,
                    Attack::RandomOmission, 128, 4, false, 1,
                    0x40d6b0399d648769ull},
        TraceGolden{"optimal_rand_omit_4lanes_s2", Algo::Optimal,
                    Attack::RandomOmission, 128, 4, false, 2,
                    0x537ba0ea8a649ca8ull},
        TraceGolden{"param_chaos_4lanes_s1", Algo::Param, Attack::Chaos, 64,
                    4, false, 1, 0x30599d1cea97cd70ull},
        TraceGolden{"param_chaos_4lanes_s2", Algo::Param, Attack::Chaos, 64,
                    4, false, 2, 0x1591125616fc5eeaull},
        TraceGolden{"floodset_rand_omit_s1", Algo::FloodSet,
                    Attack::RandomOmission, 128, 1, false, 1,
                    0xa82831767d561205ull},
        TraceGolden{"floodset_rand_omit_s2", Algo::FloodSet,
                    Attack::RandomOmission, 128, 1, false, 2,
                    0xfbb76361d664b5d7ull},
        TraceGolden{"benor_rand_omit_packed_trace_s1", Algo::BenOr,
                    Attack::RandomOmission, 64, 1, true, 1,
                    0x2ca6f4a333c2126dull},
        TraceGolden{"benor_rand_omit_packed_trace_s2", Algo::BenOr,
                    Attack::RandomOmission, 64, 1, true, 2,
                    0x3f1617de380b9f76ull},
        // Every bulk-omission path not pinned above: batched silencing
        // (crash), sender-only omission, the split-brain filter, and a
        // schedule replay mixing corrupt, silence and point-to-point drop
        // ops.
        TraceGolden{"optimal_crash_4lanes_s1", Algo::Optimal,
                    Attack::StaticCrash, 96, 4, false, 1,
                    0xd2dffc75c9e54974ull},
        TraceGolden{"floodset_crash_s1", Algo::FloodSet, Attack::StaticCrash,
                    128, 1, false, 1, 0x197a681e9ed46773ull},
        TraceGolden{"floodset_send_omit_s1", Algo::FloodSet,
                    Attack::SendOmission, 128, 1, false, 1,
                    0x254952e83005c817ull},
        TraceGolden{"optimal_send_omit_4lanes_s1", Algo::Optimal,
                    Attack::SendOmission, 96, 4, false, 1,
                    0xe168b87318498eafull},
        TraceGolden{"benor_split_brain_4lanes_s1", Algo::BenOr,
                    Attack::SplitBrain, 64, 4, false, 1,
                    0x802e4181f1ee5f19ull},
        TraceGolden{"floodset_split_brain_s1", Algo::FloodSet,
                    Attack::SplitBrain, 128, 1, false, 1,
                    0x6d959498182e5402ull},
        TraceGolden{"floodset_schedule_s1", Algo::FloodSet, Attack::Schedule,
                    64, 1, false, 1, 0xad5e5e3238f9e945ull,
                    "c0.3,c0.5,s1.3,d0.5.7,d0.9.5,d1.9.3,d3.3.1"},
        TraceGolden{"optimal_schedule_4lanes_s1", Algo::Optimal,
                    Attack::Schedule, 96, 4, false, 1, 0x06521465583c2c97ull,
                    "c0.3,c1.5,s1.3,s4.5,d2.5.7,d2.9.5,d2.500.3,d3.3.1"},
        // Runs that decide inside the flood-set fallback. Alternating
        // inputs split every group, and these seeds leave some operative
        // process undecided after Algorithm 1's epochs.
        TraceGolden{"optimal_coin_hiding_fallback_4lanes_s16", Algo::Optimal,
                    Attack::CoinHiding, 64, 4, false, 16,
                    0xbb047abe4b4b8bebull, "", kAlt, true},
        TraceGolden{"optimal_coin_hiding_fallback_4lanes_s62", Algo::Optimal,
                    Attack::CoinHiding, 64, 4, false, 62,
                    0xecba611e1d3768f0ull, "", kAlt, true},
        TraceGolden{"optimal_coin_hiding_fallback_4lanes_s79", Algo::Optimal,
                    Attack::CoinHiding, 64, 4, false, 79,
                    0x0c7bd22406d59c42ull, "", kAlt, true},
        TraceGolden{"optimal_group_killer_fallback_4lanes_s62",
                    Algo::Optimal, Attack::GroupKiller, 64, 4, false, 62,
                    0x8be9176426ac1d6cull, "", kAlt, true},
        TraceGolden{"optimal_group_killer_fallback_4lanes_s100",
                    Algo::Optimal, Attack::GroupKiller, 64, 4, false, 100,
                    0x8a01b5662d537e5dull, "", kAlt, true},
        TraceGolden{"optimal_group_killer_fallback_4lanes_s162",
                    Algo::Optimal, Attack::GroupKiller, 64, 4, false, 162,
                    0x1f45dff8eeecf526ull, "", kAlt, true},
        TraceGolden{"optimal_chaos_fallback_4lanes_s62", Algo::Optimal,
                    Attack::Chaos, 64, 4, false, 62, 0xe977fb1320153f4full,
                    "", kAlt, true},
        TraceGolden{"optimal_chaos_fallback_4lanes_s100", Algo::Optimal,
                    Attack::Chaos, 64, 4, false, 100, 0x5f1e350d265393a8ull,
                    "", kAlt, true},
        TraceGolden{"optimal_chaos_fallback_4lanes_s157", Algo::Optimal,
                    Attack::Chaos, 64, 4, false, 157, 0xf3f231e08ffc7cbaull,
                    "", kAlt, true},
        // Algorithm 4 with one epoch per inner run (see one_epoch()): every
        // operative process floods, and the omitted pairs of the corrupted
        // process tip the majority to 1.
        TraceGolden{"param_rand_omit_fallback_4lanes_s1", Algo::Param,
                    Attack::RandomOmission, 64, 4, false, 1,
                    0xae7c676b10d5dad6ull, "", kAlt, true, one_epoch()}),
    [](const ::testing::TestParamInfo<TraceGolden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace omx
