// The trace subsystem: binary round-trip through writer/reader, reader
// validation, the Metrics <-> trace cross-check over the algorithm/attack
// matrix, thread-count bit-identity, divergence detection, the Recorder
// equivalence (envelopes reconstruct the live wiretap), and the sweep's
// trace-on-repro capture.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/recorder.h"
#include "adversary/strategies.h"
#include "baselines/flood_set.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "sim/runner.h"
#include "support/check.h"
#include "trace/analysis.h"
#include "trace/reader.h"
#include "trace/trace.h"

namespace omx::trace {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory under the gtest temp root.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_trace_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// Writer <-> reader round trip and reader validation.

TEST(TraceFile, RoundTripsEvents) {
  const fs::path path = scratch("roundtrip") / "x.trace";
  std::vector<Event> events;
  events.push_back(Event{0, kRoundBegin, 0, 0, 0, 0});
  events.push_back(Event{0, kRngDraw, 0, 3, 1, 1});
  events.push_back(Event{0, kSend, 0, 1, 2, 64});
  events.push_back(Event{0, kDrop, 0, 1, 2, 0});
  events.push_back(Event{0, kFinish, 0, 0, 0, 1});
  events.push_back(Event{0, kDecide, 0, 2, 1, 0});
  {
    TraceWriter w(path.string(), 4);
    for (const Event& e : events) w.emit(e);
    w.close();
    EXPECT_EQ(w.emitted(), events.size());
  }
  const TraceData t = read_trace(path.string());
  EXPECT_EQ(t.header.n, 4u);
  EXPECT_EQ(t.header.version, kFormatVersion);
  EXPECT_EQ(t.events, events);
}

TEST(TraceFile, RingWrapsAcrossFlushes) {
  // More events than the ring holds: forces mid-stream flushes.
  const fs::path path = scratch("ringwrap") / "x.trace";
  const std::size_t count = TraceWriter::kRingEvents * 2 + 37;
  {
    TraceWriter w(path.string(), 2);
    for (std::size_t i = 0; i < count; ++i) {
      w.emit(Event{static_cast<std::uint32_t>(i), kSend, 0, 0, 1, i});
    }
  }  // destructor closes
  const TraceData t = read_trace(path.string());
  ASSERT_EQ(t.events.size(), count);
  EXPECT_EQ(t.events[count - 1].payload, count - 1);
}

TEST(TraceFile, ReaderRejectsGarbage) {
  const fs::path dir = scratch("garbage");
  EXPECT_THROW(read_trace((dir / "missing.trace").string()),
               PreconditionError);

  const fs::path foreign = dir / "foreign.trace";
  std::ofstream(foreign, std::ios::binary) << "definitely not a trace file";
  EXPECT_THROW(read_trace(foreign.string()), PreconditionError);

  // Valid header, then a truncated block: a kill -9 mid-flush.
  const fs::path truncated = dir / "truncated.trace";
  {
    TraceWriter w(truncated.string(), 2);
    w.emit(Event{0, kRoundBegin, 0, 0, 0, 0});
    w.close();
  }
  std::string bytes = slurp(truncated);
  bytes.resize(bytes.size() - 7);
  std::ofstream(truncated, std::ios::binary) << bytes;
  EXPECT_THROW(read_trace(truncated.string()), PreconditionError);

  // Well-formed record with an out-of-range kind.
  const fs::path badkind = dir / "badkind.trace";
  {
    TraceWriter w(badkind.string(), 2);
    w.emit(Event{0, 99, 0, 0, 0, 0});
    w.close();
  }
  EXPECT_THROW(read_trace(badkind.string()), PreconditionError);
}

// ---------------------------------------------------------------------------
// Cross-check: the trace reconstructs sim::Metrics exactly, for every
// algorithm/attack combination of the engine-equivalence matrix.

struct MatrixCase {
  harness::Algo algo;
  harness::Attack attack;
};

class TraceMetricsCrossCheck : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(TraceMetricsCrossCheck, TotalsEqualEngineMetrics) {
  const MatrixCase& mc = GetParam();
  // One scratch dir per case: ctest runs the parameterized cases as separate
  // concurrent processes, and scratch() starts by wiping its directory.
  std::string case_dir = std::string("crosscheck_") +
                         harness::to_string(mc.algo) + "_" +
                         harness::to_string(mc.attack);
  for (char& c : case_dir) {
    if (c == '-') c = '_';
  }
  const fs::path path = scratch(case_dir) / "x.trace";
  harness::ExperimentConfig cfg;
  cfg.algo = mc.algo;
  cfg.attack = mc.attack;
  cfg.n = 48;
  cfg.t = mc.algo == harness::Algo::Param ? core::Params::max_t_param(cfg.n)
                                          : core::Params::max_t_optimal(cfg.n);
  cfg.x = 4;
  cfg.seed = 7;
  cfg.trace_path = path.string();
  const auto r = harness::run_experiment(cfg);

  const TraceData t = read_trace(path.string());
  EXPECT_EQ(t.header.n, cfg.n);
  const TraceTotals sum = totals(t.events);
  EXPECT_EQ(sum.rounds, r.metrics.rounds);
  EXPECT_EQ(sum.messages, r.metrics.messages);
  EXPECT_EQ(sum.comm_bits, r.metrics.comm_bits);
  EXPECT_EQ(sum.omitted, r.metrics.omitted);
  EXPECT_EQ(sum.random_calls, r.metrics.random_calls);
  EXPECT_EQ(sum.random_bits, r.metrics.random_bits);
  EXPECT_EQ(sum.corrupted, r.metrics.corrupted);
  EXPECT_TRUE(sum.finished);
  EXPECT_EQ(sum.finish_reason, 0u);  // ran to completion, no cap/deadline
  // Every non-faulty process decides in a passing run; corrupted ones may.
  EXPECT_GE(sum.decided, cfg.n - r.metrics.corrupted);
  EXPECT_LE(sum.decided, cfg.n);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TraceMetricsCrossCheck,
    ::testing::Values(
        MatrixCase{harness::Algo::Optimal, harness::Attack::None},
        MatrixCase{harness::Algo::Optimal, harness::Attack::RandomOmission},
        MatrixCase{harness::Algo::Optimal, harness::Attack::GroupKiller},
        MatrixCase{harness::Algo::Optimal, harness::Attack::CoinHiding},
        MatrixCase{harness::Algo::FloodSet, harness::Attack::None},
        MatrixCase{harness::Algo::FloodSet, harness::Attack::RandomOmission},
        MatrixCase{harness::Algo::FloodSet, harness::Attack::GroupKiller},
        MatrixCase{harness::Algo::Param, harness::Attack::None},
        MatrixCase{harness::Algo::Param, harness::Attack::RandomOmission},
        MatrixCase{harness::Algo::Param, harness::Attack::GroupKiller},
        MatrixCase{harness::Algo::Param, harness::Attack::CoinHiding}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      std::string name = std::string(harness::to_string(info.param.algo)) +
                         "_" + harness::to_string(info.param.attack);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Thread-count bit-identity: the format's reason to exist.

TEST(TraceDeterminism, ByteIdenticalAcrossThreadCounts) {
  const fs::path dir = scratch("threads");
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::Optimal;
  cfg.attack = harness::Attack::CoinHiding;
  cfg.n = 48;
  cfg.t = core::Params::max_t_optimal(cfg.n);
  cfg.seed = 3;

  cfg.threads = 1;
  cfg.trace_path = (dir / "t1.trace").string();
  harness::run_experiment(cfg);
  const TraceData a = read_trace((dir / "t1.trace").string());
  const std::string bytes = slurp(dir / "t1.trace");
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    cfg.trace_path =
        (dir / ("t" + std::to_string(threads) + ".trace")).string();
    harness::run_experiment(cfg);
    // Event-level equality, raw byte equality, and a clean diff verdict.
    const TraceData b = read_trace(cfg.trace_path);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(bytes, slurp(cfg.trace_path));
    EXPECT_FALSE(first_divergence(a, b).diverged);
  }
}

// The flood path at a wire size that clears the engine's parallel grain:
// threaded delivery keeps serial per-message emission order, and the
// parallel adversary scan (rand-omit draws one coin per candidate) must
// consume the rng stream in the serial scan's order — any reordering would
// flip kDrop targets and break byte-identity.
TEST(TraceDeterminism, FloodRandOmitByteIdenticalAcrossThreadCounts) {
  const fs::path dir = scratch("flood_threads");
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::FloodSet;
  cfg.attack = harness::Attack::RandomOmission;
  cfg.n = 96;
  cfg.t = core::Params::max_t_optimal(cfg.n);
  cfg.seed = 5;

  cfg.threads = 1;
  cfg.trace_path = (dir / "t1.trace").string();
  harness::run_experiment(cfg);
  const std::string bytes = slurp(dir / "t1.trace");
  for (const unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    cfg.trace_path =
        (dir / ("t" + std::to_string(threads) + ".trace")).string();
    harness::run_experiment(cfg);
    EXPECT_EQ(bytes, slurp(cfg.trace_path));
  }
}

// ---------------------------------------------------------------------------
// Divergence detection on synthetic streams.

TEST(TraceDiff, FlagsFirstDivergentEvent) {
  TraceData a, b;
  a.header.n = b.header.n = 4;
  a.header.version = b.header.version = kFormatVersion;
  for (std::uint32_t i = 0; i < 10; ++i) {
    a.events.push_back(Event{i, kRoundBegin, 0, 0, 0, 0});
    b.events.push_back(Event{i, kRoundBegin, 0, 0, 0, 0});
  }
  b.events[6].kind = kSend;
  const Divergence d = first_divergence(a, b);
  EXPECT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 6u);
  EXPECT_FALSE(d.length_only);
  EXPECT_FALSE(d.header_mismatch);
}

TEST(TraceDiff, FlagsLengthOnlyDivergence) {
  TraceData a, b;
  a.header.n = b.header.n = 4;
  a.header.version = b.header.version = kFormatVersion;
  for (std::uint32_t i = 0; i < 5; ++i) {
    a.events.push_back(Event{i, kRoundBegin, 0, 0, 0, 0});
    b.events.push_back(Event{i, kRoundBegin, 0, 0, 0, 0});
  }
  b.events.push_back(Event{5, kRoundBegin, 0, 0, 0, 0});
  const Divergence d = first_divergence(a, b);
  EXPECT_TRUE(d.diverged);
  EXPECT_TRUE(d.length_only);
  EXPECT_EQ(d.index, 5u);
}

TEST(TraceDiff, FlagsHeaderMismatch) {
  TraceData a, b;
  a.header.n = 4;
  b.header.n = 8;
  a.header.version = b.header.version = kFormatVersion;
  const Divergence d = first_divergence(a, b);
  EXPECT_TRUE(d.diverged);
  EXPECT_TRUE(d.header_mismatch);
}

TEST(TraceDiff, IdenticalStreamsDoNotDiverge) {
  TraceData a;
  a.header.n = 4;
  a.header.version = kFormatVersion;
  a.events.push_back(Event{0, kRoundBegin, 0, 0, 0, 0});
  EXPECT_FALSE(first_divergence(a, a).diverged);
}

// ---------------------------------------------------------------------------
// Envelope reconstruction == the live Recorder wiretap.

TEST(TraceEnvelopes, ReconstructRecorderRows) {
  const std::uint32_t n = 32;
  const std::uint32_t t = 3;
  const fs::path path = scratch("envelopes") / "x.trace";

  std::vector<std::uint8_t> inputs(n, 0);
  for (std::uint32_t i = 0; i < n; i += 2) inputs[i] = 1;
  baselines::FloodSetMachine machine(t, inputs);
  rng::Ledger ledger(n, 1);
  adversary::RandomOmissionAdversary<core::Msg> inner(n, t, 0.9, 3);
  adversary::Recorder<core::Msg> rec(&inner);

  TraceWriter writer(path.string(), n);
  sim::Runner<core::Msg>::Options opts;
  opts.trace = &writer;
  sim::Runner<core::Msg> runner(n, t, &ledger, &rec, opts);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);
  writer.close();

  const TraceData tr = read_trace(path.string());
  const std::vector<RoundEnvelope> env = envelopes(tr.events);
  ASSERT_EQ(env.size(), rec.trace().size());
  for (std::size_t i = 0; i < env.size(); ++i) {
    SCOPED_TRACE("round " + std::to_string(i));
    const adversary::RoundTrace& live = rec.trace()[i];
    EXPECT_EQ(env[i].round, live.round);
    EXPECT_EQ(env[i].messages, live.messages);
    EXPECT_EQ(env[i].bits, live.bits);
    EXPECT_EQ(env[i].omitted, live.omitted);
    EXPECT_EQ(env[i].corrupted, live.corrupted);
  }
}

// ---------------------------------------------------------------------------
// kDecide tail: per-process decisions with their decision rounds.

TEST(TraceDecisions, RecordedPerProcessWithAgreedValue) {
  const fs::path path = scratch("decide") / "x.trace";
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::Optimal;
  cfg.n = 48;
  cfg.t = core::Params::max_t_optimal(cfg.n);
  cfg.inputs = harness::InputPattern::AllOne;
  cfg.trace_path = path.string();
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.ok());

  const TraceData t = read_trace(path.string());
  std::vector<bool> seen(cfg.n, false);
  for (const Event& e : t.events) {
    if (e.kind != kDecide) continue;
    ASSERT_LT(e.src, cfg.n);
    EXPECT_FALSE(seen[e.src]) << "duplicate kDecide for p" << e.src;
    seen[e.src] = true;
    EXPECT_EQ(e.dst, 1u);  // validity: unanimous-1 inputs decide 1
    EXPECT_EQ(e.payload, e.round);  // payload mirrors the decision round
  }
  EXPECT_EQ(totals(t.events).decided, cfg.n);  // benign run: all decide
}

// ---------------------------------------------------------------------------
// Sweep integration: model violations capture a trace next to the .repro.

TEST(SweepTraceCapture, FailingTrialShipsWithTrace) {
  const fs::path dir = scratch("sweep");
  harness::SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  harness::Sweep sweep(opts);

  harness::ExperimentConfig bad;
  bad.algo = harness::Algo::FloodSet;
  bad.n = 8;
  bad.t = bad.n + 3;  // invalid: PreconditionError inside run_experiment
  const harness::TrialOutcome out = sweep.run(bad);
  EXPECT_EQ(out.verdict, harness::Verdict::Precondition);
  ASSERT_FALSE(out.repro_path.empty());
  ASSERT_FALSE(out.trace_path.empty());
  EXPECT_TRUE(fs::exists(out.trace_path));

  // The trace of a config that fails validation is header-only (the writer
  // opens before validation, deliberately), and still well-formed.
  const TraceData t = read_trace(out.trace_path);
  EXPECT_EQ(t.header.n, bad.n);
  EXPECT_TRUE(t.events.empty());

  // The .repro file points a human at the trace.
  const std::string repro = slurp(out.repro_path);
  EXPECT_NE(repro.find("# trace: " + out.trace_path), std::string::npos);
}

TEST(SweepTraceCapture, DisabledByOption) {
  const fs::path dir = scratch("sweep_off");
  harness::SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  opts.capture_trace = false;
  harness::Sweep sweep(opts);

  harness::ExperimentConfig bad;
  bad.algo = harness::Algo::FloodSet;
  bad.n = 8;
  bad.t = bad.n + 3;
  const harness::TrialOutcome out = sweep.run(bad);
  EXPECT_EQ(out.verdict, harness::Verdict::Precondition);
  EXPECT_FALSE(out.repro_path.empty());
  EXPECT_TRUE(out.trace_path.empty());
}

// The sweep's trace sink is not part of a failing trial's config: the
// capture names its own trace, and replaying the .repro must not overwrite
// the trace the sweep wrote.
TEST(SweepTraceCapture, ReproCarriesNoTracePath) {
  const fs::path dir = scratch("sweep_sink");
  harness::SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  harness::Sweep sweep(opts);

  harness::ExperimentConfig bad;
  bad.algo = harness::Algo::FloodSet;
  bad.n = 8;
  bad.t = bad.n + 3;
  bad.trace_path = (dir / "sweep.trace").string();
  const harness::TrialOutcome out = sweep.run(bad);
  ASSERT_FALSE(out.repro_path.empty());

  harness::ExperimentConfig replay;
  std::string err;
  ASSERT_TRUE(harness::parse_config(slurp(out.repro_path), &replay, &err))
      << err;
  EXPECT_TRUE(replay.trace_path.empty());
  EXPECT_EQ(harness::config_key(replay), harness::config_key(bad));
}

// Round-trip of trace_path through the config serialization (the traced
// re-run in capture_repro relies on it *not* being part of the hash).
TEST(SweepTraceCapture, TracePathSerializedButNotHashed) {
  harness::ExperimentConfig cfg;
  cfg.n = 8;
  cfg.t = 2;
  const std::uint64_t clean_hash = harness::config_hash(cfg);
  cfg.trace_path = "/tmp/some.trace";
  EXPECT_EQ(harness::config_hash(cfg), clean_hash);

  harness::ExperimentConfig back;
  std::string err;
  ASSERT_TRUE(
      harness::parse_config(harness::serialize_config(cfg), &back, &err))
      << err;
  EXPECT_EQ(back.trace_path, cfg.trace_path);
}

// ---------------------------------------------------------------------------
// Analysis niceties pinned: event formatting and envelope columns.

TEST(TraceAnalysis, FormatEventIsHumanReadable) {
  EXPECT_EQ(format_event(Event{3, kSend, 0, 1, 2, 64}),
            "round 3: send 1 -> 2 (64 bits)");
  EXPECT_EQ(format_event(Event{5, kDecide, 0, 7, 1, 5}),
            "round 5: decide p7 = 1");
  EXPECT_EQ(format_event(Event{9, kFinish, 0, 1, 0, 10}),
            "round 9: finish (round_cap, 10 rounds)");
}

TEST(TraceAnalysis, EnvelopesSplitPerRound) {
  std::vector<Event> ev;
  ev.push_back(Event{0, kRoundBegin, 0, 0, 0, 0});
  ev.push_back(Event{0, kRngDraw, 0, 1, 8, 200});
  ev.push_back(Event{0, kSend, 0, 0, 1, 32});
  ev.push_back(Event{0, kSend, 0, 1, 0, 32});
  ev.push_back(Event{0, kDrop, 0, 1, 0, 1});
  ev.push_back(Event{1, kRoundBegin, 0, 0, 0, 0});
  ev.push_back(Event{1, kCorrupt, 0, 1, 1, 0});
  ev.push_back(Event{1, kSend, 0, 0, 1, 16});
  const auto env = envelopes(ev);
  ASSERT_EQ(env.size(), 2u);
  EXPECT_EQ(env[0].messages, 2u);
  EXPECT_EQ(env[0].bits, 64u);
  EXPECT_EQ(env[0].omitted, 1u);
  EXPECT_EQ(env[0].rng_calls, 1u);
  EXPECT_EQ(env[0].rng_bits, 8u);
  EXPECT_EQ(env[0].corrupted, 0u);
  EXPECT_EQ(env[1].messages, 1u);
  EXPECT_EQ(env[1].bits, 16u);
  EXPECT_EQ(env[1].corrupted, 1u);  // cumulative
}

}  // namespace
}  // namespace omx::trace
