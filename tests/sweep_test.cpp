// The crash-safe sweep runner: verdict taxonomy, retry policy, checkpoint
// resume (including the byte-identity guarantee after an interrupt), config
// serialization/hashing, repro capture, and guarded_main's exit codes.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/params.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "support/check.h"
#include "support/prng.h"

namespace omx::harness {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Per-test scratch directory under the gtest temp root.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_sweep_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A sub-millisecond trial: FloodSet at toy scale.
ExperimentConfig tiny_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.attack = Attack::None;
  cfg.n = 8;
  cfg.t = 2;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Config serialization, parsing, hashing.

TEST(ConfigSerialization, RoundTripsThroughParse) {
  ExperimentConfig cfg;
  cfg.algo = Algo::Param;
  cfg.attack = Attack::CoinHiding;
  cfg.inputs = InputPattern::Alternating;
  cfg.explicit_inputs = {1, 0, 1, 1, 0, 1, 0, 0};
  cfg.n = 8;
  cfg.t = 3;
  cfg.x = 2;
  cfg.seed = 0xDEADBEEFCAFEull;
  cfg.random_bit_budget = 123456;
  cfg.drop_prob = 0.37;
  cfg.max_rounds = 99;
  cfg.deadline_ms = 1500;
  cfg.params = core::Params::paper();

  ExperimentConfig back;
  std::string err;
  ASSERT_TRUE(parse_config(serialize_config(cfg), &back, &err)) << err;
  // Canonical text equality == field equality for everything serialized.
  EXPECT_EQ(serialize_config(back), serialize_config(cfg));
  EXPECT_EQ(back.explicit_inputs, cfg.explicit_inputs);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_DOUBLE_EQ(back.drop_prob, cfg.drop_prob);
}

TEST(ConfigSerialization, ParseIgnoresCommentsAndRejectsGarbage) {
  ExperimentConfig cfg;
  std::string err;
  EXPECT_TRUE(parse_config("# comment\n\nn=16\nt=3\n", &cfg, &err));
  EXPECT_EQ(cfg.n, 16u);
  EXPECT_EQ(cfg.t, 3u);
  EXPECT_FALSE(parse_config("no equals sign here\n", &cfg, &err));
  EXPECT_FALSE(parse_config("unknown_key=1\n", &cfg, &err));
  EXPECT_FALSE(err.empty());
}

TEST(ConfigSerialization, ParseReportsByteOffsetOfFirstBadLine) {
  ExperimentConfig cfg;
  std::string err;
  std::size_t off = 99;
  EXPECT_TRUE(parse_config("n=16\n", &cfg, &err, &off));

  // Two good lines (13 + 12 bytes including newlines), then debris.
  EXPECT_FALSE(
      parse_config("algo=optimal\nattack=none\nbogus line\n", &cfg, &err, &off));
  EXPECT_EQ(off, 25u);

  // Offsets count raw bytes: CRLF line endings include the CR.
  EXPECT_FALSE(parse_config("algo=optimal\r\nbogus\r\n", &cfg, &err, &off));
  EXPECT_EQ(off, 14u);

  // A bad *value* points at its line, not at the start of the file.
  EXPECT_FALSE(parse_config("n=16\nalgo=quantum\n", &cfg, &err, &off));
  EXPECT_EQ(off, 5u);

  // The offset parameter stays optional for callers that only want yes/no.
  EXPECT_FALSE(parse_config("bogus\n", &cfg, &err));
}

// A number is read whole: trailing bytes, a sign on an unsigned field, an
// empty value, a value out of the field's range or a non-finite double
// fails at its line instead of being read as some other number.
TEST(ConfigSerialization, MalformedNumbersFailAtTheirLine) {
  for (const char* bad :
       {"n=12abc", "n=-8", "n=+8", "n= 8", "n=4294967296", "seed=",
        "max_rounds=zz", "threads=-1", "drop_prob=0.5x", "drop_prob=inf",
        "drop_prob=nan", "params.epoch_factor=1e999",
        "params.min_epochs=2.5"}) {
    SCOPED_TRACE(bad);
    ExperimentConfig cfg;
    std::string err;
    std::size_t off = 0;
    EXPECT_FALSE(parse_config(std::string("algo=floodset\n") + bad + "\n",
                              &cfg, &err, &off));
    EXPECT_EQ(off, 14u);
    EXPECT_NE(err.find("bad number"), std::string::npos) << err;
  }
}

// Drivers append overrides (seed=, attack=, trace_path=) to config texts
// that may already set them; the last line wins.
TEST(ConfigSerialization, RepeatedKeyLastWins) {
  ExperimentConfig cfg;
  std::string err;
  ASSERT_TRUE(parse_config(
      "seed=1\nattack=none\ntrace_path=a\nseed=9\nattack=rand-omit\n"
      "trace_path=b\n",
      &cfg, &err))
      << err;
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.attack, Attack::RandomOmission);
  EXPECT_EQ(cfg.trace_path, "b");
}

TEST(ConfigHash, IgnoresWorkerLaneCountButNotSeeds) {
  ExperimentConfig a = tiny_config(7);
  ExperimentConfig b = a;
  b.threads = 8;  // bit-identical engine → must not change the key
  EXPECT_EQ(config_key(a), config_key(b));

  b = a;
  b.seed = 8;
  EXPECT_NE(config_key(a), config_key(b));
  EXPECT_EQ(config_key(a).size(), 16u);
}

// Configs written while delivery, the flood representation or the trace
// storage format was still a choice carry streamed=, pipeline=, packed=
// and trace_packed= lines. They must still parse, and resolve to the key
// and serialization of the same text without those lines.
TEST(ConfigHash, RetiredDeliveryLinesParseAndDoNotChangeTheKey) {
  const std::string text =
      "algo=floodset\nattack=rand-omit\nn=32\nt=4\nseed=5\n";
  ExperimentConfig plain;
  std::string err;
  ASSERT_TRUE(parse_config(text, &plain, &err)) << err;
  for (const char* retired :
       {"streamed=1\npipeline=1\n", "packed=0\n", "packed=1\n",
        "trace_packed=1\n"}) {
    SCOPED_TRACE(retired);
    ExperimentConfig old;
    ASSERT_TRUE(parse_config(text + retired, &old, &err)) << err;
    EXPECT_EQ(config_key(old), config_key(plain));
    EXPECT_EQ(serialize_config(old), serialize_config(plain));
  }
}

// ---------------------------------------------------------------------------
// Verdict taxonomy through the isolation shell.

TEST(SweepVerdicts, OkTrialKeepsItsResult) {
  Sweep sweep(SweepOptions{});
  const auto trial = sweep.run(tiny_config(1));
  EXPECT_EQ(trial.verdict, Verdict::Ok);
  EXPECT_TRUE(trial.ok());
  EXPECT_TRUE(trial.error.empty());
  EXPECT_GT(trial.result.time_rounds, 0u);
  EXPECT_EQ(sweep.trials(), 1u);
  EXPECT_EQ(sweep.failures(), 0u);
}

TEST(SweepVerdicts, InvalidConfigIsAPreconditionVerdictNotACrash) {
  SweepOptions opts;
  opts.capture_repro = false;
  Sweep sweep(opts);
  auto cfg = tiny_config(1);
  cfg.t = cfg.n;  // violates t < n
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Precondition);
  EXPECT_FALSE(trial.ok());
  EXPECT_NE(trial.error.find("t < n"), std::string::npos) << trial.error;
  // The poisoned trial's metrics are zeroed, not half-filled.
  EXPECT_EQ(trial.result.time_rounds, 0u);
  EXPECT_EQ(sweep.failures(), 1u);
}

TEST(SweepVerdicts, PreconditionRecordsOnlyTheCallersMessage) {
  // A recorded failure is the same bytes from every build: the error the
  // checkpoint and the .repro carry is the message alone, with no macro
  // name, expression or source path.
  const fs::path dir = scratch("precondition_text");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();
  opts.repro_dir = (dir / "repro").string();
  opts.capture_trace = false;
  Sweep sweep(opts);
  auto cfg = tiny_config(1);
  cfg.t = cfg.n;
  ASSERT_EQ(sweep.run(cfg).verdict, Verdict::Precondition);

  const std::string expected = "fault budget must satisfy t < n (t=8, n=8)";
  std::string key;
  TrialOutcome recorded;
  std::string line = slurp(opts.checkpoint_path);
  ASSERT_FALSE(line.empty());
  line.pop_back();  // the newline
  ASSERT_TRUE(parse_checkpoint_line(line, &key, &recorded)) << line;
  EXPECT_EQ(recorded.error, expected);
  const std::string repro = slurp(recorded.repro_path);
  EXPECT_NE(repro.find("# error: " + expected + "\n"), std::string::npos)
      << repro;
  for (const char* leak : {"OMX_REQUIRE", "experiment.cpp", "src/"}) {
    EXPECT_EQ(line.find(leak), std::string::npos) << line;
  }
}

TEST(SweepVerdicts, RoundCapIsItsOwnVerdict) {
  Sweep sweep(SweepOptions{});
  auto cfg = tiny_config(1);
  cfg.t = 4;
  cfg.max_rounds = 2;  // FloodSet needs t+1 > 2 rounds
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::RoundCap);
  EXPECT_TRUE(trial.result.hit_round_cap);
  EXPECT_FALSE(trial.ok());
}

TEST(SweepVerdicts, StalledTrialTimesOutInsteadOfHangingTheSweep) {
  SweepOptions opts;
  opts.trial_deadline_ms = 1;  // far below this workload's runtime
  Sweep sweep(opts);
  ExperimentConfig cfg;
  cfg.algo = Algo::FloodSet;
  cfg.n = 512;  // ~n^2 messages per round for t+1 rounds: >> 1ms
  cfg.t = core::Params::max_t_optimal(cfg.n);
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Timeout);
  EXPECT_TRUE(trial.result.hit_deadline);
  EXPECT_FALSE(trial.ok());
  EXPECT_EQ(sweep.failures(), 1u);
}

// ---------------------------------------------------------------------------
// Retry policy: transient verdicts re-run with perturbed seeds.

TEST(SweepRetries, TransientVerdictsRetryWithPerturbedSeeds) {
  SweepOptions opts;
  opts.max_attempts = 3;
  Sweep sweep(opts);
  auto cfg = tiny_config(1234);
  cfg.t = 4;
  cfg.max_rounds = 2;  // RoundCap on every attempt
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::RoundCap);
  EXPECT_EQ(trial.attempts, 3u);
  // The recorded attempt's seed is the documented deterministic perturbation.
  EXPECT_EQ(trial.seed_used, mix64(1234, 0x5EED00 + 3));
}

TEST(SweepRetries, FailureVerdictsAreNotRetried) {
  SweepOptions opts;
  opts.max_attempts = 5;
  opts.capture_repro = false;
  Sweep sweep(opts);
  auto cfg = tiny_config(1);
  cfg.t = cfg.n;  // Precondition: deterministic, retrying is pointless
  const auto trial = sweep.run(cfg);
  EXPECT_EQ(trial.verdict, Verdict::Precondition);
  EXPECT_EQ(trial.attempts, 1u);
  EXPECT_EQ(trial.seed_used, 1u);
}

// ---------------------------------------------------------------------------
// Checkpointing and resume.

TEST(SweepCheckpoint, ResumeReplaysRecordedTrialsWithoutRerunning) {
  const fs::path dir = scratch("resume");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();

  std::vector<TrialOutcome> first;
  {
    Sweep sweep(opts);
    for (std::uint64_t s = 1; s <= 3; ++s) {
      first.push_back(sweep.run(tiny_config(s)));
    }
    EXPECT_EQ(sweep.resumed(), 0u);
  }
  const std::string bytes_after_first = slurp(opts.checkpoint_path);
  EXPECT_EQ(std::count(bytes_after_first.begin(), bytes_after_first.end(),
                       '\n'),
            3);

  Sweep resumed(opts);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const auto trial = resumed.run(tiny_config(s));
    EXPECT_TRUE(trial.from_checkpoint);
    EXPECT_EQ(trial.verdict, first[s - 1].verdict);
    EXPECT_EQ(trial.result.time_rounds, first[s - 1].result.time_rounds);
    EXPECT_EQ(trial.result.metrics.comm_bits,
              first[s - 1].result.metrics.comm_bits);
    EXPECT_EQ(trial.result.decision, first[s - 1].result.decision);
  }
  EXPECT_EQ(resumed.trials(), 3u);
  EXPECT_EQ(resumed.resumed(), 3u);
  // Replay must not grow or rewrite the file.
  EXPECT_EQ(slurp(opts.checkpoint_path), bytes_after_first);
}

TEST(SweepCheckpoint, InterruptedSweepResumesToByteIdenticalResults) {
  const fs::path dir = scratch("interrupt");
  const int kTrials = 5;

  // The uninterrupted reference run.
  SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "reference.jsonl").string();
  {
    Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= kTrials; ++s) sweep.run(tiny_config(s));
  }
  const std::string reference = slurp(ref_opts.checkpoint_path);

  // Simulate kill -9 after two trials: keep two complete lines plus a torn
  // fragment of the third (what a mid-write kill leaves at worst).
  std::string torn;
  {
    std::istringstream is(reference);
    std::string line;
    for (int i = 0; i < 2 && std::getline(is, line); ++i) {
      torn += line;
      torn += '\n';
    }
    std::getline(is, line);
    torn += line.substr(0, line.size() / 2);  // no trailing newline
  }
  SweepOptions cut_opts;
  cut_opts.checkpoint_path = (dir / "interrupted.jsonl").string();
  {
    std::ofstream out(cut_opts.checkpoint_path, std::ios::binary);
    out << torn;
  }

  // Resume: the two recorded trials replay, the torn one re-runs.
  Sweep sweep(cut_opts);
  for (std::uint64_t s = 1; s <= kTrials; ++s) sweep.run(tiny_config(s));
  EXPECT_EQ(sweep.resumed(), 2u);
  EXPECT_EQ(sweep.trials(), std::uint64_t{kTrials});

  // The acceptance criterion: the final result table is byte-identical to
  // the uninterrupted run's.
  EXPECT_EQ(slurp(cut_opts.checkpoint_path), reference);
}

TEST(SweepCheckpoint, EachRecordAppendsOneLineToTheSameFile) {
  // The checkpoint is a log, not a rewritten file: every record keeps the
  // inode and leaves the earlier bytes untouched, adding exactly one line.
  const fs::path dir = scratch("append_only");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();
  Sweep sweep(opts);
  sweep.run(tiny_config(1));
  struct stat first {};
  ASSERT_EQ(::stat(opts.checkpoint_path.c_str(), &first), 0);
  std::string before = slurp(opts.checkpoint_path);
  for (std::uint64_t s = 2; s <= 4; ++s) {
    const TrialOutcome outcome = sweep.run(tiny_config(s));
    struct stat now {};
    ASSERT_EQ(::stat(opts.checkpoint_path.c_str(), &now), 0);
    EXPECT_EQ(now.st_ino, first.st_ino)
        << "record " << s << " replaced the file";
    const std::string after = slurp(opts.checkpoint_path);
    EXPECT_EQ(after, before + checkpoint_line(config_key(tiny_config(s)),
                                              outcome) + "\n");
    before = after;
  }
  EXPECT_FALSE(fs::exists(opts.checkpoint_path + ".tmp"));
}

TEST(SweepCheckpoint, ConcurrentCallersRecordEveryTrialOnce) {
  // Bench binaries fan checkpointed trials out over threads: every trial
  // must land as exactly one whole line, and a fresh sweep must resume all
  // of them without appending anything.
  const fs::path dir = scratch("concurrent");
  SweepOptions opts;
  opts.checkpoint_path = (dir / "ckpt.jsonl").string();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  {
    Sweep sweep(opts);
    std::vector<std::thread> callers;
    for (int t = 0; t < kThreads; ++t) {
      callers.emplace_back([&sweep, t] {
        for (int i = 0; i < kPerThread; ++i) {
          sweep.run(tiny_config(1 + static_cast<std::uint64_t>(
                                        t * kPerThread + i)));
        }
      });
    }
    for (auto& caller : callers) caller.join();
    EXPECT_EQ(sweep.trials(), std::uint64_t{kThreads * kPerThread});
  }
  const std::string bytes = slurp(opts.checkpoint_path);
  std::istringstream is(bytes);
  std::set<std::string> keys;
  std::size_t lines = 0;
  for (std::string line; std::getline(is, line); ++lines) {
    std::string key;
    TrialOutcome outcome;
    ASSERT_TRUE(parse_checkpoint_line(line, &key, &outcome)) << line;
    keys.insert(key);
  }
  EXPECT_EQ(lines, std::size_t{kThreads * kPerThread});
  EXPECT_EQ(keys.size(), std::size_t{kThreads * kPerThread});

  Sweep resumed(opts);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    EXPECT_TRUE(resumed.run(tiny_config(1 + static_cast<std::uint64_t>(i)))
                    .from_checkpoint);
  }
  EXPECT_EQ(resumed.resumed(), std::uint64_t{kThreads * kPerThread});
  EXPECT_EQ(slurp(opts.checkpoint_path), bytes);
}

TEST(SweepCheckpoint, CheckpointLineRoundTripsAndRejectsTornPrefixes) {
  Sweep sweep{SweepOptions{}};
  const TrialOutcome outcome = sweep.run(tiny_config(3));
  const std::string key = config_key(tiny_config(3));
  const std::string line = checkpoint_line(key, outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  std::string back_key;
  TrialOutcome back;
  ASSERT_TRUE(parse_checkpoint_line(line, &back_key, &back));
  EXPECT_EQ(back_key, key);
  EXPECT_TRUE(back.from_checkpoint);
  EXPECT_EQ(back.verdict, outcome.verdict);
  EXPECT_EQ(back.seed_used, outcome.seed_used);
  EXPECT_EQ(back.result.time_rounds, outcome.result.time_rounds);
  EXPECT_EQ(back.result.metrics.messages, outcome.result.metrics.messages);
  // Canonical: a replayed outcome re-serializes to the identical line (the
  // farm's shard merge and the checkpoint's byte-identity both lean on it).
  EXPECT_EQ(checkpoint_line(back_key, back), line);

  // Every proper prefix is what a kill -9 mid-write can leave behind; none
  // may parse (a half-line must burn the lease, never fake a result).
  for (std::size_t cut = 0; cut < line.size(); cut += 7) {
    EXPECT_FALSE(parse_checkpoint_line(line.substr(0, cut), &back_key, &back))
        << "prefix of length " << cut << " parsed";
  }
}

TEST(SweepCheckpoint, MalformedNumberDropsTheLine) {
  Sweep sweep{SweepOptions{}};
  const std::string key = config_key(tiny_config(3));
  const std::string line = checkpoint_line(key, sweep.run(tiny_config(3)));
  std::string back_key;
  TrialOutcome back;
  ASSERT_TRUE(parse_checkpoint_line(line, &back_key, &back));
  // Each mangled number would otherwise read as 1, 2^64-3, 1, 0 and 0.
  for (const auto& [field, bad] : std::vector<std::pair<std::string, std::string>>{
           {"attempts", "1x"},
           {"seed", "-3"},
           {"omitted", "1e3"},
           {"decision", "256"},
           {"corrupted", "4294967296"}}) {
    const std::string needle = "\"" + field + "\":";
    const std::size_t at = line.find(needle) + needle.size();
    const std::string mangled =
        line.substr(0, at) + bad + line.substr(line.find(',', at));
    EXPECT_FALSE(parse_checkpoint_line(mangled, &back_key, &back)) << mangled;
  }
}

TEST(SweepCheckpoint, TornLineWarningNamesTheFinalLine) {
  // A checkpoint whose *final* line is torn is the expected kill -9
  // artifact; the loader must drop exactly that line, say so, and re-run
  // only the affected trial.
  const fs::path dir = scratch("torn_tail");
  SweepOptions ref_opts;
  ref_opts.checkpoint_path = (dir / "ref.jsonl").string();
  {
    Sweep sweep(ref_opts);
    for (std::uint64_t s = 1; s <= 3; ++s) sweep.run(tiny_config(s));
  }
  const std::string reference = slurp(ref_opts.checkpoint_path);

  // Truncate mid-way through the last line (no trailing newline).
  SweepOptions torn_opts;
  torn_opts.checkpoint_path = (dir / "torn.jsonl").string();
  {
    const std::size_t last_nl = reference.find_last_of('\n', reference.size() - 2);
    ASSERT_NE(last_nl, std::string::npos);
    std::ofstream out(torn_opts.checkpoint_path, std::ios::binary);
    out << reference.substr(0, last_nl + 1 + 10);
  }

  Sweep resumed(torn_opts);
  for (std::uint64_t s = 1; s <= 3; ++s) resumed.run(tiny_config(s));
  EXPECT_EQ(resumed.resumed(), 2u);   // the torn third line did not resume
  EXPECT_EQ(resumed.trials(), 3u);
  EXPECT_EQ(slurp(torn_opts.checkpoint_path), reference);
}

// ---------------------------------------------------------------------------
// Repro capture.

TEST(SweepRepro, ModelViolationsCaptureAReplayableConfig) {
  const fs::path dir = scratch("repro");
  SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  Sweep sweep(opts);

  auto cfg = tiny_config(77);
  cfg.t = cfg.n + 3;  // Precondition — a model-violation verdict
  const auto trial = sweep.run(cfg);
  ASSERT_EQ(trial.verdict, Verdict::Precondition);
  ASSERT_FALSE(trial.repro_path.empty());
  EXPECT_EQ(fs::path(trial.repro_path).extension(), ".repro");
  EXPECT_TRUE(fs::exists(trial.repro_path));

  // The capture parses back to the exact offending config.
  ExperimentConfig replayed;
  std::string err;
  ASSERT_TRUE(parse_config(slurp(trial.repro_path), &replayed, &err)) << err;
  EXPECT_EQ(serialize_config(replayed), serialize_config(cfg));
  // And replaying it reproduces the failure class.
  EXPECT_THROW(run_experiment(replayed), PreconditionError);
}

TEST(SweepRepro, OkTrialsCaptureNothing) {
  const fs::path dir = scratch("repro_ok");
  SweepOptions opts;
  opts.repro_dir = (dir / "repro").string();
  Sweep sweep(opts);
  const auto trial = sweep.run(tiny_config(1));
  EXPECT_EQ(trial.verdict, Verdict::Ok);
  EXPECT_TRUE(trial.repro_path.empty());
  EXPECT_FALSE(fs::exists(dir / "repro"));  // not even an empty directory
}

// ---------------------------------------------------------------------------
// Environment-driven defaults and the summary line.

TEST(SweepOptionsEnv, ReadsTheDocumentedVariables) {
  ::setenv("OMX_SWEEP_CHECKPOINT", "ck.jsonl", 1);
  ::setenv("OMX_SWEEP_REPRO_DIR", "rdir", 1);
  ::setenv("OMX_SWEEP_DEADLINE_MS", "2500", 1);
  ::setenv("OMX_SWEEP_RETRIES", "2", 1);
  ::setenv("OMX_SWEEP_NO_REPRO", "1", 1);
  ::setenv("OMX_SWEEP_NO_TRACE", "1", 1);
  const SweepOptions o = SweepOptions::from_env();
  ::unsetenv("OMX_SWEEP_CHECKPOINT");
  ::unsetenv("OMX_SWEEP_REPRO_DIR");
  ::unsetenv("OMX_SWEEP_DEADLINE_MS");
  ::unsetenv("OMX_SWEEP_RETRIES");
  ::unsetenv("OMX_SWEEP_NO_REPRO");
  ::unsetenv("OMX_SWEEP_NO_TRACE");
  EXPECT_EQ(o.checkpoint_path, "ck.jsonl");
  EXPECT_EQ(o.repro_dir, "rdir");
  EXPECT_EQ(o.trial_deadline_ms, 2500u);
  EXPECT_EQ(o.max_attempts, 3u);  // 1 + retries
  EXPECT_FALSE(o.capture_repro);
  EXPECT_FALSE(o.capture_trace);
}

TEST(SweepSummary, QuietWhenAllOkLoudWhenNot) {
  Sweep quiet(SweepOptions{});
  quiet.run(tiny_config(1));
  std::ostringstream os;
  quiet.print_summary(os);
  EXPECT_TRUE(os.str().empty());

  SweepOptions opts;
  opts.capture_repro = false;
  Sweep loud(opts);
  loud.run(tiny_config(1));
  auto bad = tiny_config(2);
  bad.t = bad.n;
  loud.run(bad);
  os.str("");
  loud.print_summary(os);
  EXPECT_NE(os.str().find("1 ok"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("1 precondition"), std::string::npos) << os.str();
}

// ---------------------------------------------------------------------------
// guarded_main: the documented failure-class exit codes.

TEST(GuardedMain, MapsEachFailureClassToItsExitCode) {
  EXPECT_EQ(guarded_main([] { return 0; }), 0);
  EXPECT_EQ(guarded_main([] { return 7; }), 7);
  EXPECT_EQ(guarded_main([]() -> int { throw PreconditionError("p"); }), 2);
  EXPECT_EQ(guarded_main([]() -> int { throw InvariantError("i"); }), 3);
  EXPECT_EQ(guarded_main([]() -> int { throw AdversaryViolation("a"); }), 4);
  EXPECT_EQ(guarded_main([]() -> int { throw rng::BudgetExhausted("b"); }), 3);
  EXPECT_EQ(guarded_main([]() -> int { throw std::runtime_error("r"); }), 3);
  // Corrupt input is its own class (5), even though it is-a
  // PreconditionError so legacy EXPECT_THROW call sites keep passing.
  EXPECT_EQ(guarded_main([]() -> int {
              throw CorruptInputError("f.trace", 7, "bad");
            }),
            5);
}

TEST(GuardedMain, CorruptInputErrorCarriesPathAndOffset) {
  const CorruptInputError e("data/run.trace", 4096, "truncated record");
  EXPECT_EQ(e.path(), "data/run.trace");
  EXPECT_EQ(e.byte_offset(), 4096u);
  const std::string what = e.what();
  EXPECT_NE(what.find("data/run.trace"), std::string::npos) << what;
  EXPECT_NE(what.find("byte offset 4096"), std::string::npos) << what;
  EXPECT_NE(what.find("truncated record"), std::string::npos) << what;
}

}  // namespace
}  // namespace omx::harness
