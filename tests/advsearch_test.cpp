// The schedule genome and the closed-loop adversary search: text round
// trips and parse errors, normalize(), the ScheduleAdversary's legality
// contract (illegal ops are AdversaryViolation, never clipped), trace
// scoring, extract-and-replay byte-identity, search determinism, and the
// checkpoint state file (save/load round trip; a torn file is
// CorruptInputError with a byte offset).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "advsearch/search.h"
#include "advsearch/score.h"
#include "adversary/schedule.h"
#include "harness/experiment.h"
#include "support/check.h"
#include "trace/reader.h"

namespace omx::advsearch {
namespace {

namespace fs = std::filesystem;

fs::path scratch(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("omx_adv_" + name);
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

harness::ExperimentConfig small_benor() {
  harness::ExperimentConfig cfg;
  cfg.algo = harness::Algo::BenOr;
  cfg.attack = harness::Attack::RandomOmission;
  cfg.n = 24;
  cfg.t = 3;
  cfg.seed = 5;
  return cfg;
}

// ---------------------------------------------------------------------------
// Schedule text form.

TEST(Schedule, ParseToStringRoundTrip) {
  const std::string text = "c0.3,s1.3,d2.3.7,d2.3.8";
  adversary::Schedule s;
  std::string err;
  ASSERT_TRUE(adversary::Schedule::parse(text, &s, &err)) << err;
  ASSERT_EQ(s.ops.size(), 4u);
  EXPECT_EQ(s.ops[0].kind, adversary::ScheduleOp::Kind::Corrupt);
  EXPECT_EQ(s.ops[1].kind, adversary::ScheduleOp::Kind::Silence);
  EXPECT_EQ(s.ops[2].kind, adversary::ScheduleOp::Kind::Drop);
  EXPECT_EQ(s.ops[2].round, 2u);
  EXPECT_EQ(s.ops[2].a, 3u);
  EXPECT_EQ(s.ops[2].b, 7u);
  EXPECT_EQ(s.to_string(), text);
  EXPECT_EQ(s.corrupt_count(), 1u);
}

TEST(Schedule, NormalizeSortsAndDedupes) {
  adversary::Schedule s;
  std::string err;
  ASSERT_TRUE(
      adversary::Schedule::parse("d2.3.7,c0.3,d2.3.7,s1.3", &s, &err));
  s.normalize();
  EXPECT_EQ(s.to_string(), "c0.3,s1.3,d2.3.7");
}

TEST(Schedule, ParseRejectsMalformedOps) {
  adversary::Schedule s;
  std::string err;
  EXPECT_FALSE(adversary::Schedule::parse("x0.1", &s, &err));
  EXPECT_FALSE(adversary::Schedule::parse("c0", &s, &err));
  EXPECT_FALSE(adversary::Schedule::parse("d1.2", &s, &err));
  EXPECT_FALSE(adversary::Schedule::parse("c0.1,,c0.2", &s, &err));
  EXPECT_FALSE(adversary::Schedule::parse("c99999999999.1", &s, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// The legality firewall judges schedules; illegal ones throw, whole.

TEST(ScheduleAdversaryRun, LegalScheduleExecutes) {
  harness::ExperimentConfig cfg = small_benor();
  cfg.attack = harness::Attack::Schedule;
  cfg.schedule = "c0.2,s1.2,d0.2.5";
  const harness::ExperimentResult r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.corrupted, 1u);
}

TEST(ScheduleAdversaryRun, DropBetweenHonestProcessesThrows) {
  harness::ExperimentConfig cfg = small_benor();
  cfg.attack = harness::Attack::Schedule;
  cfg.schedule = "d0.4.5";  // neither endpoint corrupted
  EXPECT_THROW((void)harness::run_experiment(cfg), AdversaryViolation);
}

TEST(ScheduleAdversaryRun, CorruptPastBudgetThrows) {
  harness::ExperimentConfig cfg = small_benor();
  cfg.attack = harness::Attack::Schedule;
  cfg.t = 1;
  cfg.schedule = "c0.1,c0.2";  // budget is one
  EXPECT_THROW((void)harness::run_experiment(cfg), AdversaryViolation);
}

// ---------------------------------------------------------------------------
// Scoring + extraction.

TEST(ScoreTrace, ExtractedScheduleReplaysByteIdentically) {
  const fs::path dir = scratch("extract");
  harness::ExperimentConfig cfg = small_benor();
  cfg.trace_path = (dir / "analytic.trace").string();
  (void)harness::run_experiment(cfg);
  const trace::TraceData analytic = trace::read_trace(cfg.trace_path);
  const Score analytic_score = score_trace(analytic);
  EXPECT_TRUE(analytic_score.all_decided);
  EXPECT_GT(analytic_score.delivered, 0u);

  const adversary::Schedule extracted = extract_schedule(analytic);
  EXPECT_GT(extracted.ops.size(), 0u);

  harness::ExperimentConfig replay = small_benor();
  replay.attack = harness::Attack::Schedule;
  replay.schedule = extracted.to_string();
  replay.trace_path = (dir / "replay.trace").string();
  (void)harness::run_experiment(replay);
  EXPECT_EQ(slurp(dir / "analytic.trace"), slurp(dir / "replay.trace"));
  EXPECT_EQ(score_trace(trace::read_trace(replay.trace_path)),
            analytic_score);
}

TEST(ScoreCompare, LexicographicOrder) {
  const Score a{10, 100, 5000, true};
  Score b = a;
  EXPECT_FALSE(a.better_than(b));
  b.delivered = 4000;  // fewer deliveries is better for the adversary
  EXPECT_TRUE(b.better_than(a));
  b.rand_bits = 99;  // ...but rand_bits dominates delivered
  EXPECT_FALSE(b.better_than(a));
  b.rounds_to_decide = 11;  // ...and rounds dominate everything
  EXPECT_TRUE(b.better_than(a));
}

// ---------------------------------------------------------------------------
// The search loop: determinism, the baseline floor, checkpoint/resume.

TEST(SearchLoop, DeterministicAndNeverBelowBaseline) {
  const fs::path dir = scratch("determinism");
  SearchOptions opts;
  opts.iterations = 6;
  opts.seed = 3;

  Score first_best;
  std::string first_schedule;
  for (int run = 0; run < 2; ++run) {
    opts.work_dir = (dir / ("r" + std::to_string(run))).string();
    Search search(small_benor(), opts);
    search.seed_from_attack(harness::Attack::RandomOmission);
    search.run();
    EXPECT_FALSE(search.baseline_score().better_than(search.best_score()));
    EXPECT_EQ(search.iter(), 6u);
    if (run == 0) {
      first_best = search.best_score();
      first_schedule = search.best().to_string();
    } else {
      EXPECT_EQ(search.best_score(), first_best);
      EXPECT_EQ(search.best().to_string(), first_schedule);
    }
  }
}

TEST(SearchState, SaveLoadRoundTripsAndResumesExactly) {
  const fs::path dir = scratch("state");
  SearchOptions opts;
  opts.iterations = 8;
  opts.seed = 3;
  opts.checkpoint_every = 3;

  // Straight-through run.
  opts.state_path = (dir / "straight.state").string();
  opts.work_dir = (dir / "straight").string();
  Search straight(small_benor(), opts);
  straight.seed_from_attack(harness::Attack::RandomOmission);
  straight.run();

  // Stop at 5, then resume in a brand-new Search to 8.
  opts.iterations = 5;
  opts.state_path = (dir / "resumed.state").string();
  opts.work_dir = (dir / "resumed").string();
  Search half(small_benor(), opts);
  half.seed_from_attack(harness::Attack::RandomOmission);
  half.run();

  opts.iterations = 8;
  Search resumed(harness::ExperimentConfig{}, opts);  // config comes from disk
  ASSERT_TRUE(resumed.load_state());
  EXPECT_EQ(resumed.iter(), 5u);
  EXPECT_EQ(resumed.base().n, small_benor().n);
  resumed.run();

  EXPECT_EQ(resumed.best_score(), straight.best_score());
  EXPECT_EQ(resumed.best().to_string(), straight.best().to_string());
  EXPECT_EQ(slurp(dir / "straight.state"), slurp(dir / "resumed.state"));
}

TEST(SearchState, MissingFileIsFalseTornFileIsCorruptInput) {
  const fs::path dir = scratch("torn");
  SearchOptions opts;
  opts.state_path = (dir / "none.state").string();
  opts.work_dir = (dir / "wd").string();
  Search search(small_benor(), opts);
  EXPECT_FALSE(search.load_state());

  // A state file cut off before its config: section (torn mid-write is
  // impossible via the tmp+rename publish, but a copied/filtered file is
  // not).
  const fs::path torn = dir / "torn.state";
  std::ofstream(torn, std::ios::binary) << "baseline_attack=rand-omit\n"
                                        << "iter=4\n";
  opts.state_path = torn.string();
  Search search2(small_benor(), opts);
  try {
    (void)search2.load_state();
    FAIL() << "load_state accepted a torn file";
  } catch (const CorruptInputError& e) {
    EXPECT_EQ(e.path(), torn.string());
    EXPECT_GT(e.byte_offset(), 0u);
  }

  // A mangled schedule value.
  const fs::path bad = dir / "bad.state";
  std::ofstream(bad, std::ios::binary)
      << "iter=4\nbest=z9.4\nconfig:\nalgo=benor\n";
  opts.state_path = bad.string();
  Search search3(small_benor(), opts);
  EXPECT_THROW((void)search3.load_state(), CorruptInputError);
}

TEST(SearchState, MalformedNumberIsCorruptInputAtItsLine) {
  const fs::path dir = scratch("bad_number");
  SearchOptions opts;
  opts.work_dir = (dir / "wd").string();
  // Each would otherwise load as horizon 12, iter 2^32-1 or horizon 0.
  for (const char* bad : {"horizon=12abc", "horizon=-1", "horizon="}) {
    SCOPED_TRACE(bad);
    const fs::path path = dir / "bad.state";
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << "iter=4\n" << bad << "\nconfig:\nalgo=benor\n";
    opts.state_path = path.string();
    Search search(small_benor(), opts);
    try {
      (void)search.load_state();
      ADD_FAILURE() << "load_state accepted " << bad;
    } catch (const CorruptInputError& e) {
      EXPECT_EQ(e.byte_offset(), 7u);  // the line after "iter=4\n"
    }
  }
}

}  // namespace
}  // namespace omx::advsearch
