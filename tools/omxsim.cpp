// omxsim — command-line driver for single consensus experiments.
//
//   omxsim --algo optimal --attack coin-hiding --n 512 --seeds 5
//   omxsim --algo param --x 16 --n 256 --inputs alternating --csv
//   omxsim --attack chaos --seeds 200 --checkpoint sweep.jsonl --deadline-ms 5000
//   omxsim --repro repro/8f3a1c90aa12de44.repro
//   omxsim --algo optimal --attack coin-hiding --n 96 --trace run.trace
//
// Prints the paper's three costs (rounds / communication bits / random
// bits), the message count, and the consensus-spec verdict, aggregated over
// the requested seeds. With --csv, emits one machine-readable line per run.
//
// Trials run through harness::Sweep: a trial that throws or stalls is
// recorded with its verdict (and a repro/<hash>.repro capture) while the
// sweep completes the remaining seeds. With --checkpoint, finished trials
// are persisted and a re-run resumes where the previous one was killed.
// --repro replays a captured config *outside* the isolation shell, so the
// original failure surfaces with its class-specific exit code:
// precondition=2, invariant=3, adversary violation=4. An unreadable or
// corrupt .repro file is its own failure class — exit code 5, with a
// message naming the file and the byte offset of the first bad line.
// (omxfarm reuses the same class and exit code for a torn or bit-flipped
// wire frame: "bad bytes" means exit 5 with an offset, everywhere.)
//
// --trace writes a binary event trace per run (`omxtrace stats|dump|diff`
// analyzes it); combined with --repro it re-traces the captured failure.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/params.h"
#include "expsup/table.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "support/check.h"
#include "support/cli.h"

using namespace omx;

namespace {

/// Worst verdict seen → process exit code (0 already handled by caller).
int exit_code_for(const std::map<harness::Verdict, std::uint64_t>& counts) {
  if (counts.count(harness::Verdict::AdversaryViolation)) return 4;
  if (counts.count(harness::Verdict::Invariant)) return 3;
  if (counts.count(harness::Verdict::Precondition)) return 2;
  return 1;
}

/// A trace sink that cannot be created is a bad argument, not a trial
/// verdict: refuse it (PreconditionError, exit 2) before any trial runs,
/// is checkpointed or is captured. Leaves no file behind that was not
/// there before.
void require_writable(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  OMX_REQUIRE(f != nullptr, "trace: cannot open " + path + " for writing");
  std::fclose(f);
  if (!existed) std::filesystem::remove(path, ec);
}

int replay_repro(const std::string& path, const std::string& trace_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CorruptInputError(path, 0, "cannot open repro file");
  }
  std::ostringstream text;
  text << in.rdbuf();
  harness::ExperimentConfig cfg;
  std::string err;
  std::size_t bad_offset = 0;
  if (!harness::parse_config(text.str(), &cfg, &err, &bad_offset)) {
    // Exit code 5 via guarded_main, with the byte offset of the first bad
    // line — a truncated or hand-mangled capture names the exact spot.
    throw CorruptInputError(path, bad_offset, "bad repro file: " + err);
  }
  if (!trace_path.empty()) cfg.trace_path = trace_path;
  std::fprintf(stderr, "replaying %s: algo=%s attack=%s n=%u t=%u seed=%llu\n",
               path.c_str(), harness::to_string(cfg.algo),
               harness::to_string(cfg.attack), cfg.n, cfg.t,
               static_cast<unsigned long long>(cfg.seed));
  // No isolation shell here, deliberately: the exception that poisoned the
  // original trial propagates to guarded_main and reproduces the exact
  // failure class in the exit code.
  const auto r = harness::run_experiment(cfg);
  std::printf("replay completed: ok=%d rounds=%llu messages=%llu "
              "comm_bits=%llu rand_bits=%llu omitted=%llu decision=%u\n",
              r.ok(), static_cast<unsigned long long>(r.time_rounds),
              static_cast<unsigned long long>(r.metrics.messages),
              static_cast<unsigned long long>(r.metrics.comm_bits),
              static_cast<unsigned long long>(r.metrics.random_bits),
              static_cast<unsigned long long>(r.metrics.omitted),
              r.decision);
  return r.ok() ? 0 : 1;
}

int run_main(int argc, char** argv) {
  ArgParser args("omxsim",
                 "run one consensus experiment from the PODC'24 reproduction");
  args.add_option("algo", "optimal",
                  "optimal | param | floodset | benor");
  args.add_option("attack", "none",
                  "none | crash | rand-omit | send-omit | split-brain | "
                  "group-killer | coin-hiding | chaos | schedule");
  args.add_option("schedule", "",
                  "op list for --attack schedule (c<r>.<p>, s<r>.<p>, "
                  "d<r>.<from>.<to>, comma-separated; see omxadv)");
  args.add_option("n", "128", "number of processes");
  args.add_option("t", "-1", "fault budget (-1 = max tolerated by the algo)");
  args.add_option("x", "4", "super-process count (param only)");
  args.add_option("inputs", "random",
                  "all-0 | all-1 | half | random | one-dissent | alternating");
  args.add_option("seed", "1", "first master seed");
  args.add_option("seeds", "1", "number of seeds to run");
  args.add_option("budget", "-1", "random-bit budget (-1 = unlimited)");
  args.add_option("drop-prob", "0.8", "drop probability for rand-omit");
  args.add_option("params", "practical", "practical | paper constants");
  args.add_option("threads", "1",
                  "worker lanes for the computation phase (0 = hardware); "
                  "results are bit-identical at every setting");
  args.add_option("checkpoint", "",
                  "JSONL checkpoint file: finished trials are persisted and "
                  "a restarted sweep resumes after a kill");
  args.add_option("deadline-ms", "0",
                  "cooperative per-trial wall-clock deadline (0 = none)");
  args.add_option("retries", "0",
                  "extra attempts (perturbed seed) for timed-out trials");
  args.add_option("repro-dir", "repro",
                  "directory for crash-repro captures");
  args.add_option("repro", "",
                  "replay a captured .repro file exactly, then exit");
  args.add_option("trace", "",
                  "write a binary event trace to this path (suffixed "
                  ".<seed> when --seeds > 1); analyze with omxtrace");
  args.add_flag("csv", "emit one CSV line per run instead of a table");

  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }

  if (!args.get("repro").empty()) {
    return replay_repro(args.get("repro"), args.get("trace"));
  }

  harness::ExperimentConfig cfg;
  if (!harness::algo_from_string(args.get("algo"), &cfg.algo) ||
      !harness::attack_from_string(args.get("attack"), &cfg.attack) ||
      !harness::inputs_from_string(args.get("inputs"), &cfg.inputs)) {
    std::fprintf(stderr, "error: bad algo/attack/inputs value\n\n%s",
                 args.usage().c_str());
    return 2;
  }
  cfg.n = args.get_uint<std::uint32_t>("n");
  cfg.x = args.get_uint<std::uint32_t>("x");
  cfg.drop_prob = args.get_double("drop-prob");
  if (args.get("params") == "paper") cfg.params = core::Params::paper();
  const auto t = args.get_int("t");
  cfg.t = t >= 0 ? static_cast<std::uint32_t>(t)
                 : (cfg.algo == harness::Algo::Param
                        ? core::Params::max_t_param(cfg.n)
                        : core::Params::max_t_optimal(cfg.n));
  const auto budget = args.get_int("budget");
  if (budget >= 0) cfg.random_bit_budget = static_cast<std::uint64_t>(budget);
  cfg.threads = args.get_uint<unsigned>("threads");
  cfg.schedule = args.get("schedule");

  const auto first_seed = args.get_uint<std::uint64_t>("seed");
  const auto num_seeds = args.get_uint<std::uint64_t>("seeds");
  const std::string trace_stem = args.get("trace");
  const auto trace_path_for = [&](std::uint64_t seed) {
    return num_seeds > 1 ? trace_stem + "." + std::to_string(seed)
                         : trace_stem;
  };
  if (!trace_stem.empty()) require_writable(trace_path_for(first_seed));

  harness::SweepOptions sweep_opts = harness::SweepOptions::from_env();
  if (!args.get("checkpoint").empty()) {
    sweep_opts.checkpoint_path = args.get("checkpoint");
  }
  sweep_opts.repro_dir = args.get("repro-dir");
  if (const auto ms = args.get_uint<std::uint64_t>("deadline-ms"); ms > 0) {
    sweep_opts.trial_deadline_ms = ms;
  }
  if (const auto retries = args.get_uint<std::uint32_t>("retries");
      retries > 0) {
    sweep_opts.max_attempts = 1 + retries;
  }
  harness::Sweep sweep(sweep_opts);

  const bool csv = args.flag("csv");

  if (csv) {
    std::printf(
        "algo,attack,n,t,seed,verdict,attempts,ok,rounds,messages,comm_bits,"
        "rand_bits,rand_calls,omitted,corrupted,decision\n");
  }
  expsup::Table table(
      std::string("omxsim: ") + args.get("algo") + " vs " + args.get("attack"),
      {"seed", "verdict", "ok", "rounds", "messages", "comm bits",
       "rand bits", "omitted", "decision"});
  int failures = 0;
  for (std::uint64_t s = 0; s < num_seeds; ++s) {
    cfg.seed = first_seed + s;
    if (!trace_stem.empty()) cfg.trace_path = trace_path_for(cfg.seed);
    const harness::TrialOutcome trial = sweep.run(cfg);
    const harness::ExperimentResult& r = trial.result;
    failures += !trial.ok();
    if (csv) {
      std::printf(
          "%s,%s,%u,%u,%llu,%s,%u,%d,%llu,%llu,%llu,%llu,%llu,%llu,%u,%u\n",
          args.get("algo").c_str(), args.get("attack").c_str(), cfg.n, cfg.t,
          static_cast<unsigned long long>(cfg.seed),
          harness::to_string(trial.verdict), trial.attempts, trial.ok(),
          static_cast<unsigned long long>(r.time_rounds),
          static_cast<unsigned long long>(r.metrics.messages),
          static_cast<unsigned long long>(r.metrics.comm_bits),
          static_cast<unsigned long long>(r.metrics.random_bits),
          static_cast<unsigned long long>(r.metrics.random_calls),
          static_cast<unsigned long long>(r.metrics.omitted),
          r.corrupted, r.decision);
    } else {
      table.add_row({expsup::Table::num(cfg.seed),
                     harness::to_string(trial.verdict),
                     trial.ok() ? "yes" : "NO",
                     expsup::Table::num(r.time_rounds),
                     expsup::Table::num(r.metrics.messages),
                     expsup::Table::num(r.metrics.comm_bits),
                     expsup::Table::num(r.metrics.random_bits),
                     expsup::Table::num(r.metrics.omitted),
                     expsup::Table::num(std::uint64_t{r.decision})});
    }
    if (!trial.error.empty()) {
      std::fprintf(stderr, "seed %llu: %s: %s\n",
                   static_cast<unsigned long long>(cfg.seed),
                   harness::to_string(trial.verdict), trial.error.c_str());
      if (!trial.repro_path.empty()) {
        std::fprintf(stderr, "seed %llu: repro captured: %s\n",
                     static_cast<unsigned long long>(cfg.seed),
                     trial.repro_path.c_str());
      }
      if (!trial.trace_path.empty()) {
        std::fprintf(stderr, "seed %llu: trace captured: %s\n",
                     static_cast<unsigned long long>(cfg.seed),
                     trial.trace_path.c_str());
      }
    }
  }
  if (!csv) table.print(std::cout);
  sweep.print_summary(std::cerr);
  if (failures == 0) return 0;
  return exit_code_for(sweep.verdict_counts());
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main([&] { return run_main(argc, argv); });
}
