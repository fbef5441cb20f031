// omxadv — closed-loop adversary search over intervention schedules.
//
//   omxadv search --algo benor --attack rand-omit --n 64 --iters 200
//                 --state adv.state                # seed, mutate, anneal
//   omxadv search --state adv.state --iters 400    # resume + extend
//   omxadv replay --state adv.state                # re-run best, verify score
//   omxadv report --state adv.state                # discovered vs analytic
//
// `search` runs the analytic --attack once, extracts its executed
// interventions as a schedule genome (so the discovered schedule starts at
// the analytic score and can only go up), then iterates the greedy +
// simulated-annealing loop in src/advsearch/. Every candidate is replayed
// for real through the engine with the legality firewall armed — an illegal
// mutant is rejected outright, never clipped — and scored from the packed
// trace it wrote. The state file checkpoints the whole search (including
// the base experiment config), so a killed search resumes exactly and CI
// can replay a finished one.
//
// `replay` re-runs the best schedule from a state file and fails (exit 1)
// unless the fresh score equals the recorded one — the determinism
// assertion the adversary-search CI job is built on. `report` is read-only:
// it formats the discovered-vs-analytic comparison from the state file.
//
// A torn or hand-mangled state file is a CorruptInputError — exit 5 with a
// byte offset, like every other corrupt input in this codebase.
#include <cstdio>
#include <filesystem>
#include <string>

#include "advsearch/search.h"
#include "harness/sweep.h"
#include "support/check.h"
#include "support/cli.h"

using namespace omx;

namespace {

const char kUsage[] =
    "usage: omxadv <subcommand> [args]\n"
    "\n"
    "subcommands:\n"
    "  search   seed from an analytic attack and run the mutation loop\n"
    "           (resumes automatically if --state already exists)\n"
    "  replay   re-run the best schedule from a state file; exit 1 unless\n"
    "           the fresh score matches the recorded one exactly\n"
    "  report   print the discovered-vs-analytic comparison from a state\n"
    "           file (read-only; no replays)\n"
    "\n"
    "run `omxadv <subcommand> --help` for the subcommand's options\n";

void add_search_base_options(ArgParser* args) {
  args->add_option("algo", "benor",
                   "optimal | param | floodset | benor — the protocol the "
                   "adversary attacks");
  args->add_option("attack", "rand-omit",
                   "analytic strategy the search seeds from (its executed "
                   "interventions become the starting genome)");
  args->add_option("n", "64", "number of processes");
  args->add_option("t", "-1", "fault budget (-1 = max tolerated by the algo)");
  args->add_option("x", "4", "super-process count (param only)");
  args->add_option("inputs", "random",
                   "all-0 | all-1 | half | random | one-dissent | alternating");
  args->add_option("seed", "1", "experiment master seed (fixed per search)");
  args->add_option("drop-prob", "0.8", "drop probability for rand-omit");
  args->add_option("budget", "-1", "random-bit budget (-1 = unlimited)");
}

harness::ExperimentConfig config_from_args(const ArgParser& args,
                                           std::string* error) {
  harness::ExperimentConfig cfg;
  if (!harness::algo_from_string(args.get("algo"), &cfg.algo) ||
      !harness::inputs_from_string(args.get("inputs"), &cfg.inputs)) {
    *error = "bad algo/inputs value";
    return cfg;
  }
  cfg.n = args.get_uint<std::uint32_t>("n");
  cfg.x = args.get_uint<std::uint32_t>("x");
  cfg.seed = args.get_uint<std::uint64_t>("seed");
  cfg.drop_prob = args.get_double("drop-prob");
  const auto t = args.get_int("t");
  cfg.t = t >= 0 ? static_cast<std::uint32_t>(t)
                 : (cfg.algo == harness::Algo::Param
                        ? core::Params::max_t_param(cfg.n)
                        : core::Params::max_t_optimal(cfg.n));
  const auto budget = args.get_int("budget");
  if (budget >= 0) cfg.random_bit_budget = static_cast<std::uint64_t>(budget);
  return cfg;
}

void print_comparison(const advsearch::Search& search) {
  const advsearch::Score& base = search.baseline_score();
  const advsearch::Score& best = search.best_score();
  std::printf("analytic (%s): %s\n", search.baseline_attack().c_str(),
              base.to_string().c_str());
  std::printf("discovered:      %s\n", best.to_string().c_str());
  // The full genome lives in the state file; keep stdout readable.
  std::string sched = search.best().to_string();
  if (sched.empty()) sched = "(empty)";
  const std::size_t cut = sched.size() > 120 ? sched.find(',', 100)
                                             : std::string::npos;
  if (cut != std::string::npos) {
    sched.resize(cut);
    sched += ", ...";
  }
  std::printf("  schedule (%zu op(s)): %s\n", search.best().ops.size(),
              sched.c_str());
  std::printf("  delta: rounds %+lld, rand_bits %+lld, delivered %+lld\n",
              static_cast<long long>(best.rounds_to_decide) -
                  static_cast<long long>(base.rounds_to_decide),
              static_cast<long long>(best.rand_bits) -
                  static_cast<long long>(base.rand_bits),
              static_cast<long long>(best.delivered) -
                  static_cast<long long>(base.delivered));
  const advsearch::SearchStats& st = search.stats();
  std::printf(
      "  search: %u iteration(s), %llu evaluated, %llu rejected (illegal), "
      "%llu accepted, %llu improved\n",
      search.iter(), static_cast<unsigned long long>(st.evaluated),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.improved));
}

int cmd_search(int argc, const char* const* argv) {
  ArgParser args("omxadv search",
                 "seed from an analytic attack, then mutate + anneal");
  add_search_base_options(&args);
  args.add_option("iters", "200", "total mutation iterations (a resumed "
                  "search continues to this count)");
  args.add_option("search-seed", "1",
                  "mutation PRNG seed (independent of --seed)");
  args.add_option("t0", "5e11", "annealing initial temperature");
  args.add_option("alpha", "0.95", "annealing geometric cooling factor");
  args.add_option("state", "",
                  "resumable state file (loaded if it exists; checkpointed "
                  "during the run)");
  args.add_option("work-dir", "advsearch",
                  "directory for baseline/seeded/candidate traces");
  args.add_option("checkpoint-every", "10",
                  "checkpoint cadence in iterations (with --state)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }

  std::string cfg_error;
  harness::ExperimentConfig base = config_from_args(args, &cfg_error);
  if (!cfg_error.empty()) {
    std::fprintf(stderr, "error: %s\n\n%s", cfg_error.c_str(),
                 args.usage().c_str());
    return 2;
  }

  advsearch::SearchOptions opts;
  opts.iterations = args.get_uint<std::uint32_t>("iters");
  opts.seed = args.get_uint<std::uint64_t>("search-seed");
  opts.t0 = args.get_double("t0");
  opts.alpha = args.get_double("alpha");
  opts.state_path = args.get("state");
  opts.work_dir = args.get("work-dir");
  opts.checkpoint_every = args.get_uint<std::uint32_t>("checkpoint-every");

  advsearch::Search search(std::move(base), opts);
  const bool resumed = !opts.state_path.empty() && search.load_state();
  if (resumed) {
    // The state file carries the base config and the search seed; the
    // CLI's experiment flags are ignored in favour of what the search
    // actually ran (continuing a search under a different arena would make
    // the recorded scores meaningless).
    std::printf("resumed %s at iteration %u/%u (best so far: %s)\n",
                opts.state_path.c_str(), search.iter(),
                search.options().iterations,
                search.best_score().to_string().c_str());
  } else {
    harness::Attack attack;
    if (!harness::attack_from_string(args.get("attack"), &attack)) {
      std::fprintf(stderr, "error: bad attack value\n\n%s",
                   args.usage().c_str());
      return 2;
    }
    OMX_REQUIRE(attack != harness::Attack::Schedule,
                "seed the search from an analytic attack, not 'schedule' "
                "(a schedule is what the search produces)");
    search.seed_from_attack(attack);
    std::printf("seeded from %s: %s\n", search.baseline_attack().c_str(),
                search.baseline_score().to_string().c_str());
  }

  search.run();
  print_comparison(search);
  if (!opts.state_path.empty()) {
    std::printf("state: %s\n", opts.state_path.c_str());
  }
  return 0;
}

/// Build a Search around an existing state file (replay/report). The dummy
/// base config is irrelevant — load_state replaces it with the embedded one.
advsearch::Search load_search(const std::string& state_path,
                              const std::string& work_dir) {
  OMX_REQUIRE(!state_path.empty(), "--state is required");
  advsearch::SearchOptions opts;
  opts.state_path = state_path;
  opts.work_dir = work_dir;
  advsearch::Search search(harness::ExperimentConfig{}, opts);
  OMX_REQUIRE(search.load_state(), "no such state file: " + state_path);
  return search;
}

int cmd_replay(int argc, const char* const* argv) {
  ArgParser args("omxadv replay",
                 "re-run a state file's best schedule and verify its score");
  args.add_option("state", "", "state file written by `omxadv search`");
  args.add_option("work-dir", "advsearch",
                  "directory for the replay trace (replay.trace)");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  advsearch::Search search =
      load_search(args.get("state"), args.get("work-dir"));

  advsearch::Score fresh;
  const bool legal = search.evaluate(search.best(), &fresh, "replay");
  if (!legal) {
    std::fprintf(stderr,
                 "replay: recorded best schedule was REJECTED by the "
                 "legality firewall — state file and engine disagree\n");
    return 1;
  }
  std::printf("recorded: %s\n", search.best_score().to_string().c_str());
  std::printf("replayed: %s\n", fresh.to_string().c_str());
  std::printf("trace: %s\n", search.trace_path("replay").c_str());
  if (!(fresh == search.best_score())) {
    std::fprintf(stderr, "replay: score MISMATCH — the search result does "
                         "not reproduce\n");
    return 1;
  }
  std::printf("replay: score reproduced exactly\n");
  return 0;
}

int cmd_report(int argc, const char* const* argv) {
  ArgParser args("omxadv report",
                 "print discovered-vs-analytic comparison from a state file");
  args.add_option("state", "", "state file written by `omxadv search`");
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", args.error().c_str(),
                 args.usage().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.usage().c_str(), stdout);
    return 0;
  }
  // report never replays, so any scratch directory works; keep it inside
  // the state file's directory to avoid surprising a read-only caller with
  // a new ./advsearch.
  const std::string state = args.get("state");
  OMX_REQUIRE(!state.empty(), "--state is required");
  const std::string dir =
      std::filesystem::path(state).parent_path().string();
  advsearch::Search search = load_search(state, dir.empty() ? "." : dir);
  const harness::ExperimentConfig& base = search.base();
  std::printf("arena: %s n=%u t=%u seed=%llu\n",
              harness::to_string(base.algo), base.n, base.t,
              static_cast<unsigned long long>(base.seed));
  print_comparison(search);
  return 0;
}

int run_main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  // Re-point argv[1] at the program name so ArgParser sees `omxadv <cmd>`.
  if (cmd == "search") return cmd_search(argc - 1, argv + 1);
  if (cmd == "replay") return cmd_replay(argc - 1, argv + 1);
  if (cmd == "report") return cmd_report(argc - 1, argv + 1);
  std::fprintf(stderr,
               "error: unknown subcommand '%s'"
               " (valid subcommands: search, replay, report)\n",
               cmd.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return harness::guarded_main([&] { return run_main(argc, argv); });
}
