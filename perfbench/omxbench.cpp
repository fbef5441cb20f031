// omxbench: one workload of the repository benchmark, in one process.
//
// perfbench/run.py starts this binary once per measurement (each set-up
// sample, the timed run, the traced run), so every measurement begins in a
// fresh address space: the farm forks its workers from this process, and a
// fork copies whatever heap or pool an earlier workload would have left.
//
//   omxbench --workload <name> --seed <n> --seconds <s> --mode setup|timed
//            --traced 0|1 --configs <dir> --work <dir> [--chrome <path>]
//
// Every workload is a closed loop with one client: the next request is
// sent when the previous one returns, and rounds run with no injected
// delay, so a request's time is processor time. The trial of a workload is
// the `.repro` text <configs>/<workload>.repro, read by
// harness::parse_config; per-request fields (the trial seed, and n and t
// for the farm grid) are appended to that text, never set on the config
// directly. adv-search's requests vary the search seed instead.
//
// Setup (timed into setup_s) ends where the first timed request starts.
// --mode setup stops there. --traced 1 attaches the engine's EngineStats
// sink and records spans around the public calls into each layer
// (spans.h); they are written once, at exit, to --chrome.
//
// The last line of stdout is one JSON object of raw measurements; run.py
// turns them into the benchmark's metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "advsearch/score.h"
#include "advsearch/search.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "farm/farm.h"
#include "farm/shard.h"
#include "graph/comm_graph.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "sim/runner.h"
#include "spans.h"
#include "support/prng.h"
#include "trace/reader.h"

namespace {

namespace fs = std::filesystem;
using omx::perfbench::Clock;
using omx::perfbench::SpanLog;
using omx::harness::ExperimentConfig;

// Request i of a workload uses seed mix64(seed, i). The warm-up request of
// set-up uses one fixed seed instead, so set-up does the same work on
// every run and setup_s compares across runs of different seeds.
constexpr std::uint64_t kWarmupSeed = 0x5E7u << 20;
// Exact per-trial counts (rounds, messages, bits...) are averaged over the
// first kCountTrials timed trials: a fixed set of seeds, so the figures do
// not depend on how many trials the time window held.
constexpr std::size_t kCountTrials = 3;
// farm-grid: Optimal x rand-omit x n x kFarmSeeds seeds per job.
constexpr std::uint32_t kFarmNs[] = {32, 48, 64};
constexpr std::uint32_t kFarmSeeds = 4;
constexpr int kFarmWorkers = 2;
// adv-search: candidates per search request (omxadv's default is 200; a
// short search keeps one request near a fifth of a second, so a run holds
// the hundred requests a 90th percentile needs).
constexpr std::uint32_t kSearchIterations = 16;

volatile std::uint64_t g_sink = 0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string mode = "timed";
  bool traced = false;
  std::string configs = "perfbench/workloads";
  std::string work = ".bench_build/work";
  std::string chrome;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--mode") a.mode = v;
    else if (k == "--traced") a.traced = v == "1";
    else if (k == "--configs") a.configs = v;
    else if (k == "--work") a.work = v;
    else if (k == "--chrome") a.chrome = v;
    else throw std::invalid_argument("omxbench: unknown flag " + k);
  }
  if (argc % 2 != 1) {
    throw std::invalid_argument("omxbench: flag without value");
  }
  if (a.mode != "setup" && a.mode != "timed" && a.mode != "spin") {
    throw std::invalid_argument(
        "omxbench: --mode must be setup, timed or spin");
  }
  return a;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("omxbench: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ExperimentConfig parse_trial(const std::string& text) {
  ExperimentConfig cfg;
  std::string err;
  std::size_t offset = 0;
  if (!omx::harness::parse_config(text, &cfg, &err, &offset)) {
    throw std::runtime_error("omxbench: bad trial config at byte " +
                             std::to_string(offset) + ": " + err);
  }
  return cfg;
}

std::string with_seed(const std::string& text, std::uint64_t seed) {
  return text + "seed=" + std::to_string(seed) + "\n";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Mean of the values added so far (0 when none were).
struct Mean {
  double sum = 0;
  std::uint64_t n = 0;
  void add(double v) {
    sum += v;
    ++n;
  }
  double value() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

// Raw measurements of one process.
struct Report {
  double setup_s = 0;
  double busy_s = 0;         // summed request latencies of the timed phase
  std::uint64_t trials = 0;  // consensus executions the timed phase finished
  std::vector<double> request_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::vector<std::string> digests;   // per-request output fingerprints
  std::map<std::string, double> layer;

  /// Count one checked output; a failed check records its reason.
  void judge(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void finish_request(Clock::time_point t0, Clock::time_point t1,
                      std::uint64_t trials_done) {
    request_ms.push_back(ms_between(t0, t1));
    busy_s += ms_between(t0, t1) / 1e3;
    trials += trials_done;
  }
};

// Fixed-work pointer chase over one random cycle through `bytes` of
// 64-byte lines: the same dependent loads every run, so its time shows how
// contended the cache level holding that working set was just now.
double spin_ms(std::size_t bytes, std::uint64_t steps) {
  const std::size_t lines = bytes / 64;
  std::vector<std::uint32_t> order(lines);
  std::iota(order.begin(), order.end(), 0u);
  omx::Xoshiro256 gen(0x5917u);
  for (std::size_t i = lines - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(gen.below(i + 1))]);
  }
  std::vector<std::uint64_t> next(lines * 8);
  for (std::size_t i = 0; i < lines; ++i) {
    next[order[i] * 8u] = order[(i + 1) % lines] * 8u;
  }
  std::uint64_t p = 0;
  for (std::size_t i = 0; i < lines; ++i) p = next[p];  // warm the set
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < steps; ++i) p = next[p];
  const auto t1 = Clock::now();
  g_sink = g_sink + p;
  return ms_between(t0, t1);
}

double cpu_ms(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

long max_rss_kb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return ru.ru_maxrss;
}

std::string metrics_digest(const omx::harness::ExperimentResult& r) {
  const omx::sim::Metrics& m = r.metrics;
  std::ostringstream os;
  os << m.rounds << ',' << m.messages << ',' << m.comm_bits << ','
     << m.random_calls << ',' << m.random_bits << ',' << m.corrupted << ','
     << m.omitted << ',' << r.time_rounds << ',' << unsigned{r.decision};
  return os.str();
}

/// The paper's exact counts, averaged over the given results.
void add_counts(const std::vector<omx::harness::ExperimentResult>& rs,
                Report* rep) {
  Mean rounds, messages, bits, omitted, rbits, rcalls, corrupted;
  for (const auto& r : rs) {
    rounds.add(static_cast<double>(r.metrics.rounds));
    messages.add(static_cast<double>(r.metrics.messages));
    bits.add(static_cast<double>(r.metrics.comm_bits));
    omitted.add(static_cast<double>(r.metrics.omitted));
    rbits.add(static_cast<double>(r.metrics.random_bits));
    rcalls.add(static_cast<double>(r.metrics.random_calls));
    corrupted.add(static_cast<double>(r.metrics.corrupted));
  }
  rep->layer["sim.rounds"] = rounds.value();
  rep->layer["sim.messages"] = messages.value();
  rep->layer["sim.comm_bits"] = bits.value();
  rep->layer["sim.omitted"] = omitted.value();
  rep->layer["rng.random_bits"] = rbits.value();
  rep->layer["rng.random_calls"] = rcalls.value();
  rep->layer["adversary.corrupted"] = corrupted.value();
}

/// Algorithm 1's decision time and how often it needed the fallback:
/// deciding after the truncated schedule's last round means the run went
/// on into the flood-set fallback.
void add_core_rounds(const std::vector<ExperimentConfig>& cfgs,
                     const std::vector<omx::harness::ExperimentResult>& rs,
                     Report* rep) {
  Mean time_rounds, fallback;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const ExperimentConfig& c = cfgs[i];
    if (c.algo != omx::harness::Algo::Optimal) continue;
    const std::uint64_t truncated =
        omx::core::OptimalCore::schedule_length(c.params, c.n, c.t, true);
    time_rounds.add(static_cast<double>(rs[i].time_rounds));
    fallback.add(rs[i].time_rounds > truncated + 1 ? 1.0 : 0.0);
  }
  rep->layer["core.time_rounds"] = time_rounds.value();
  rep->layer["core.fallback_ratio"] = fallback.value();
}

// ---------------------------------------------------------------------------
// alg1-coin-hiding, flood-packed: one Sweep::run per request.

void run_engine(const Args& a, SpanLog& spans, Report& rep) {
  const auto setup_start = Clock::now();
  const std::string base = read_file(a.configs + "/" + a.workload + ".repro");
  const ExperimentConfig shape = parse_trial(with_seed(base, a.seed));
  // Algorithm 1 builds its communication graph and sqrt(n) partition on
  // first use and keeps them for the process lifetime: build them here,
  // under their own spans, so every timed trial finds them cached.
  if (shape.algo == omx::harness::Algo::Optimal) {
    const auto t0 = Clock::now();
    (void)omx::graph::CommGraph::common_for_shared(
        shape.n, shape.params.delta(shape.n));
    const auto t1 = Clock::now();
    (void)omx::groups::SqrtPartition::shared_for(shape.n);
    const auto t2 = Clock::now();
    spans.add("graph.common_for_shared", 0, 0, t0, t1);
    spans.add("groups.shared_for", 0, 0, t1, t2);
    rep.layer["graph.build_ms"] = ms_between(t0, t1);
    rep.layer["groups.build_ms"] = ms_between(t1, t2);
  }
  omx::harness::SweepOptions sweep_options;
  sweep_options.repro_dir = a.work + "/repro";
  omx::harness::Sweep sweep(sweep_options);

  Mean compute, adversary, delivery, residual;
  std::vector<ExperimentConfig> counted_cfgs;
  std::vector<omx::harness::ExperimentResult> counted;

  const auto trial = [&](std::uint64_t request, std::uint64_t seed,
                         bool timed) {
    ExperimentConfig cfg = parse_trial(with_seed(base, seed));
    omx::sim::EngineStats st;
    if (spans.enabled()) cfg.engine_stats = &st;
    const auto t0 = Clock::now();
    const omx::harness::TrialOutcome out = sweep.run(cfg);
    const auto t1 = Clock::now();

    bool ok = out.ok();
    std::string why = "seed " + std::to_string(seed) + ": verdict " +
                      omx::harness::to_string(out.verdict) +
                      (out.result.ok() ? "" : ", consensus spec violated");
    if (spans.enabled()) {
      // EngineStats gives each phase's total, not its intervals: lay the
      // phases end to end from the trial's start, so the Chrome view and
      // the self times add up. The three top-level phases are disjoint
      // wall intervals of the run, so they must fit inside the span.
      const std::uint64_t root =
          spans.add("harness.Sweep::run", 0, request, t0, t1);
      std::int64_t at = spans.since_origin(t0);
      const auto phase = [&](const char* name, std::uint64_t parent,
                             std::int64_t start, std::uint64_t ns) {
        return spans.add(name, parent, request, start,
                         start + static_cast<std::int64_t>(ns));
      };
      phase("sim.compute", root, at, st.compute_ns);
      at += static_cast<std::int64_t>(st.compute_ns);
      phase("sim.adversary", root, at, st.adversary_ns);
      at += static_cast<std::int64_t>(st.adversary_ns);
      phase("sim.delivery", root, at, st.delivery_ns);
      const double phases_ms =
          static_cast<double>(st.compute_ns + st.adversary_ns +
                              st.delivery_ns) / 1e6;
      if (phases_ms > ms_between(t0, t1)) {
        ok = false;
        why = "seed " + std::to_string(seed) +
              ": engine phases exceed the Sweep::run span";
      }
      if (timed) residual.add(ms_between(t0, t1) - phases_ms);
    }
    rep.judge(ok, why);
    if (!timed) return;
    rep.finish_request(t0, t1, 1);
    rep.digests.push_back(metrics_digest(out.result));
    if (counted.size() < kCountTrials) {
      counted_cfgs.push_back(cfg);
      counted.push_back(out.result);
    }
    if (!spans.enabled()) return;
    compute.add(static_cast<double>(st.compute_ns) / 1e6);
    adversary.add(static_cast<double>(st.adversary_ns) / 1e6);
    delivery.add(static_cast<double>(st.delivery_ns) / 1e6);
  };

  trial(0, kWarmupSeed, false);
  rep.setup_s = ms_between(setup_start, Clock::now()) / 1e3;
  if (a.mode == "setup") return;

  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    trial(i + 1, omx::mix64(a.seed, i), true);
  }

  add_counts(counted, &rep);
  add_core_rounds(counted_cfgs, counted, &rep);
  rep.layer["graph.builds"] = static_cast<double>(
      omx::graph::CommGraph::common_for_shared_builds());
  if (!spans.enabled()) return;
  rep.layer["sim.compute_ms"] = compute.value();
  rep.layer["sim.adversary_ms"] = adversary.value();
  rep.layer["sim.delivery_ms"] = delivery.value();
  // Machine build, ledger and verdict: Sweep::run minus the engine phases.
  rep.layer["harness.residual_ms"] = residual.value();
}

// ---------------------------------------------------------------------------
// farm-grid: one Farm::run over the whole grid per request.

void run_farm(const Args& a, SpanLog& spans, Report& rep) {
  const auto setup_start = Clock::now();
  const std::string base = read_file(a.configs + "/" + a.workload + ".repro");
  const auto make_grid = [&](std::uint64_t seed) {
    std::vector<ExperimentConfig> grid;
    for (const std::uint32_t n : kFarmNs) {
      for (std::uint32_t k = 0; k < kFarmSeeds; ++k) {
        const std::string text =
            base + "n=" + std::to_string(n) + "\nt=" +
            std::to_string(omx::core::Params::max_t_optimal(n)) + "\n";
        grid.push_back(
            parse_trial(with_seed(text, omx::mix64(seed, n * 64u + k))));
      }
    }
    return grid;
  };
  // grids[0] is the warm-up job's, grids[1] every timed job's.
  const std::vector<ExperimentConfig> grids[2] = {make_grid(kWarmupSeed),
                                                  make_grid(a.seed)};
  // One artifact cache for every job of the run, as a farm user's cache
  // persists across jobs; the warm-up job fills it.
  ::setenv("OMX_ARTIFACT_CACHE", (a.work + "/artifacts").c_str(), 1);
  omx::farm::FarmOptions options;
  options.workers = kFarmWorkers;
  options.sweep.repro_dir = a.work + "/repro";

  struct Job {
    int grid;
    std::string dir;
    std::string merged;
  };
  std::vector<Job> jobs;
  omx::farm::FarmReport totals;
  Mean job_ms, merge_ms;
  const auto job = [&](std::uint64_t request, bool timed) {
    options.dir = a.work + "/j" + std::to_string(request);
    omx::farm::Farm farm(options);
    for (const ExperimentConfig& cfg : grids[timed ? 1 : 0]) farm.add(cfg);
    const auto t0 = Clock::now();
    const omx::farm::FarmReport r = farm.run();
    const auto t1 = Clock::now();
    jobs.push_back(Job{timed ? 1 : 0, options.dir, read_file(r.merged_path)});
    if (!timed) return;
    rep.finish_request(t0, t1, r.done);
    rep.digests.push_back(std::to_string(std::hash<std::string>{}(
        jobs.back().merged)));
    job_ms.add(ms_between(t0, t1));
    totals.releases += r.releases;
    totals.crashed_workers += r.crashed_workers;
    totals.torn_shard_lines += r.torn_shard_lines;
    if (!spans.enabled()) return;
    spans.add("farm.Farm::run", 0, request, t0, t1);
    // Farm::run merges its shards internally; repeat the same merge into
    // a second file under a span to time it, and hold it to the same
    // output. Work outside a timed request is logged as request 0.
    const std::string remerged = options.dir + "/remerged.jsonl";
    const auto m0 = Clock::now();
    (void)omx::farm::merge_shards(options.dir + "/shards", remerged);
    const auto m1 = Clock::now();
    spans.add("farm.merge_shards", 0, 0, m0, m1);
    merge_ms.add(ms_between(m0, m1));
    rep.judge(read_file(remerged) == jobs.back().merged,
              options.dir + ": re-merged shards differ from merged.jsonl");
  };

  job(0, false);
  rep.setup_s = ms_between(setup_start, Clock::now()) / 1e3;
  if (a.mode == "setup") return;

  const double cpu0 = cpu_ms(RUSAGE_SELF) + cpu_ms(RUSAGE_CHILDREN);
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  for (std::uint64_t i = 0; Clock::now() < end; ++i) job(i + 1, true);
  const double cpu1 = cpu_ms(RUSAGE_SELF) + cpu_ms(RUSAGE_CHILDREN);

  // The farm's contract: merged.jsonl equals, in key order, the lines a
  // single-process sweep of the same grid checkpoints. Run those sweeps
  // now, after the timed jobs, so no worker inherited their warmed caches.
  struct Reference {
    std::string merged;
    std::map<std::string, std::string> lines;
    std::map<std::string, bool> ok;
    std::vector<omx::harness::ExperimentResult> results;
    double serial_ms = 0;
  };
  Reference refs[2];
  omx::harness::Sweep sweep(options.sweep);
  for (int g = 0; g < 2; ++g) {
    for (const ExperimentConfig& cfg : grids[g]) {
      const std::string key = omx::harness::config_key(cfg);
      const auto t0 = Clock::now();
      const omx::harness::TrialOutcome out = sweep.run(cfg);
      const auto t1 = Clock::now();
      spans.add("harness.Sweep::run", 0, 0, t0, t1);
      refs[g].serial_ms += ms_between(t0, t1);
      refs[g].lines[key] = omx::harness::checkpoint_line(key, out);
      refs[g].ok[key] = out.ok();
      refs[g].results.push_back(out.result);
    }
    for (const auto& [key, line] : refs[g].lines) refs[g].merged += line + "\n";
  }
  for (const Job& j : jobs) {
    const Reference& ref = refs[j.grid];
    std::map<std::string, std::string> got;
    std::istringstream is(j.merged);
    for (std::string line; std::getline(is, line);) {
      std::string key;
      omx::harness::TrialOutcome o;
      if (omx::harness::parse_checkpoint_line(line, &key, &o)) got[key] = line;
    }
    const bool in_order = j.merged == ref.merged;
    for (const auto& [key, line] : ref.lines) {
      const bool ok = in_order && got[key] == line && ref.ok.at(key);
      rep.judge(ok, j.dir + ": item " + key +
                        (ref.ok.at(key) ? " differs from the in-process "
                                          "sweep or is out of key order"
                                        : " failed its consensus check"));
    }
  }
  std::error_code ec;
  for (const Job& j : jobs) fs::remove_all(j.dir, ec);

  add_counts(refs[1].results, &rep);
  add_core_rounds(grids[1], refs[1].results, &rep);
  const double items =
      static_cast<double>(std::max<std::uint64_t>(1, rep.trials));
  rep.layer["farm.releases"] = static_cast<double>(totals.releases);
  rep.layer["farm.crashed_workers"] =
      static_cast<double>(totals.crashed_workers);
  rep.layer["farm.torn_shard_lines"] =
      static_cast<double>(totals.torn_shard_lines);
  rep.layer["farm.worker_peak_rss_mb"] =
      static_cast<double>(max_rss_kb(RUSAGE_CHILDREN)) / 1024.0;
  rep.layer["farm.cpu_ms"] = (cpu1 - cpu0) / items;
  if (!spans.enabled()) return;
  // Worker-slot time the grid's trials needed (the serial in-process run)
  // over the slot time the farm held: the rest went to leasing, fork,
  // reap, shard appends and the merge.
  const double slot_ms = kFarmWorkers * job_ms.value();
  rep.layer["farm.utilization"] =
      slot_ms > 0 ? refs[1].serial_ms / slot_ms : 0.0;
  rep.layer["farm.dispatch_ms"] = (slot_ms - refs[1].serial_ms) /
                                  static_cast<double>(grids[1].size());
  rep.layer["farm.merge_ms"] = merge_ms.value();
}

// ---------------------------------------------------------------------------
// adv-search: one Search of kSearchIterations candidates per request. The
// arena (the experiment every candidate replays, seed included) is fixed
// by the workload's text; the request's seed drives the search's
// mutations. A per-request arena seed would make request cost follow
// Ben-Or's seed-dependent round count (3 to 5 rounds at n=128).

void run_adv(const Args& a, SpanLog& spans, Report& rep) {
  const auto setup_start = Clock::now();
  const std::string text =
      read_file(a.configs + "/" + a.workload + ".repro");
  const ExperimentConfig cfg = parse_trial(text);
  const std::string work = a.work + "/adv";

  Mean seed_ms, engine_ms, emit_ms, read_ms, score_ms, bytes, pack_ratio;
  std::uint64_t evaluated = 0, rejected = 0, accepted = 0, improved = 0;
  std::uint64_t searches = 0;
  std::vector<omx::harness::ExperimentResult> counted;

  const auto search = [&](std::uint64_t request, std::uint64_t seed,
                          bool timed) {
    omx::advsearch::SearchOptions so;
    so.iterations = kSearchIterations;
    so.seed = seed;
    so.work_dir = work;
    omx::advsearch::Search s(cfg, so);
    const auto t0 = Clock::now();
    s.seed_from_attack(cfg.attack);
    const auto t1 = Clock::now();
    s.run();
    const auto t2 = Clock::now();
    const omx::advsearch::SearchStats st = s.stats();

    // The search's own claims: its best schedule replays to its recorded
    // score, and is never worse than the analytic attack it started from.
    omx::advsearch::Score replay;
    const bool legal = s.evaluate(s.best(), &replay, "check");
    const auto t3 = Clock::now();
    rep.judge(legal && replay == s.best_score() &&
                  !s.baseline_score().better_than(s.best_score()),
              "search seed " + std::to_string(seed) + ": best " +
                  s.best_score().to_string() + ", replay " +
                  replay.to_string() + ", baseline " +
                  s.baseline_score().to_string());
    if (!timed) return;
    rep.finish_request(t0, t2, st.evaluated + 1);  // + the analytic run
    rep.digests.push_back(s.best_score().to_string() + "/" +
                          std::to_string(st.evaluated) + "/" +
                          std::to_string(st.rejected) + "/" +
                          std::to_string(st.accepted));
    ++searches;
    evaluated += st.evaluated;
    rejected += st.rejected;
    accepted += st.accepted;
    improved += st.improved;
    if (!spans.enabled()) return;

    spans.add("advsearch.seed_from_attack", 0, request, t0, t1);
    spans.add("advsearch.Search::run", 0, request, t1, t2);
    seed_ms.add(ms_between(t0, t1));
    // One candidate's cost split by layer, on the schedules the search
    // ended with: the engine alone, the engine writing its packed trace,
    // reading the trace back, and scoring it. This and the check above run
    // outside the timed request, so their spans are logged as request 0.
    const std::uint64_t root = spans.begin("bench.split", 0, 0, t2);
    spans.add("advsearch.evaluate", root, 0, t2, t3);
    const std::string trace_path = work + "/split.trace";
    for (const omx::adversary::Schedule* sched : {&s.best(), &s.current()}) {
      const std::string replay_text =
          text + "attack=schedule\nschedule=" + sched->to_string() + "\n";
      const auto c0 = Clock::now();
      const omx::harness::ExperimentResult plain =
          omx::harness::run_experiment(parse_trial(replay_text));
      const auto c1 = Clock::now();
      (void)omx::harness::run_experiment(parse_trial(
          replay_text + "trace_path=" + trace_path + "\ntrace_packed=1\n"));
      const auto c2 = Clock::now();
      const omx::trace::TraceData data = omx::trace::read_trace(trace_path);
      const auto c3 = Clock::now();
      (void)omx::advsearch::score_trace(data);
      const auto c4 = Clock::now();
      spans.add("harness.run_experiment", root, 0, c0, c1);
      spans.add("harness.run_experiment+trace", root, 0, c1, c2);
      spans.add("trace.read_trace", root, 0, c2, c3);
      spans.add("advsearch.score_trace", root, 0, c3, c4);
      spans.end(root, c4);
      engine_ms.add(ms_between(c0, c1));
      emit_ms.add(ms_between(c1, c2) - ms_between(c0, c1));
      read_ms.add(ms_between(c2, c3));
      score_ms.add(ms_between(c3, c4));
      bytes.add(static_cast<double>(data.file_bytes));
      pack_ratio.add(static_cast<double>(data.raw_bytes()) /
                     static_cast<double>(data.file_bytes));
      if (counted.empty()) counted.push_back(plain);
    }
  };

  search(0, kWarmupSeed, false);
  rep.setup_s = ms_between(setup_start, Clock::now()) / 1e3;
  if (a.mode == "setup") return;

  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(a.seconds));
  for (std::uint64_t i = 0; Clock::now() < end; ++i) {
    search(i + 1, omx::mix64(a.seed, i), true);
  }

  const double evals =
      static_cast<double>(std::max<std::uint64_t>(1, evaluated));
  rep.layer["advsearch.rejected_ratio"] = static_cast<double>(rejected) / evals;
  rep.layer["advsearch.accepted_ratio"] = static_cast<double>(accepted) / evals;
  rep.layer["advsearch.improved"] =
      static_cast<double>(improved) /
      static_cast<double>(std::max<std::uint64_t>(1, searches));
  if (!spans.enabled()) return;
  add_counts(counted, &rep);
  rep.layer["advsearch.seed_ms"] = seed_ms.value();
  rep.layer["advsearch.engine_ms"] = engine_ms.value();
  rep.layer["trace.emit_ms"] = emit_ms.value();
  rep.layer["trace.read_ms"] = read_ms.value();
  rep.layer["advsearch.score_ms"] = score_ms.value();
  rep.layer["trace.bytes"] = bytes.value();
  rep.layer["trace.pack_ratio"] = pack_ratio.value();
}

void print_report(const Args& a, const Report& rep, double spin_l2,
                  double spin_l3) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << json_escape(a.workload) << "\",\"mode\":\""
     << a.mode << "\",\"traced\":" << (a.traced ? 1 : 0)
     << ",\"setup_s\":" << rep.setup_s << ",\"busy_s\":" << rep.busy_s
     << ",\"trials\":" << rep.trials << ",\"attempted\":" << rep.attempted
     << ",\"failed\":" << rep.failed
     << ",\"peak_rss_kb\":" << max_rss_kb(RUSAGE_SELF)
     << ",\"spin_l2_ms\":" << spin_l2 << ",\"spin_l3_ms\":" << spin_l3
     << ",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ",\"l3_bytes\":" << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ",\"request_ms\":[";
  for (std::size_t i = 0; i < rep.request_ms.size(); ++i) {
    os << (i ? "," : "") << rep.request_ms[i];
  }
  os << "],\"failures\":[";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(rep.failures[i]) << '"';
  }
  os << "],\"digests\":[";
  for (std::size_t i = 0; i < rep.digests.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(rep.digests[i]) << '"';
  }
  os << "],\"layer\":{";
  const char* sep = "";
  for (const auto& [k, v] : rep.layer) {
    os << sep << '"' << k << "\":" << v;
    sep = ",";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  return omx::harness::guarded_main([&] {
    const Args a = parse_args(argc, argv);
    SpanLog spans(a.traced);
    Report rep;
    if (a.mode == "spin") {
      // Its own process, so the loops' buffers never count in a workload's
      // peak RSS.
      print_report(a, rep, spin_ms(256u << 10, 1u << 21),
                   spin_ms(4u << 20, 1u << 19));
      return 0;
    }
    if (a.workload == "alg1-coin-hiding" || a.workload == "flood-packed") {
      run_engine(a, spans, rep);
    } else if (a.workload == "farm-grid") {
      run_farm(a, spans, rep);
    } else if (a.workload == "adv-search") {
      run_adv(a, spans, rep);
    } else {
      throw std::invalid_argument("omxbench: unknown workload " + a.workload);
    }
    if (spans.enabled() && a.mode == "timed") {
      // Each module's self time per timed request; they add up to the mean
      // request time. Request 0 holds set-up and the benchmark's checks.
      std::map<std::string, std::int64_t> by_module;
      const std::vector<std::int64_t> self = spans.self_ns();
      for (std::size_t i = 0; i < self.size(); ++i) {
        const auto& s = spans.spans()[i];
        if (s.request == 0) continue;
        by_module[s.name.substr(0, s.name.find('.'))] += self[i];
      }
      const double requests =
          static_cast<double>(std::max<std::size_t>(1, rep.request_ms.size()));
      for (const auto& [module, ns] : by_module) {
        rep.layer["self_ms." + module] =
            static_cast<double>(ns) / 1e6 / requests;
      }
      if (!a.chrome.empty() && !spans.write_chrome(a.chrome)) {
        throw std::runtime_error("omxbench: cannot write " + a.chrome);
      }
    }
    print_report(a, rep, 0, 0);
    return 0;
  });
}
