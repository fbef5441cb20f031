// Engine micro/meso-benchmark: wall-clock and per-phase (compute /
// adversary / delivery) timings of full consensus runs through the
// flat-buffer message plane, plus a thread-scaling sweep over the sharded
// computation phase. Writes BENCH_engine.json next to the working
// directory (see EXPERIMENTS.md for how the numbers are regenerated).
//
//   bench_engine [out.json] [--threads 1,2,4,8]
//   bench_engine --speedup-gate T1,T2[,min]   # CI: flood n=4096 must be
//                                             # min-x faster at T2 lanes
//
// The thread sweep defaults to {1,2,4,8} filtered to the lanes this host
// actually has; an explicit --threads list that exceeds
// ThreadPool::hardware_threads() is an error (exit 1), not a silently
// oversubscribed measurement. The resolved hardware_threads value is
// stamped into the JSON so recorded numbers carry their provenance.
//
// The workloads are chosen to stress the delivery substrate, not the
// protocols: FloodSet is all-to-all with Θ(n)-pair payloads (the
// worst-case wire volume per round, merged as word-packed views), Optimal
// is tens of millions of small messages (record-throughput bound).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/params.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "sim/runner.h"
#include "support/thread_pool.h"

namespace {

struct Workload {
  const char* name;
  omx::harness::Algo algo;
  omx::harness::Attack attack;
  std::uint32_t n;
  int reps;
};

struct Sample {
  double wall_ms = 1e100;
  omx::sim::EngineStats stats;  // stats of the best (fastest) rep
  omx::sim::Metrics metrics;
};

Sample run_workload(omx::harness::Sweep& sweep, const Workload& w,
                    unsigned threads, const std::string& trace_path = "") {
  Sample best;
  for (int rep = 0; rep < w.reps; ++rep) {
    omx::harness::ExperimentConfig cfg;
    cfg.algo = w.algo;
    cfg.attack = w.attack;
    cfg.n = w.n;
    cfg.t = omx::core::Params::max_t_optimal(w.n);
    cfg.inputs = omx::harness::InputPattern::Random;
    cfg.seed = 1;
    cfg.threads = threads;
    cfg.trace_path = trace_path;
    omx::sim::EngineStats stats;
    cfg.engine_stats = &stats;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = sweep.run(cfg).result;
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    std::printf("  %-36s x%u rep %d: %9.1f ms  (compute %6.0f | adversary "
                "%6.0f | delivery %6.0f)\n",
                w.name, threads, rep, ms, stats.compute_ns / 1e6,
                stats.adversary_ns / 1e6, stats.delivery_ns / 1e6);
    std::fflush(stdout);
    if (ms < best.wall_ms) {
      best.wall_ms = ms;
      best.stats = stats;
      best.metrics = res.metrics;
    }
  }
  return best;
}

}  // namespace

int run_bench(int argc, char** argv) {
  const unsigned hw = omx::support::ThreadPool::hardware_threads();

  // CLI: an optional output path plus an optional explicit thread list.
  const char* out_path = "BENCH_engine.json";
  std::vector<unsigned> sweep_threads;
  bool explicit_threads = false;
  // --speedup-gate T1,T2[,min]: CI mode. Run the flood-heavy n=4096
  // rand-omit workload at T1 and T2 lanes and exit nonzero unless
  // wall(T1)/wall(T2) >= min (default 1.0, i.e. "T2 lanes must not be
  // slower"). Skips the full bench and writes no JSON.
  bool gate_mode = false;
  unsigned gate_t1 = 1, gate_t2 = 4;
  double gate_min = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup-gate") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --speedup-gate needs T1,T2[,min], "
                             "e.g. --speedup-gate 1,4,1.2\n");
        return 1;
      }
      gate_mode = true;
      double min = 1.0;
      unsigned long t1 = 0, t2 = 0;
      const std::string spec = argv[++i];
      const int got = std::sscanf(spec.c_str(), "%lu,%lu,%lf", &t1, &t2, &min);
      if (got < 2 || t1 == 0 || t2 == 0) {
        std::fprintf(stderr, "error: bad --speedup-gate spec '%s'\n",
                     spec.c_str());
        return 1;
      }
      gate_t1 = static_cast<unsigned>(t1);
      gate_t2 = static_cast<unsigned>(t2);
      if (got >= 3) gate_min = min;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --threads needs a comma-separated "
                             "list, e.g. --threads 1,2,4\n");
        return 1;
      }
      explicit_threads = true;
      const std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        char* end = nullptr;
        const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || v == 0) {
          std::fprintf(stderr, "error: bad --threads entry '%s'\n",
                       tok.c_str());
          return 1;
        }
        sweep_threads.push_back(static_cast<unsigned>(v));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      out_path = argv[i];
    }
  }
  if (explicit_threads) {
    // An oversubscribed sweep measures scheduler thrash, not engine
    // scaling — refuse loudly rather than record a misleading number.
    for (const unsigned v : sweep_threads) {
      if (v > hw) {
        std::fprintf(stderr,
                     "error: --threads %u exceeds this host's %u hardware "
                     "thread%s; refusing to record an oversubscribed "
                     "measurement\n",
                     v, hw, hw == 1 ? "" : "s");
        return 1;
      }
    }
  } else {
    for (const unsigned v : {1u, 2u, 4u, 8u}) {
      if (v <= hw) {
        sweep_threads.push_back(v);
      } else {
        std::printf("note: skipping %u-lane sweep point (host has %u "
                    "hardware thread%s)\n",
                    v, hw, hw == 1 ? "" : "s");
      }
    }
  }

  if (gate_mode) {
    if (gate_t1 > hw || gate_t2 > hw) {
      std::fprintf(stderr,
                   "error: --speedup-gate %u,%u exceeds this host's %u "
                   "hardware thread%s\n",
                   gate_t1, gate_t2, hw, hw == 1 ? "" : "s");
      return 1;
    }
    // n=4096, not 1024: the n=1024 run takes ~20 ms, where 4 lanes
    // barely win and noise decides the gate. At n=4096 each round's
    // all-to-all merge dominates, and 4 lanes run ~2x faster on a
    // 4-thread host.
    omx::harness::Sweep gate_trials;
    const Workload w = {"floodset/rand-omit/4096",
                        omx::harness::Algo::FloodSet,
                        omx::harness::Attack::RandomOmission, 4096, 3};
    const Sample a = run_workload(gate_trials, w, gate_t1);
    const Sample b = run_workload(gate_trials, w, gate_t2);
    const double speedup = a.wall_ms / (b.wall_ms > 0 ? b.wall_ms : 1);
    std::printf("speedup gate: %s at %u vs %u lanes: %.1f ms -> %.1f ms "
                "(%.2fx, need >= %.2fx)\n",
                w.name, gate_t1, gate_t2, a.wall_ms, b.wall_ms, speedup,
                gate_min);
    if (speedup < gate_min) {
      std::fprintf(stderr,
                   "speedup gate FAILED: %.2fx < %.2fx — %u lanes did not "
                   "pay for themselves on the flood-heavy workload\n",
                   speedup, gate_min, gate_t2);
      return 1;
    }
    return 0;
  }

  omx::harness::Sweep trials;
  const std::vector<Workload> workloads = {
      {"floodset/none/256", omx::harness::Algo::FloodSet,
       omx::harness::Attack::None, 256, 3},
      {"floodset/none/512", omx::harness::Algo::FloodSet,
       omx::harness::Attack::None, 512, 3},
      {"floodset/none/1024", omx::harness::Algo::FloodSet,
       omx::harness::Attack::None, 1024, 3},
      {"floodset/rand-omit/1024", omx::harness::Algo::FloodSet,
       omx::harness::Attack::RandomOmission, 1024, 3},
      {"floodset/none/4096", omx::harness::Algo::FloodSet,
       omx::harness::Attack::None, 4096, 2},
      {"optimal/none/1024", omx::harness::Algo::Optimal,
       omx::harness::Attack::None, 1024, 2},
  };

  // Pre-message-plane engine (seed commit 9d537a6) on the same workloads,
  // measured back-to-back on the development machine (best of 3 reps,
  // interleaved A/B runs). Its flood runs used pair-list relays; with the
  // same relays the message-plane engine ran them ~5x faster.
  std::string json =
      "{\n  \"seed_engine_reference_ms\": {\"floodset/none/1024\": 5337.7, "
      "\"floodset/rand-omit/1024\": 5593.0, \"optimal/none/1024\": 3359.2},\n"
      "  \"hardware_threads\": " +
      std::to_string(hw) + ",\n  \"workloads\": [\n";
  bool first = true;
  for (const auto& w : workloads) {
    const Sample s = run_workload(trials, w, /*threads=*/1);
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "%s    {\"name\": \"%s\", \"n\": %u, \"wall_ms\": %.1f, "
        "\"compute_ms\": %.1f, \"adversary_ms\": %.1f, "
        "\"delivery_ms\": %.1f, \"rounds\": %llu, \"messages\": %llu, "
        "\"comm_bits\": %llu, \"omitted\": %llu}",
        first ? "" : ",\n", w.name, w.n, s.wall_ms, s.stats.compute_ns / 1e6,
        s.stats.adversary_ns / 1e6, s.stats.delivery_ns / 1e6,
        static_cast<unsigned long long>(s.stats.rounds),
        static_cast<unsigned long long>(s.metrics.messages),
        static_cast<unsigned long long>(s.metrics.comm_bits),
        static_cast<unsigned long long>(s.metrics.omitted));
    json += buf;
    first = false;
  }
  json += "\n  ],\n  \"thread_sweep\": [\n";

  // Thread-scaling sweep: every engine phase across the chosen lane counts.
  // stage/merge split the parallel compute phase (merge is the stitch +
  // rack reduction + seal); lane_busy_ms is the pool's per-lane busy time
  // over the run, so shard imbalance is visible straight from the JSON.
  // parallel_rounds counts rounds that actually took the sharded path (all
  // of them, for unlimited rng budgets). The flood row is the speedup
  // gate's workload; it also records the adversary phase at every lane
  // count: that phase runs serially, so its adversary_ms should not move
  // with lanes.
  const std::vector<Workload> sweep = {
      {"floodset/rand-omit/4096", omx::harness::Algo::FloodSet,
       omx::harness::Attack::RandomOmission, 4096, 3},
      {"optimal/none/256", omx::harness::Algo::Optimal,
       omx::harness::Attack::None, 256, 3},
      {"optimal/none/1024", omx::harness::Algo::Optimal,
       omx::harness::Attack::None, 1024, 2},
  };
  first = true;
  for (const auto& w : sweep) {
    for (const unsigned threads : sweep_threads) {
      const Sample s = run_workload(trials, w, threads);
      std::string lanes_json = "[";
      for (std::size_t i = 0; i < s.stats.lane_busy_ns.size(); ++i) {
        char lane_buf[32];
        std::snprintf(lane_buf, sizeof(lane_buf), "%s%.1f", i ? ", " : "",
                      s.stats.lane_busy_ns[i] / 1e6);
        lanes_json += lane_buf;
      }
      lanes_json += "]";
      char buf[1024];
      std::snprintf(
          buf, sizeof(buf),
          "%s    {\"name\": \"%s\", \"n\": %u, \"threads\": %u, "
          "\"wall_ms\": %.1f, \"compute_ms\": %.1f, \"stage_ms\": %.1f, "
          "\"merge_ms\": %.1f, \"adversary_ms\": %.1f, "
          "\"delivery_ms\": %.1f, \"parallel_rounds\": %llu, "
          "\"rounds\": %llu, \"lane_busy_ms\": %s}",
          first ? "" : ",\n", w.name, w.n, threads, s.wall_ms,
          s.stats.compute_ns / 1e6, s.stats.stage_ns / 1e6,
          s.stats.merge_ns / 1e6, s.stats.adversary_ns / 1e6,
          s.stats.delivery_ns / 1e6,
          static_cast<unsigned long long>(s.stats.parallel_rounds),
          static_cast<unsigned long long>(s.stats.rounds),
          lanes_json.c_str());
      json += buf;
      first = false;
    }
  }
  json += "\n  ],\n";

  // Trace-overhead A/B on the flood-heavy n=1024 workload: tracing off
  // (the default hot path) vs tracing on (every send, drop and draw
  // encoded through the ring: ~4.2M records, ~4 MB packed). The untraced
  // run takes ~20 ms, so writing the trace dominates the traced one and
  // overhead_pct reads several hundred percent. Nothing gates it: it
  // records what a traced run of this size costs. Best-of-N like
  // everything above.
  {
    const Workload w = {"floodset/rand-omit/1024", omx::harness::Algo::FloodSet,
                        omx::harness::Attack::RandomOmission, 1024, 3};
    const char* trace_tmp = "bench_engine_overhead.trace";
    const Sample off = run_workload(trials, w, /*threads=*/1);
    const Sample on = run_workload(trials, w, /*threads=*/1, trace_tmp);
    long trace_bytes = 0;
    if (FILE* f = std::fopen(trace_tmp, "rb")) {
      std::fseek(f, 0, SEEK_END);
      trace_bytes = std::ftell(f);
      std::fclose(f);
    }
    std::remove(trace_tmp);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"trace_overhead\": {\"name\": \"%s\", \"n\": %u, "
                  "\"off_ms\": %.1f, \"on_ms\": %.1f, "
                  "\"overhead_pct\": %.1f, \"trace_bytes\": %ld}\n",
                  w.name, w.n, off.wall_ms, on.wall_ms,
                  100.0 * (on.wall_ms - off.wall_ms) / off.wall_ms,
                  trace_bytes);
    json += buf;
  }

  json += "}\n";

  if (FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("could not write %s\n", out_path);
    return 1;
  }
  trials.print_summary(std::cerr);
  return 0;
}

int main(int argc, char** argv) {
  return omx::harness::guarded_main([&] { return run_bench(argc, argv); });
}
