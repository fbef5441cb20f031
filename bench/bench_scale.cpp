// Large-n acceptance probes for the flood and gossip state (word-packed
// views, run-length-coded id sets): proves the scale targets of DESIGN.md
// §8 actually hold on the machine at hand and exits nonzero when they do
// not, so CI can gate on it.
//
//   bench_scale [out.json] [--flood-n N] [--gossip-n N] [--flood-budget-s S]
//
// Two probes:
//   * flood  — FloodSet at n = 16384 (default).
//     Receivers read the delivered wire in place: the O(n^2) pair work per
//     round becomes word-wide ORs against double-buffered send logs.
//     Budget: --flood-budget-s wall-clock seconds (default 10; the
//     "single-digit seconds" acceptance bar with a little CI headroom).
//     Exceeding the budget or deciding wrong is a hard failure.
//   * gossip — DoublingGossip with run-length-coded knowledge at
//     n = 10^6 (default 0 = skipped; CI and local runs opt in with
//     --gossip-n because the full-size run takes minutes). Its inquiries
//     and replies are multicasts and unicasts, which delivery indexes per
//     receiver, so a round costs O(records) = O(n * window). The contact
//     window is the cost lever (default 40).
//
// Both probes print per-phase timings; the JSON mirrors BENCH_engine.json
// (hardware_threads stamped for provenance).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "adversary/strategies.h"
#include "baselines/doubling_gossip.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "sim/adversary.h"
#include "sim/runner.h"
#include "support/thread_pool.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int run_scale(int argc, char** argv) {
  const char* out_path = "BENCH_scale.json";
  std::uint32_t flood_n = 16384;
  std::uint32_t gossip_n = 0;  // opt-in: full size is 1000000
  std::uint32_t gossip_window = 40;
  double flood_budget_s = 10.0;
  for (int i = 1; i < argc; ++i) {
    const auto u32 = [&](const char* flag, std::uint32_t* out) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        std::exit(1);
      }
      *out = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      return true;
    };
    if (u32("--flood-n", &flood_n) || u32("--gossip-n", &gossip_n) ||
        u32("--gossip-window", &gossip_window)) {
      continue;
    }
    if (std::strcmp(argv[i], "--flood-budget-s") == 0 && i + 1 < argc) {
      flood_budget_s = std::strtod(argv[++i], nullptr);
      continue;
    }
    out_path = argv[i];
  }

  const unsigned hw = omx::support::ThreadPool::hardware_threads();
  std::string json = "{\n  \"hardware_threads\": " + std::to_string(hw) +
                     ",\n";
  bool ok = true;

  // --- flood probe -------------------------------------------------------
  {
    omx::harness::ExperimentConfig cfg;
    cfg.algo = omx::harness::Algo::FloodSet;
    cfg.attack = omx::harness::Attack::None;
    cfg.n = flood_n;
    cfg.t = 8;  // t+1 flood rounds; small t keeps the probe about n, not t
    cfg.inputs = omx::harness::InputPattern::Random;
    cfg.seed = 1;
    cfg.threads = 1;
    omx::sim::EngineStats stats;
    cfg.engine_stats = &stats;
    std::printf("flood: floodset n=%u t=%u (budget %.0fs)\n",
                flood_n, cfg.t, flood_budget_s);
    std::fflush(stdout);
    omx::harness::Sweep sweep;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = sweep.run(cfg).result;
    const double wall_s = seconds_since(t0);
    std::printf("flood: %.2fs wall (compute %.2fs | adversary %.2fs | "
                "delivery %.2fs), %llu rounds, decided=%d\n",
                wall_s, stats.compute_ns / 1e9, stats.adversary_ns / 1e9,
                stats.delivery_ns / 1e9,
                static_cast<unsigned long long>(stats.rounds),
                res.agreement ? 1 : 0);
    if (!res.agreement || !res.validity) {
      std::fprintf(stderr, "error: flood probe violated agreement/validity "
                           "at n=%u\n", flood_n);
      ok = false;
    }
    if (wall_s > flood_budget_s) {
      std::fprintf(stderr,
                   "error: flood probe took %.2fs, over the %.2fs budget "
                   "(n=%u)\n", wall_s, flood_budget_s, flood_n);
      ok = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"flood\": {\"n\": %u, \"t\": %u, \"wall_s\": %.2f, "
                  "\"budget_s\": %.2f, \"compute_s\": %.2f, "
                  "\"delivery_s\": %.2f, \"rounds\": %llu, "
                  "\"comm_bits\": %llu, \"ok\": %s},\n",
                  flood_n, cfg.t, wall_s, flood_budget_s,
                  stats.compute_ns / 1e9, stats.delivery_ns / 1e9,
                  static_cast<unsigned long long>(stats.rounds),
                  static_cast<unsigned long long>(res.metrics.comm_bits),
                  ok ? "true" : "false");
    json += buf;
  }

  // --- gossip probe ------------------------------------------------------
  if (gossip_n > 0) {
    std::printf("gossip: doubling-gossip n=%u window=%u\n", gossip_n,
                gossip_window);
    std::fflush(stdout);
    omx::baselines::DoublingConfig cfg;
    cfg.t = 0;
    cfg.initial_contacts = gossip_window;
    const auto inputs =
        omx::harness::make_inputs(omx::harness::InputPattern::Random,
                                  gossip_n, 7);
    omx::baselines::DoublingGossipMachine machine(cfg, inputs);
    omx::rng::Ledger ledger(gossip_n, 1);
    omx::adversary::NullAdversary<omx::core::Msg> adv;
    omx::sim::Runner<omx::core::Msg>::Options opts;
    opts.threads = 1;
    omx::sim::Runner<omx::core::Msg> runner(gossip_n, /*t=*/0, &ledger, &adv,
                                            opts);
    machine.set_fault_view(&runner.faults());
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = runner.run(machine);
    const double wall_s = seconds_since(t0);
    std::uint32_t done = 0;
    for (omx::sim::ProcessId p = 0; p < gossip_n; ++p) {
      done += machine.completed(p) ? 1u : 0u;
    }
    std::printf("gossip: %.1fs wall, %llu rounds, %u/%u completed, "
                "%llu messages\n", wall_s,
                static_cast<unsigned long long>(res.metrics.rounds), done,
                gossip_n,
                static_cast<unsigned long long>(res.metrics.messages));
    if (done != gossip_n) {
      std::fprintf(stderr, "error: gossip probe left %u/%u processes "
                           "incomplete at n=%u\n", gossip_n - done, gossip_n,
                   gossip_n);
      ok = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"gossip\": {\"n\": %u, \"window\": %u, "
                  "\"wall_s\": %.1f, \"rounds\": %llu, \"messages\": %llu, "
                  "\"comm_bits\": %llu, \"completed\": %u, \"ok\": %s},\n",
                  gossip_n, gossip_window, wall_s,
                  static_cast<unsigned long long>(res.metrics.rounds),
                  static_cast<unsigned long long>(res.metrics.messages),
                  static_cast<unsigned long long>(res.metrics.comm_bits),
                  done, done == gossip_n ? "true" : "false");
    json += buf;
  } else {
    std::printf("gossip: skipped (pass --gossip-n 1000000 for the full "
                "probe)\n");
  }

  json += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n}\n";
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  }
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return omx::harness::guarded_main([&] { return run_scale(argc, argv); });
}
