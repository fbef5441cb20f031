// Adversary-search bench: how much damage does the closed-loop schedule
// search (src/advsearch/) add on top of the analytic strategies it seeds
// from? One row per (protocol, analytic attack) arena — FloodSet vs
// rand-omit, Ben-Or vs rand-omit and vs the Theorem-2 coin-hiding strategy
// (FloodSet is deterministic, so there are no votes to hide there) — each
// row recording the analytic score, the discovered score and the search
// effort that separated them. Writes BENCH_adv.json (see EXPERIMENTS.md).
//
//   bench_adv [out.json] [--iters N] [--n N] [--work-dir DIR]
//
// Scores come from the packed traces the replays write (advsearch/score.h):
// rounds until the last honest decision, random bits burned, messages
// delivered. "discovered >= analytic" holds by construction — the search
// starts from the schedule extracted out of the analytic run — so the
// interesting number is the delta, and a zero delta is an honest result
// (the analytic strategy was locally optimal under this mutation kernel).
// The host's hardware thread count is stamped into the JSON, as
// bench_engine does, so search_ms carries its provenance.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "advsearch/search.h"
#include "core/params.h"
#include "harness/experiment.h"
#include "support/thread_pool.h"

namespace {

struct Arena {
  const char* name;
  omx::harness::Algo algo;
  omx::harness::Attack attack;
};

struct Row {
  std::string name;
  std::uint32_t n = 0, t = 0, iters = 0;
  omx::advsearch::Score analytic, discovered;
  std::size_t ops = 0;
  omx::advsearch::SearchStats stats;
  double search_ms = 0.0;
};

void append_score(std::string* json, const char* key,
                  const omx::advsearch::Score& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"%s\": {\"rounds\": %llu, \"rand_bits\": %llu, "
                "\"delivered\": %llu, \"all_decided\": %s}",
                key, static_cast<unsigned long long>(s.rounds_to_decide),
                static_cast<unsigned long long>(s.rand_bits),
                static_cast<unsigned long long>(s.delivered),
                s.all_decided ? "true" : "false");
  *json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_adv.json";
  std::uint32_t iters = 150;
  std::uint32_t n = 64;
  std::string work_dir = "bench_adv_work";
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--iters") && i + 1 < argc) {
      iters = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (!std::strcmp(argv[i], "--work-dir") && i + 1 < argc) {
      work_dir = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  const Arena arenas[] = {
      {"floodset/rand-omit", omx::harness::Algo::FloodSet,
       omx::harness::Attack::RandomOmission},
      {"benor/rand-omit", omx::harness::Algo::BenOr,
       omx::harness::Attack::RandomOmission},
      {"benor/coin-hiding", omx::harness::Algo::BenOr,
       omx::harness::Attack::CoinHiding},
  };

  std::vector<Row> rows;
  for (const Arena& a : arenas) {
    omx::harness::ExperimentConfig base;
    base.algo = a.algo;
    base.attack = a.attack;
    base.n = n;
    base.t = omx::core::Params::max_t_optimal(n);
    base.inputs = omx::harness::InputPattern::Random;
    base.seed = 1;

    omx::advsearch::SearchOptions opts;
    opts.iterations = iters;
    opts.seed = 1;
    std::string slug = a.name;
    for (char& c : slug) {
      if (c == '/') c = '_';
    }
    opts.work_dir = work_dir + "/" + slug;

    Row row;
    row.name = a.name;
    row.n = n;
    row.t = base.t;
    row.iters = iters;

    omx::advsearch::Search search(base, opts);
    const auto t0 = std::chrono::steady_clock::now();
    search.seed_from_attack(a.attack);
    search.run();
    const auto t1 = std::chrono::steady_clock::now();
    row.search_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    row.analytic = search.baseline_score();
    row.discovered = search.best_score();
    row.ops = search.best().ops.size();
    row.stats = search.stats();
    rows.push_back(row);

    std::printf("%-22s analytic:   %s\n", a.name,
                row.analytic.to_string().c_str());
    std::printf("%-22s discovered: %s  (%zu op(s), %.0f ms)\n", "",
                row.discovered.to_string().c_str(), row.ops, row.search_ms);
  }

  std::string json = "{\n  \"n\": " + std::to_string(n) +
                     ",\n  \"iterations\": " + std::to_string(iters) +
                     ",\n  \"search_seed\": 1,\n  \"hardware_threads\": " +
                     std::to_string(
                         omx::support::ThreadPool::hardware_threads()) +
                     ",\n  \"arenas\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[256];
    json += "    {\"name\": \"" + r.name + "\", \"n\": " +
            std::to_string(r.n) + ", \"t\": " + std::to_string(r.t) + ", ";
    append_score(&json, "analytic", r.analytic);
    json += ", ";
    append_score(&json, "discovered", r.discovered);
    std::snprintf(buf, sizeof buf,
                  ", \"schedule_ops\": %zu, \"evaluated\": %llu, "
                  "\"rejected\": %llu, \"accepted\": %llu, "
                  "\"improved\": %llu, \"search_ms\": %.1f}",
                  r.ops,
                  static_cast<unsigned long long>(r.stats.evaluated),
                  static_cast<unsigned long long>(r.stats.rejected),
                  static_cast<unsigned long long>(r.stats.accepted),
                  static_cast<unsigned long long>(r.stats.improved),
                  r.search_ms);
    json += buf;
    json += i + 1 < rows.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
