#include "harness/experiment.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "adversary/schedule.h"
#include "adversary/strategies.h"
#include "baselines/ben_or.h"
#include "baselines/flood_set.h"
#include "core/optimal_core.h"
#include "core/param_consensus.h"
#include "graph/comm_graph.h"
#include "groups/partition.h"
#include "sim/runner.h"
#include "support/bits.h"
#include "support/check.h"
#include "support/prng.h"
#include "trace/trace.h"

namespace omx::harness {

const char* to_string(Algo a) {
  switch (a) {
    case Algo::Optimal: return "optimal";
    case Algo::Param: return "param";
    case Algo::FloodSet: return "floodset";
    case Algo::BenOr: return "benor";
  }
  return "?";
}

const char* to_string(Attack a) {
  switch (a) {
    case Attack::None: return "none";
    case Attack::StaticCrash: return "crash";
    case Attack::RandomOmission: return "rand-omit";
    case Attack::SendOmission: return "send-omit";
    case Attack::SplitBrain: return "split-brain";
    case Attack::GroupKiller: return "group-killer";
    case Attack::CoinHiding: return "coin-hiding";
    case Attack::Chaos: return "chaos";
    case Attack::Schedule: return "schedule";
  }
  return "?";
}

const char* to_string(InputPattern p) {
  switch (p) {
    case InputPattern::AllZero: return "all-0";
    case InputPattern::AllOne: return "all-1";
    case InputPattern::Half: return "half";
    case InputPattern::Random: return "random";
    case InputPattern::OneDissent: return "one-dissent";
    case InputPattern::Alternating: return "alternating";
  }
  return "?";
}

bool algo_from_string(const std::string& s, Algo* out) {
  for (auto a : {Algo::Optimal, Algo::Param, Algo::FloodSet, Algo::BenOr}) {
    if (s == to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool attack_from_string(const std::string& s, Attack* out) {
  for (auto a : {Attack::None, Attack::StaticCrash, Attack::RandomOmission,
                 Attack::SendOmission, Attack::SplitBrain,
                 Attack::GroupKiller, Attack::CoinHiding, Attack::Chaos,
                 Attack::Schedule}) {
    if (s == to_string(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool inputs_from_string(const std::string& s, InputPattern* out) {
  for (auto p : {InputPattern::AllZero, InputPattern::AllOne,
                 InputPattern::Half, InputPattern::Random,
                 InputPattern::OneDissent, InputPattern::Alternating}) {
    if (s == to_string(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

std::vector<std::uint8_t> make_inputs(InputPattern pattern, std::uint32_t n,
                                      std::uint64_t seed) {
  std::vector<std::uint8_t> inputs(n, 0);
  switch (pattern) {
    case InputPattern::AllZero:
      break;
    case InputPattern::AllOne:
      std::fill(inputs.begin(), inputs.end(), 1);
      break;
    case InputPattern::Half:
      for (std::uint32_t p = 0; p < n / 2; ++p) inputs[p] = 1;
      break;
    case InputPattern::Random: {
      Xoshiro256 gen(mix64(seed, 0x1219u));
      for (auto& b : inputs) b = gen.bernoulli(0.5) ? 1 : 0;
      break;
    }
    case InputPattern::OneDissent:
      std::fill(inputs.begin(), inputs.end(), 1);
      inputs[0] = 0;
      break;
    case InputPattern::Alternating:
      for (std::uint32_t p = 0; p < n; ++p) inputs[p] = p & 1;
      break;
  }
  return inputs;
}

namespace {

using Msg = core::Msg;

std::unique_ptr<sim::Adversary<Msg>> make_adversary(
    const ExperimentConfig& cfg, const adversary::VoteProbe* probe,
    const rng::Ledger* ledger, std::uint32_t schedule_hint) {
  switch (cfg.attack) {
    case Attack::None:
      return std::make_unique<adversary::NullAdversary<Msg>>();
    case Attack::StaticCrash: {
      // Stagger t crashes across the first ~2/3 of the schedule.
      Xoshiro256 gen(mix64(cfg.seed, 0xCCu));
      std::vector<sim::ProcessId> ids(cfg.n);
      for (std::uint32_t i = 0; i < cfg.n; ++i) ids[i] = i;
      std::vector<adversary::StaticCrashAdversary<Msg>::Crash> schedule;
      const std::uint32_t horizon =
          std::max<std::uint32_t>(1, schedule_hint * 2 / 3);
      for (std::uint32_t i = 0; i < cfg.t && i < cfg.n; ++i) {
        const auto j = i + static_cast<std::uint32_t>(gen.below(cfg.n - i));
        std::swap(ids[i], ids[j]);
        schedule.push_back(
            {ids[i], static_cast<std::uint32_t>(gen.below(horizon))});
      }
      return std::make_unique<adversary::StaticCrashAdversary<Msg>>(
          std::move(schedule));
    }
    case Attack::RandomOmission:
      return std::make_unique<adversary::RandomOmissionAdversary<Msg>>(
          cfg.n, cfg.t, cfg.drop_prob, mix64(cfg.seed, 0x0Au));
    case Attack::SendOmission:
      return std::make_unique<adversary::RandomOmissionAdversary<Msg>>(
          cfg.n, cfg.t, cfg.drop_prob, mix64(cfg.seed, 0x50u),
          adversary::OmissionMode::SendOnly);
    case Attack::SplitBrain: {
      Xoshiro256 gen(mix64(cfg.seed, 0x5Bu));
      std::vector<sim::ProcessId> ids(cfg.n);
      for (std::uint32_t i = 0; i < cfg.n; ++i) ids[i] = i;
      std::vector<sim::ProcessId> faulty;
      for (std::uint32_t i = 0; i < cfg.t && i < cfg.n; ++i) {
        const auto j = i + static_cast<std::uint32_t>(gen.below(cfg.n - i));
        std::swap(ids[i], ids[j]);
        faulty.push_back(ids[i]);
      }
      return std::make_unique<adversary::SplitBrainAdversary<Msg>>(
          cfg.n, std::move(faulty));
    }
    case Attack::GroupKiller: {
      const auto partition = groups::SqrtPartition::shared_for(cfg.n);
      std::vector<std::vector<sim::ProcessId>> gs;
      for (std::uint32_t g = 0; g < partition->num_groups(); ++g) {
        const auto span = partition->members(g);
        gs.emplace_back(span.begin(), span.end());
      }
      return std::make_unique<adversary::GroupKillerAdversary<Msg>>(
          std::move(gs));
    }
    case Attack::CoinHiding: {
      OMX_REQUIRE(probe != nullptr,
                  "coin-hiding attack needs a vote-probing machine");
      return std::make_unique<adversary::CoinHidingAdversary<Msg>>(probe,
                                                                   ledger);
    }
    case Attack::Chaos:
      return std::make_unique<adversary::ChaosAdversary<Msg>>(
          cfg.n, mix64(cfg.seed, 0xC4405u));
    case Attack::Schedule: {
      adversary::Schedule schedule;
      std::string err;
      OMX_REQUIRE(adversary::Schedule::parse(cfg.schedule, &schedule, &err),
                  "bad schedule: " + err);
      return std::make_unique<adversary::ScheduleAdversary<Msg>>(
          std::move(schedule));
    }
  }
  return std::make_unique<adversary::NullAdversary<Msg>>();
}

}  // namespace

void prebuild_shared_artifacts(const ExperimentConfig& cfg) {
  // Process counts whose graph and partition the trial looks up: Algorithm 1
  // runs at n; Algorithm 4 gossips over the graph at n and embeds Algorithm 1
  // in each super-process (all of one width but the last); group-killer
  // reads the partition at n.
  std::vector<std::uint32_t> sizes;
  if (cfg.algo == Algo::Optimal || cfg.algo == Algo::Param ||
      cfg.attack == Attack::GroupKiller) {
    sizes.push_back(cfg.n);
  }
  if (cfg.algo == Algo::Param && cfg.x >= 1 && cfg.x <= cfg.n) {
    const auto width = static_cast<std::uint32_t>(ceil_div(cfg.n, cfg.x));
    const auto last = static_cast<std::uint32_t>(ceil_div(cfg.n, width) - 1);
    sizes.push_back(width);
    sizes.push_back(cfg.n - last * width);
  }
  for (const std::uint32_t m : sizes) {
    if (m == 0) continue;
    (void)groups::SqrtPartition::shared_for(m);
    if (m >= 2) {
      (void)graph::CommGraph::common_for_shared(m, cfg.params.delta(m));
    }
  }
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // The trace file is created before validation, deliberately: a trial that
  // fails its preconditions still leaves a valid (header-only) trace, so
  // the sweep's trace-on-repro capture works uniformly for every
  // model-violation class.
  std::unique_ptr<trace::TraceWriter> tracer;
  if (!cfg.trace_path.empty()) {
    tracer = std::make_unique<trace::TraceWriter>(cfg.trace_path, cfg.n);
  }

  // Validate the whole config eagerly so a bad trial fails here, with the
  // offending values, before any machine or ledger state is built.
  OMX_REQUIRE(cfg.n >= 1, "need at least one process (n=0)");
  OMX_REQUIRE(cfg.t < cfg.n,
              "fault budget must satisfy t < n (t=" + std::to_string(cfg.t) +
                  ", n=" + std::to_string(cfg.n) + ")");
  OMX_REQUIRE(cfg.x >= 1, "super-process count must be >= 1 (x=0)");
  OMX_REQUIRE(cfg.drop_prob >= 0.0 && cfg.drop_prob <= 1.0,
              "drop_prob must lie in [0,1] (drop_prob=" +
                  std::to_string(cfg.drop_prob) + ")");
  OMX_REQUIRE(cfg.explicit_inputs.empty() ||
                  cfg.explicit_inputs.size() == cfg.n,
              "explicit_inputs must have exactly n entries (" +
                  std::to_string(cfg.explicit_inputs.size()) +
                  " given, n=" + std::to_string(cfg.n) + ")");
  auto inputs = cfg.explicit_inputs.empty()
                    ? make_inputs(cfg.inputs, cfg.n, cfg.seed)
                    : cfg.explicit_inputs;

  rng::Ledger ledger(cfg.n, cfg.seed);
  if (cfg.random_bit_budget != rng::kUnlimited) {
    ledger.set_bit_budget(cfg.random_bit_budget);
  }

  // Build the machine.
  std::unique_ptr<sim::Machine<Msg>> machine;
  const adversary::VoteProbe* probe = nullptr;
  core::OptimalMachine* opt = nullptr;
  core::ParamMachine* par = nullptr;
  baselines::FloodSetMachine* flood = nullptr;
  baselines::BenOrMachine* benor = nullptr;
  std::uint32_t schedule_hint = 0;

  switch (cfg.algo) {
    case Algo::Optimal: {
      core::OptimalConfig mc;
      mc.params = cfg.params;
      mc.t = cfg.t;
      auto m = std::make_unique<core::OptimalMachine>(mc, inputs);
      opt = m.get();
      probe = m.get();
      schedule_hint = m->core().scheduled_rounds();
      machine = std::move(m);
      break;
    }
    case Algo::Param: {
      core::ParamConfig mc;
      mc.params = cfg.params;
      mc.t = cfg.t;
      mc.x = cfg.x;
      auto m = std::make_unique<core::ParamMachine>(mc, inputs);
      par = m.get();
      probe = m.get();
      schedule_hint = m->scheduled_rounds();
      machine = std::move(m);
      break;
    }
    case Algo::FloodSet: {
      auto m = std::make_unique<baselines::FloodSetMachine>(cfg.t, inputs);
      flood = m.get();
      schedule_hint = m->scheduled_rounds();
      machine = std::move(m);
      break;
    }
    case Algo::BenOr: {
      baselines::BenOrConfig mc;
      mc.t = cfg.t;
      auto m = std::make_unique<baselines::BenOrMachine>(mc, inputs);
      benor = m.get();
      probe = m.get();
      schedule_hint = m->scheduled_rounds();
      machine = std::move(m);
      break;
    }
  }

  auto adversary = make_adversary(cfg, probe, &ledger, schedule_hint);

  sim::Runner<Msg>::Options opts;
  opts.max_rounds =
      cfg.max_rounds ? cfg.max_rounds : schedule_hint + cfg.n + 16;
  opts.deadline = std::chrono::milliseconds(cfg.deadline_ms);
  opts.stats = cfg.engine_stats;
  opts.threads = cfg.threads;
  opts.trace = tracer.get();
  sim::Runner<Msg> runner(cfg.n, cfg.t, &ledger, adversary.get(), opts);

  // Wire termination to the non-faulty set (the spec's termination clause).
  if (opt) opt->set_fault_view(&runner.faults());
  if (par) par->set_fault_view(&runner.faults());
  if (flood) flood->set_fault_view(&runner.faults());
  if (benor) benor->set_fault_view(&runner.faults());

  const sim::RunResult rr = runner.run(*machine);

  // Verdict over the non-faulty set.
  ExperimentResult res;
  res.metrics = rr.metrics;
  res.hit_round_cap = rr.hit_round_cap;
  res.hit_deadline = rr.hit_deadline;
  res.corrupted = rr.metrics.corrupted;

  auto outcome_of = [&](sim::ProcessId p) -> core::MemberOutcome {
    if (opt) return opt->core().outcome(p);
    if (par) return par->outcome(p);
    if (flood) return flood->outcome(p);
    return benor->outcome(p);
  };

  bool any = false;
  bool all_decided = true;
  bool agree = true;
  std::uint8_t decision = 0;
  std::int64_t last_decision = -1;
  bool uniform_inputs = true;
  std::uint8_t uniform_value = 0;
  bool uniform_init = false;
  for (sim::ProcessId p = 0; p < cfg.n; ++p) {
    if (runner.faults().is_corrupted(p)) continue;
    if (!uniform_init) {
      uniform_init = true;
      uniform_value = inputs[p];
    } else if (inputs[p] != uniform_value) {
      uniform_inputs = false;
    }
    const auto out = outcome_of(p);
    if (!out.decided) {
      all_decided = false;
      continue;
    }
    last_decision = std::max(last_decision, out.decision_round);
    if (!any) {
      any = true;
      decision = out.value;
    } else if (out.value != decision) {
      agree = false;
    }
  }
  res.agreement = any && agree;
  res.all_nonfaulty_decided = all_decided && any;
  res.decision = decision;
  res.validity = !uniform_inputs || !any || decision == uniform_value;
  res.time_rounds = last_decision >= 0
                        ? static_cast<std::uint64_t>(last_decision) + 1
                        : rr.metrics.rounds;
  if (opt) res.operative_end = opt->core().operative_count();
  if (par) res.operative_end = par->operative_count();

  if (tracer != nullptr) {
    // Post-run decision records, in id order; their round field is the
    // decision round (see trace/trace.h on the stream's canonical order).
    for (sim::ProcessId p = 0; p < cfg.n; ++p) {
      const auto out = outcome_of(p);
      if (!out.decided || out.decision_round < 0) continue;
      tracer->emit(trace::Event{
          static_cast<std::uint32_t>(out.decision_round), trace::kDecide, 0,
          p, out.value, static_cast<std::uint64_t>(out.decision_round)});
    }
    tracer->close();
  }
  return res;
}

}  // namespace omx::harness
