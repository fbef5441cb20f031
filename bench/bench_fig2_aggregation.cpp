// Experiment FIG2 — Figure 2 (tree relay inside one group) and
// Lemmas 1-2: GroupBitsAggregation runs in O(log n) rounds and costs
// O(n·log²n) bits per group; GroupBitsSpreading costs O(n^{3/2}·log²n)
// per epoch in total.
//
// We attach a passive "wiretap" adversary (full information, zero
// interference) that tallies every in-flight message by kind, attributes
// aggregation traffic to the sender's group, and reports the measured
// per-group / per-epoch costs next to the lemma bounds. A second table
// shows the operative-downgrade behaviour of the 3-round relay when a
// group is attacked.
#include <cmath>
#include <iostream>
#include <map>
#include <vector>

#include "adversary/strategies.h"
#include "core/optimal_core.h"
#include "core/params.h"
#include "expsup/table.h"
#include "groups/partition.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "rng/ledger.h"
#include "sim/runner.h"

using namespace omx;

namespace {

struct Tally {
  std::uint64_t count = 0;
  std::uint64_t bits = 0;
};

/// Passive adversary: tallies messages by payload kind; never interferes.
class Wiretap final : public sim::Adversary<core::Msg> {
 public:
  explicit Wiretap(std::uint32_t group_width) : width_(group_width) {}

  void intervene(sim::AdversaryContext<core::Msg>& ctx) override {
    ctx.for_each_message([&](sim::ProcessId from, sim::ProcessId,
                             const core::Msg& payload) {
      const std::uint64_t bits = core::bit_size(payload);
      const char* kind = std::visit(
          [](const auto& p) -> const char* {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, core::RelayPush>) return "push";
            else if constexpr (std::is_same_v<T, core::RelayAck>) return "ack";
            else if constexpr (std::is_same_v<T, core::RelayShare>)
              return "share";
            else if constexpr (std::is_same_v<T, core::SpreadMsg>)
              return "spread";
            else if constexpr (std::is_same_v<T, core::DecisionMsg>)
              return "decision";
            else if constexpr (std::is_same_v<T, core::PackedFloodMsg>)
              return "flood";
            else return "gossip";
          },
          payload);
      auto& t = by_kind_[kind];
      t.count += 1;
      t.bits += bits;
      if (kind[0] == 'p' || kind[0] == 'a' || kind[0] == 's') {
        if (kind[1] != 'p') {  // push/ack/share (not spread)
          group_bits_.resize(
              std::max<std::size_t>(group_bits_.size(), from / width_ + 1));
          group_bits_[from / width_] += bits;
        }
      }
    });
  }

  std::map<std::string, Tally> by_kind_;
  std::vector<std::uint64_t> group_bits_;
  std::uint32_t width_;
};

}  // namespace

int run_bench() {
  harness::Sweep sweep;
  const std::uint32_t n = 1024;
  const std::uint32_t t = core::Params::max_t_optimal(n);
  const core::Params params;

  core::OptimalConfig mc;
  mc.t = t;
  auto inputs = harness::make_inputs(harness::InputPattern::Half, n, 1);
  core::OptimalMachine machine(mc, inputs);
  rng::Ledger ledger(n, 1);
  groups::SqrtPartition part(n);
  Wiretap tap(part.max_group_size());
  sim::Runner<core::Msg> runner(n, t, &ledger, &tap);
  machine.set_fault_view(&runner.faults());
  runner.run(machine);

  const auto& core_ref = machine.core();
  const std::uint32_t epochs = core_ref.epochs_total();
  const double logn = std::log2(static_cast<double>(n));

  expsup::Table table("Figure 2 / Lemmas 1-2 — per-kind message costs, n=1024",
                      {"kind", "messages", "bits", "bits/epoch"});
  for (const auto& [kind, tally] : tap.by_kind_) {
    table.add_row({kind, expsup::Table::num(tally.count),
                   expsup::Table::num(tally.bits),
                   expsup::Table::num(static_cast<double>(tally.bits) /
                                      epochs)});
  }
  table.print(std::cout);

  // Lemma 2: per-group aggregation bits per epoch <= O(n log^2 n).
  std::uint64_t worst_group = 0;
  for (auto b : tap.group_bits_) worst_group = std::max(worst_group, b);
  const double per_group_epoch =
      static_cast<double>(worst_group) / epochs;
  expsup::Table lemma2("Lemma 2 — aggregation cost per group per epoch",
                       {"measured (worst group)", "n*log^2 n",
                        "ratio (the O(1) constant)"});
  lemma2.add_row({expsup::Table::num(per_group_epoch),
                  expsup::Table::num(n * logn * logn),
                  expsup::Table::num(per_group_epoch / (n * logn * logn))});
  lemma2.print(std::cout);

  // Rounds per epoch: 3 relay rounds per tree layer + spreading.
  const groups::TreeDecomposition tree(part.max_group_size());
  expsup::Table rounds("Figure 2 — epoch round budget (O(log n) claim)",
                       {"tree layers", "agg rounds 3(L-1)", "spread rounds",
                        "epoch rounds", "ceil(log2 n)"});
  rounds.add_row(
      {expsup::Table::num(std::uint64_t{tree.num_layers()}),
       expsup::Table::num(std::uint64_t{3 * (tree.num_layers() - 1)}),
       expsup::Table::num(std::uint64_t{params.spread_rounds(n)}),
       expsup::Table::num(std::uint64_t{core_ref.epoch_rounds()}),
       expsup::Table::num(std::uint64_t{static_cast<std::uint64_t>(logn)})});
  rounds.print(std::cout);

  // Operative downgrade under a concentrated in-group attack (Figure 2's
  // "process c does not communicate" scenario, scaled up).
  expsup::Table downgrade(
      "Figure 2 — operative downgrades when whole groups are silenced",
      {"n", "t (silenced)", "operative at end", "n - 3t (Lemma 7 floor)"});
  for (std::uint32_t nn : {256u, 1024u}) {
    harness::ExperimentConfig cfg;
    cfg.n = nn;
    cfg.t = core::Params::max_t_optimal(nn);
    cfg.attack = harness::Attack::GroupKiller;
    cfg.inputs = harness::InputPattern::Random;
    const auto r = sweep.run(cfg).result;
    downgrade.add_row({expsup::Table::num(std::uint64_t{nn}),
                       expsup::Table::num(std::uint64_t{cfg.t}),
                       expsup::Table::num(std::uint64_t{r.operative_end}),
                       expsup::Table::num(std::uint64_t{nn - 3 * cfg.t})});
  }
  downgrade.print(std::cout);
  sweep.print_summary(std::cerr);
  return 0;
}

int main() { return harness::guarded_main(run_bench); }
