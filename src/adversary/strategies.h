// Concrete adversary strategies.
//
// All strategies are payload-generic templates: they act on message
// endpoints and (optionally) on machine state via probes, never on payload
// internals, so every strategy composes with every protocol.
//
//   NullAdversary          — benign network.
//   StaticCrashAdversary   — scripted crash schedule (crash ⊂ omission §2).
//   RandomOmissionAdversary— corrupt a random set up-front, drop each of
//                            their messages i.i.d. with probability q.
//   SplitBrainAdversary    — corrupted senders are heard by only half the
//                            network: maximizes count divergence across
//                            receivers (the attack §B.3 says breaks
//                            crash-model doubling/counting schemes).
//   GroupKillerAdversary   — concentrates corruption on whole √n-groups and
//                            silences them (stresses GroupBitsAggregation).
//   CoinHidingAdversary    — the Theorem 2 strategy: full-information, sees
//                            freshly drawn votes, silences ~√(r·log n)
//                            processes per voting step to keep the global
//                            count inside the algorithm's dead zone.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "adversary/probes.h"
#include "rng/ledger.h"
#include "sim/adversary.h"
#include "support/bits.h"
#include "support/prng.h"

namespace omx::adversary {

template <class P>
class NullAdversary final : public sim::Adversary<P> {
 public:
  void intervene(sim::AdversaryContext<P>&) override {}
};

/// Crash process p at round r: from round r on, all of p's messages (both
/// directions) are omitted. A legal omission strategy (see §2).
template <class P>
class StaticCrashAdversary final : public sim::Adversary<P> {
 public:
  struct Crash {
    sim::ProcessId process;
    std::uint32_t round;
  };

  explicit StaticCrashAdversary(std::vector<Crash> schedule)
      : schedule_(std::move(schedule)) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    due_.clear();
    for (const Crash& c : schedule_) {
      if (ctx.round() >= c.round && ctx.corrupt(c.process)) {
        due_.push_back(c.process);
      }
    }
    ctx.silence_many(due_);
  }

 private:
  std::vector<Crash> schedule_;
  std::vector<sim::ProcessId> due_;
};

/// Which side of a faulty process's links the adversary attacks. The paper
/// studies *general* omissions (both); send-/receive-only are the weaker
/// classical variants (cf. [33], [34]) — useful as ablations.
enum class OmissionMode { General, SendOnly, ReceiveOnly };

/// Corrupt `num_faulty` uniformly chosen processes up-front; each message on
/// their links is dropped i.i.d. with probability `drop_prob`.
template <class P>
class RandomOmissionAdversary final : public sim::Adversary<P> {
 public:
  RandomOmissionAdversary(std::uint32_t n, std::uint32_t num_faulty,
                          double drop_prob, std::uint64_t seed,
                          OmissionMode mode = OmissionMode::General)
      : drop_prob_(drop_prob), mode_(mode), gen_(seed) {
    std::vector<sim::ProcessId> ids(n);
    for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
    for (std::uint32_t i = 0; i < num_faulty && i < n; ++i) {
      const auto j = i + static_cast<std::uint32_t>(gen_.below(n - i));
      std::swap(ids[i], ids[j]);
      faulty_.push_back(ids[i]);
    }
  }

  void intervene(sim::AdversaryContext<P>& ctx) override {
    if (!corrupted_done_) {
      for (auto p : faulty_) ctx.corrupt(p);
      corrupted_done_ = true;
    }
    // One bernoulli draw per attackable message — sent by a faulty process
    // unless receive-only, addressed to one unless send-only — in
    // ascending index order.
    const sim::ProcessSet none;
    ctx.drop_links(
        mode_ == OmissionMode::ReceiveOnly ? none : ctx.corrupted(),
        mode_ == OmissionMode::SendOnly ? none : ctx.corrupted(),
        [this](sim::ProcessId, sim::ProcessId) {
          return gen_.bernoulli(drop_prob_);
        });
  }

 private:
  double drop_prob_;
  OmissionMode mode_;
  Xoshiro256 gen_;
  std::vector<sim::ProcessId> faulty_;
  bool corrupted_done_ = false;
};

/// Corrupted senders deliver only to the lower half of the id space, and
/// receive only from it — two halves of the network see inconsistent counts.
template <class P>
class SplitBrainAdversary final : public sim::Adversary<P> {
 public:
  SplitBrainAdversary(std::uint32_t n, std::vector<sim::ProcessId> faulty)
      : half_(n / 2), faulty_(std::move(faulty)) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    if (!corrupted_done_) {
      for (auto p : faulty_) ctx.corrupt(p);
      corrupted_done_ = true;
    }
    // Corrupted endpoints talk only to/fro the lower half.
    const std::uint32_t half = half_;
    ctx.drop_links(ctx.corrupted(), ctx.corrupted(),
                   [&ctx, half](sim::ProcessId from, sim::ProcessId to) {
                     return (ctx.is_corrupted(from) && to >= half) ||
                            (ctx.is_corrupted(to) && from >= half);
                   });
  }

 private:
  std::uint32_t half_;
  std::vector<sim::ProcessId> faulty_;
  bool corrupted_done_ = false;
};

/// Receive-starvation: corrupt the given victims and drop EVERY message
/// addressed to them. Against crash-amortized "double your contacts when
/// responses go missing" schemes this is the §B.3 attack: each victim
/// escalates to interrogating the entire network, forever, at Θ(n)
/// messages per round — while the victims' own (counted!) traffic keeps
/// flowing out.
template <class P>
class StarveReceiversAdversary final : public sim::Adversary<P> {
 public:
  explicit StarveReceiversAdversary(std::vector<sim::ProcessId> victims)
      : victims_(std::move(victims)) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    if (!corrupted_done_) {
      for (auto p : victims_) ctx.corrupt(p);
      corrupted_done_ = true;
    }
    ctx.drop_links(sim::ProcessSet{}, ctx.corrupted(),
                   [](sim::ProcessId, sim::ProcessId) { return true; });
  }

 private:
  std::vector<sim::ProcessId> victims_;
  bool corrupted_done_ = false;
};

/// Fuzzing strategy: a seeded random walk over the space of LEGAL
/// adversarial actions — each round it may corrupt a fresh random process
/// (within budget) and drops each message on a faulty link with a
/// per-round random probability. No strategy in particular, every strategy
/// in expectation: used by the property suites to sweep behaviours the
/// named strategies would miss.
template <class P>
class ChaosAdversary final : public sim::Adversary<P> {
 public:
  ChaosAdversary(std::uint32_t n, std::uint64_t seed, double corrupt_rate = 0.1)
      : n_(n), corrupt_rate_(corrupt_rate), gen_(seed) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    if (ctx.remaining_budget() > 0 && gen_.bernoulli(corrupt_rate_)) {
      ctx.corrupt(static_cast<sim::ProcessId>(gen_.below(n_)));
    }
    const double drop_prob = gen_.uniform01();  // fresh malice every round
    ctx.drop_links(ctx.corrupted(), ctx.corrupted(),
                   [this, drop_prob](sim::ProcessId, sim::ProcessId) {
                     return gen_.bernoulli(drop_prob);
                   });
  }

 private:
  std::uint32_t n_;
  double corrupt_rate_;
  Xoshiro256 gen_;
};

/// Silence whole groups of the provided partition, greedily from the first,
/// as far as the budget allows. Stresses intra-group counting.
template <class P>
class GroupKillerAdversary final : public sim::Adversary<P> {
 public:
  explicit GroupKillerAdversary(std::vector<std::vector<sim::ProcessId>> groups)
      : groups_(std::move(groups)) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    if (!picked_) {
      // Fill the whole budget, concentrated on as few groups as possible
      // (a partial last group is fine — the point is to starve the
      // intra-group counting of whole √n-groups at once).
      for (const auto& g : groups_) {
        for (auto p : g) {
          if (ctx.remaining_budget() == 0) break;
          if (ctx.corrupt(p)) victims_.push_back(p);
        }
        if (ctx.remaining_budget() == 0) break;
      }
      picked_ = true;
    }
    ctx.silence_many(victims_);
  }

 private:
  std::vector<std::vector<sim::ProcessId>> groups_;
  std::vector<sim::ProcessId> victims_;
  bool picked_ = false;
};

/// Theorem-2 strategy. Whenever the probed machine reports fresh votes, the
/// adversary counts 1-votes among participating processes and silences up to
/// allowance(r) = ceil(hide_factor * sqrt(max(r,1) * log2 n)) + 1 processes
/// whose values would push the global fraction of ones out of
/// [lo_frac, hi_frac] — the biased-majority dead zone — where r is the
/// number of random-source calls made this round (from the ledger).
template <class P>
class CoinHidingAdversary final : public sim::Adversary<P> {
 public:
  struct Config {
    double lo_frac = 0.5;       // dead zone lower edge (15/30)
    double hi_frac = 0.6;       // dead zone upper edge (18/30)
    double hide_factor = 2.0;   // the paper's 16 is a proof constant
  };

  CoinHidingAdversary(const VoteProbe* probe, const rng::Ledger* ledger,
                      Config config = {})
      : probe_(probe), ledger_(ledger), config_(config) {}

  void intervene(sim::AdversaryContext<P>& ctx) override {
    // Crash-style follow-through on earlier victims.
    ctx.silence_many(silenced_);
    // Act whenever votes were just recomputed — including round 0, where
    // the "votes" are the input bits (the adversary of Appendix C plays the
    // coin-flipping game from the very first round).
    if (!probe_->probe_votes_fresh() && ctx.round() != 0) return;

    const std::uint32_t n = probe_->probe_num_processes();
    std::uint64_t ones = 0, total = 0;
    for (sim::ProcessId p = 0; p < n; ++p) {
      if (ctx.is_corrupted(p) || !probe_->probe_counts_in_vote(p)) continue;
      ++total;
      ones += probe_->probe_value(p);
    }
    if (total == 0) return;

    const std::uint64_t r = ledger_->calls_this_window();
    const double logn = std::max(1.0, std::log2(static_cast<double>(n)));
    auto allowance = static_cast<std::uint32_t>(
        std::ceil(config_.hide_factor *
                  std::sqrt(static_cast<double>(std::max<std::uint64_t>(r, 1)) *
                            logn)) +
        1);

    // Silencing a 1-voter: ones-1, total-1. Silencing a 0-voter: total-1.
    // Greedily pull the fraction back inside (lo, hi).
    auto frac = [&]() {
      return static_cast<double>(ones) / static_cast<double>(total);
    };
    std::uint8_t victim_value;
    if (frac() > config_.hi_frac) victim_value = 1;
    else if (frac() < config_.lo_frac) victim_value = 0;
    else return;

    std::uint32_t used = 0;
    for (sim::ProcessId p = 0; p < n && used < allowance; ++p) {
      const bool inside =
          frac() >= config_.lo_frac && frac() <= config_.hi_frac;
      if (inside || total <= 1) break;
      if (ctx.is_corrupted(p) || !probe_->probe_counts_in_vote(p)) continue;
      if (probe_->probe_value(p) != victim_value) continue;
      if (!ctx.corrupt(p)) break;  // budget exhausted
      silenced_.push_back(p);
      ctx.silence(p);
      ++used;
      total -= 1;
      if (victim_value == 1) ones -= 1;
    }
  }

  std::uint32_t victims() const {
    return static_cast<std::uint32_t>(silenced_.size());
  }

 private:
  const VoteProbe* probe_;
  const rng::Ledger* ledger_;
  Config config_;
  std::vector<sim::ProcessId> silenced_;
};

}  // namespace omx::adversary
