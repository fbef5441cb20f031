// Fault-injection referee self-tests: the engine's legality firewall must
// detect every class of illegal adversarial action (sim/fault_injection.h)
// with the precise exception — at thread count 1 and 8 alike, since the
// thread pool rethrows worker exceptions on the calling thread and bounded
// rng budgets force the serial billing path.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "rng/ledger.h"
#include "sim/fault_injection.h"
#include "sim/runner.h"
#include "support/check.h"

namespace omx::sim {
namespace {

using referee::Illegal;
using referee::IllegalActionAdversary;
using referee::OverdrawMachine;

struct Bit {
  std::uint8_t v = 0;
  std::uint64_t bit_size() const { return 1; }
};

/// Broadcasts to *everyone including itself* each round, so the wire always
/// carries both self-deliveries and honest-honest links to attack.
class SelfBroadcastMachine final : public Machine<Bit> {
 public:
  SelfBroadcastMachine(std::uint32_t n, std::uint32_t rounds)
      : n_(n), rounds_(rounds) {}
  std::uint32_t num_processes() const override { return n_; }
  void begin_round(std::uint32_t r) override { cur_ = r; }
  void round(ProcessId /*p*/, RoundIo<Bit>& io) override {
    if (cur_ < rounds_) io.send_to_all(Bit{1}, /*include_self=*/true);
  }
  bool finished() const override { return cur_ + 1 > rounds_; }

 private:
  std::uint32_t n_, rounds_, cur_ = 0;
};

/// Never finishes: food for the watchdog tests.
class StallMachine final : public Machine<Bit> {
 public:
  explicit StallMachine(std::uint32_t n) : n_(n) {}
  std::uint32_t num_processes() const override { return n_; }
  void round(ProcessId, RoundIo<Bit>&) override {}
  bool finished() const override { return false; }

 private:
  std::uint32_t n_;
};

Runner<Bit>::Options with_threads(unsigned threads) {
  Runner<Bit>::Options opts;
  opts.threads = threads;
  return opts;
}

// ---------------------------------------------------------------------------
// The class x thread-count matrix.

class FirewallMatrix
    : public ::testing::TestWithParam<std::tuple<Illegal, unsigned>> {};

const char* expected_substring(Illegal what) {
  switch (what) {
    case Illegal::HonestLinkDrop:
      return "between two non-corrupted processes";
    case Illegal::BudgetOverrun:
      return "corruption budget exceeded";
    case Illegal::SelfDeliveryDrop:
      return "omitted the self-delivery";
    case Illegal::WrongRoundDelivery:
      return "appeared on the wire after the computation phase was sealed";
  }
  return "?";
}

TEST_P(FirewallMatrix, EveryIllegalActionThrowsAdversaryViolation) {
  const auto [what, threads] = GetParam();
  const std::uint32_t n = 8;
  rng::Ledger ledger(n, 1);
  IllegalActionAdversary<Bit> adv(what);
  Runner<Bit> runner(n, /*t=*/2, &ledger, &adv, with_threads(threads));
  SelfBroadcastMachine m(n, 3);
  try {
    runner.run(m);
    FAIL() << "firewall hole: illegal action '" << referee::to_string(what)
           << "' went undetected at threads=" << threads;
  } catch (const AdversaryViolation& e) {
    EXPECT_TRUE(adv.fired());
    EXPECT_NE(std::string(e.what()).find(expected_substring(what)),
              std::string::npos)
        << "unexpected message: " << e.what();
    // Context enrichment: the violation names the round it happened in.
    EXPECT_NE(std::string(e.what()).find("round 0"), std::string::npos)
        << "missing round context: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, FirewallMatrix,
    ::testing::Combine(::testing::Values(Illegal::HonestLinkDrop,
                                         Illegal::BudgetOverrun,
                                         Illegal::SelfDeliveryDrop,
                                         Illegal::WrongRoundDelivery),
                       ::testing::Values(1u, 8u)),
    [](const auto& info) {
      std::string name = referee::to_string(std::get<0>(info.param));
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_threads" + std::to_string(std::get<1>(info.param));
    });

// A legal adversary driven through the same machine must NOT trip the
// audit: corrupt one process, silence it, run to completion.
class LegalOmissionAdversary final : public Adversary<Bit> {
 public:
  void intervene(AdversaryContext<Bit>& ctx) override {
    ctx.corrupt(0);
    ctx.silence(0);
  }
};

TEST(Firewall, LegalOmissionsPassTheAudit) {
  for (const unsigned threads : {1u, 8u}) {
    const std::uint32_t n = 8;
    rng::Ledger ledger(n, 1);
    LegalOmissionAdversary adv;
    Runner<Bit> runner(n, 2, &ledger, &adv, with_threads(threads));
    SelfBroadcastMachine m(n, 3);
    const auto rr = runner.run(m);
    EXPECT_FALSE(rr.hit_round_cap);
    EXPECT_EQ(rr.metrics.corrupted, 1u);
    EXPECT_GT(rr.metrics.omitted, 0u);
  }
}

// Several illegal drops, made through the backdoor in descending index
// order: the audit walks omissions in ascending index order, so it reports
// the lowest-index one.
class ManyIllegalDropsAdversary final : public Adversary<Bit> {
 public:
  explicit ManyIllegalDropsAdversary(bool self_first)
      : self_first_(self_first) {}
  void intervene(AdversaryContext<Bit>& ctx) override {
    MessagePlane<Bit>* plane = referee::Backdoor::plane(ctx);
    // SelfBroadcastMachine: p's message to q is logical index p*n + q.
    const std::uint32_t n = plane->num_processes();
    plane->mark_dropped(5 * n + 5);  // self-delivery of 5
    plane->mark_dropped(4 * n + 6);  // 4->6
    plane->mark_dropped(3 * n + 7);  // 3->7
    if (self_first_) plane->mark_dropped(2 * n + 2);  // self-delivery of 2
  }

 private:
  bool self_first_;
};

TEST(Firewall, AuditReportsTheLowestIndexViolation) {
  for (const unsigned threads : {1u, 8u}) {
    for (const bool self_first : {false, true}) {
      const std::uint32_t n = 8;
      rng::Ledger ledger(n, 1);
      ManyIllegalDropsAdversary adv(self_first);
      Runner<Bit> runner(n, 2, &ledger, &adv, with_threads(threads));
      SelfBroadcastMachine m(n, 3);
      try {
        runner.run(m);
        FAIL() << "illegal drops went undetected at threads=" << threads;
      } catch (const AdversaryViolation& e) {
        EXPECT_EQ(std::string(e.what()),
                  self_first
                      ? "round 0: omitted the self-delivery of process 2"
                      : "round 0: omitted message 3->7 between two "
                        "non-corrupted processes")
            << "threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// rng ledger overdraft: protocol code that ignores can_draw() must surface
// BudgetExhausted at the exact same draw regardless of thread count
// (bounded budgets force the serial billing path).

TEST(Firewall, LedgerOverdraftThrowsBudgetExhaustedAtAnyThreadCount) {
  std::string what_serial;
  for (const unsigned threads : {1u, 8u}) {
    const std::uint32_t n = 8;
    rng::Ledger ledger(n, 1);
    ledger.set_bit_budget(64);  // exactly one 64-bit draw fits
    Adversary<Bit> benign;
    Runner<Bit> runner(n, 2, &ledger, &benign, with_threads(threads));
    SelfBroadcastMachine inner(n, 3);
    OverdrawMachine<Bit> m(&inner, /*who=*/0, /*draws_per_round=*/4);
    try {
      runner.run(m);
      FAIL() << "overdraft went unnoticed at threads=" << threads;
    } catch (const rng::BudgetExhausted& e) {
      const std::string what = e.what();
      // The message carries the accounting context.
      EXPECT_NE(what.find("process 0"), std::string::npos) << what;
      EXPECT_NE(what.find("bit budget 64"), std::string::npos) << what;
      if (threads == 1) {
        what_serial = what;
      } else {
        EXPECT_EQ(what, what_serial)
            << "exhaustion point depends on thread count";
      }
    }
  }
}

// A racked (parallel) round whose draws exceed the per-source slack bound
// promised to the ledger must fail loudly (InvariantError), never silently
// diverge from serial semantics. Serial runs of the same workload are fine.
TEST(Firewall, RackedSlackViolationIsLoud) {
  const std::uint32_t n = 8;
  // 70 x 64 bits = 4480 > the runner's default 4096-bit slack; the huge
  // finite budget keeps racked_admissible() true so the round goes racked.
  const auto run_with = [&](unsigned threads) {
    rng::Ledger ledger(n, 1);
    ledger.set_bit_budget(std::uint64_t{1} << 40);
    Adversary<Bit> benign;
    Runner<Bit> runner(n, 2, &ledger, &benign, with_threads(threads));
    SelfBroadcastMachine inner(n, 2);
    OverdrawMachine<Bit> m(&inner, /*who=*/3, /*draws_per_round=*/70);
    return runner.run(m);
  };
  EXPECT_NO_THROW(run_with(1));  // serial billing: no slack promise to break
  try {
    run_with(8);
    FAIL() << "slack violation in a racked phase went unnoticed";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("per-source slack"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Cooperative watchdog: a stalled protocol degrades into hit_deadline
// instead of spinning until the round cap.

TEST(Watchdog, DeadlineStopsAStalledRun) {
  const std::uint32_t n = 4;
  rng::Ledger ledger(n, 1);
  Adversary<Bit> benign;
  Runner<Bit>::Options opts;
  opts.deadline = std::chrono::milliseconds(20);
  opts.max_rounds = std::uint64_t{1} << 60;  // the cap must not be what stops us
  Runner<Bit> runner(n, 1, &ledger, &benign, opts);
  StallMachine m(n);
  const auto rr = runner.run(m);
  EXPECT_TRUE(rr.hit_deadline);
  EXPECT_FALSE(rr.hit_round_cap);
  EXPECT_GT(rr.metrics.rounds, 0u);  // it did make round progress first
}

TEST(Watchdog, ZeroDeadlineMeansNoWatchdog) {
  const std::uint32_t n = 4;
  rng::Ledger ledger(n, 1);
  Adversary<Bit> benign;
  Runner<Bit>::Options opts;
  opts.max_rounds = 64;  // the cap, not a deadline, ends this run
  Runner<Bit> runner(n, 1, &ledger, &benign, opts);
  StallMachine m(n);
  const auto rr = runner.run(m);
  EXPECT_FALSE(rr.hit_deadline);
  EXPECT_TRUE(rr.hit_round_cap);
  EXPECT_EQ(rr.metrics.rounds, 64u);
}

}  // namespace
}  // namespace omx::sim
