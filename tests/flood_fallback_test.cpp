// FloodFallback in isolation, driven by a miniature synchronous bus with a
// pluggable drop rule (omission faults).
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/flood_fallback.h"
#include "support/check.h"

namespace omx::core {
namespace {

struct Wire {
  std::uint32_t from, to;
  Msg msg;
};

/// Runs the fallback to completion; drop(from, to, round) => omit.
void drive(FloodFallback& fb, std::uint32_t n,
           const std::function<bool(std::uint32_t, std::uint32_t,
                                    std::uint32_t)>& drop) {
  std::vector<Wire> wire, next_wire;
  for (std::uint32_t r = 0; r < fb.total_rounds(); ++r) {
    next_wire.clear();
    for (std::uint32_t m = 0; m < n; ++m) {
      std::vector<In> inbox;
      for (const auto& w : wire) {
        if (w.to == m) inbox.push_back(In{w.from, &w.msg});
      }
      FnOutbox out(n, m, [&](std::uint32_t to, Msg msg) {
        if (!drop(m, to, r)) next_wire.push_back(Wire{m, to, std::move(msg)});
      });
      fb.step(m, r, inbox, out);
    }
    wire.swap(next_wire);
  }
}

TEST(FloodFallback, UnanimousParticipantsDecideTheirValue) {
  for (std::uint8_t v : {0, 1}) {
    FloodFallback fb(6, 2);
    for (std::uint32_t m = 0; m < 6; ++m) fb.set_participant(m, v);
    drive(fb, 6, [](auto, auto, auto) { return false; });
    for (std::uint32_t m = 0; m < 6; ++m) {
      ASSERT_TRUE(fb.has_decision(m));
      EXPECT_EQ(fb.decision(m), v);
    }
  }
}

TEST(FloodFallback, MajorityWinsOnMixedInputs) {
  FloodFallback fb(7, 2);
  for (std::uint32_t m = 0; m < 7; ++m) fb.set_participant(m, m < 5 ? 1 : 0);
  drive(fb, 7, [](auto, auto, auto) { return false; });
  for (std::uint32_t m = 0; m < 7; ++m) {
    ASSERT_TRUE(fb.has_decision(m));
    EXPECT_EQ(fb.decision(m), 1);
  }
}

TEST(FloodFallback, TieBreaksToZero) {
  FloodFallback fb(4, 1);
  for (std::uint32_t m = 0; m < 4; ++m) fb.set_participant(m, m % 2);
  drive(fb, 4, [](auto, auto, auto) { return false; });
  for (std::uint32_t m = 0; m < 4; ++m) {
    ASSERT_TRUE(fb.has_decision(m));
    EXPECT_EQ(fb.decision(m), 0);
  }
}

TEST(FloodFallback, NonParticipantsLearnFromDecisionBroadcast) {
  FloodFallback fb(5, 1);
  fb.set_participant(0, 1);
  fb.set_participant(1, 1);
  drive(fb, 5, [](auto, auto, auto) { return false; });
  for (std::uint32_t m = 0; m < 5; ++m) {
    ASSERT_TRUE(fb.has_decision(m)) << m;
    EXPECT_EQ(fb.decision(m), 1);
  }
}

// A member's views are sized when it registers, and an unsized view reads
// as full. A non-participant must still report a live inbox (so callers
// walk it for the decision broadcast), ignore flood traffic and never
// relay; a participant holding every pair may skip its flood inboxes.
TEST(FloodFallback, NonParticipantKeepsNoViewsAndIgnoresFloodTraffic) {
  const std::uint32_t n = 5, t = 1;
  FloodFallback fb(n, t);
  for (std::uint32_t m = 1; m < n; ++m) fb.set_participant(m, 1);
  for (std::uint32_t fr = 0; fr < fb.total_rounds(); ++fr) {
    EXPECT_FALSE(fb.inbox_is_noop(0, fr)) << fr;
  }
  std::uint32_t sent_by_0 = 0;
  drive(fb, n, [&](std::uint32_t from, std::uint32_t, std::uint32_t) {
    sent_by_0 += from == 0 ? 1 : 0;
    return false;
  });
  EXPECT_EQ(sent_by_0, 0u);
  EXPECT_FALSE(fb.participant(0));
  EXPECT_FALSE(fb.inbox_is_noop(0, 0));
  ASSERT_TRUE(fb.has_decision(0));
  EXPECT_EQ(fb.decision(0), 1);

  FloodFallback all(n, t);
  for (std::uint32_t m = 0; m < n; ++m) all.set_participant(m, m % 2);
  EXPECT_FALSE(all.inbox_is_noop(0, 0));  // knows only its own pair
  drive(all, n, [](auto, auto, auto) { return false; });
  for (std::uint32_t m = 0; m < n; ++m) {
    EXPECT_TRUE(all.inbox_is_noop(m, t + 1)) << m;
    EXPECT_FALSE(all.inbox_is_noop(m, t + 2)) << m;  // decision round
  }
}

TEST(FloodFallback, AgreementSurvivesOmissionsOnFaultyChains) {
  // t = 2 faulty senders {0, 1} that only talk to process 2; flooding must
  // still equalize the pair sets among all participants within t+1 rounds.
  FloodFallback fb(8, 2);
  for (std::uint32_t m = 0; m < 8; ++m) fb.set_participant(m, m < 2 ? 0 : 1);
  auto drop = [](std::uint32_t from, std::uint32_t to, std::uint32_t) {
    return (from <= 1 && to != 2) || (to <= 1 && from != 2);
  };
  drive(fb, 8, drop);
  std::uint8_t seen = 255;
  for (std::uint32_t m = 2; m < 8; ++m) {  // non-faulty
    ASSERT_TRUE(fb.has_decision(m));
    if (seen == 255) seen = fb.decision(m);
    EXPECT_EQ(fb.decision(m), seen);
  }
  EXPECT_EQ(seen, 1);  // majority of collected pairs is 1 regardless
}

TEST(FloodFallback, ValidityUnderFaultyDissenters) {
  // All non-faulty start 1; the t=2 faulty hold 0 and try to smuggle it in.
  // Majority rule keeps the decision at 1.
  FloodFallback fb(10, 2);
  for (std::uint32_t m = 0; m < 10; ++m)
    fb.set_participant(m, m < 2 ? 0 : 1);
  auto drop = [](std::uint32_t from, std::uint32_t to, std::uint32_t r) {
    // Faulty 0/1 whisper to a single process late, to maximize confusion.
    if (from <= 1) return !(to == 5 && r == 2);
    return false;
  };
  drive(fb, 10, drop);
  for (std::uint32_t m = 2; m < 10; ++m) {
    ASSERT_TRUE(fb.has_decision(m));
    EXPECT_EQ(fb.decision(m), 1);
  }
}

TEST(FloodFallback, StepValidatesRoundRange) {
  FloodFallback fb(2, 0);
  std::vector<In> empty;
  FnOutbox out(2, 0, [](std::uint32_t, Msg) {});
  EXPECT_THROW(fb.step(0, fb.total_rounds(), empty, out), PreconditionError);
}

TEST(FloodFallback, DecisionQueryRequiresDecision) {
  FloodFallback fb(2, 0);
  EXPECT_FALSE(fb.has_decision(0));
  EXPECT_THROW(fb.decision(0), PreconditionError);
}

TEST(FloodFallback, TotalRoundsIsTPlusThree) {
  EXPECT_EQ(FloodFallback(4, 0).total_rounds(), 3u);
  EXPECT_EQ(FloodFallback(4, 5).total_rounds(), 8u);
}

}  // namespace
}  // namespace omx::core
