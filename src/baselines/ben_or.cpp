#include "baselines/ben_or.h"

#include <cmath>

#include "support/bits.h"
#include "support/check.h"

namespace omx::baselines {

BenOrMachine::BenOrMachine(BenOrConfig config,
                           std::vector<std::uint8_t> inputs)
    : cfg_(config),
      n_(static_cast<std::uint32_t>(inputs.size())),
      fallback_(static_cast<std::uint32_t>(inputs.size()), config.t) {
  OMX_REQUIRE(n_ >= 1, "need at least one process");
  st_.resize(n_);
  for (std::uint32_t p = 0; p < n_; ++p) {
    OMX_REQUIRE(inputs[p] <= 1, "inputs must be bits");
    st_[p].b = inputs[p];
  }
  if (cfg_.round_cap > 0) {
    cap_ = cfg_.round_cap;
  } else {
    const double sqrt_n = std::sqrt(static_cast<double>(n_));
    const auto fault_term = static_cast<std::uint32_t>(
        std::ceil(static_cast<double>(cfg_.t) / sqrt_n)) + 1;
    cap_ = 4 * fault_term * std::max<std::uint32_t>(1, ceil_log2(n_));
  }
  fallback_start_ = cap_;
  total_rounds_ = fallback_start_ + fallback_.total_rounds();
}

void BenOrMachine::begin_round(std::uint32_t round) {
  cur_round_ = round;
  rounds_seen_ = round + 1;
  votes_fresh_ = round >= 1 && round <= cap_;
}

void BenOrMachine::decide(sim::ProcessId p, std::uint8_t value) {
  auto& s = st_[p];
  OMX_CHECK(!s.terminated, "double decision");
  s.terminated = true;
  s.decision = value;
  s.b = value;
  s.decision_round = static_cast<std::int64_t>(cur_round_);
  terminated_count_.fetch_add(1, std::memory_order_relaxed);
}

void BenOrMachine::round(sim::ProcessId p, sim::RoundIo<core::Msg>& io) {
  auto& s = st_[p];
  if (s.terminated) return;
  const std::uint32_t r = cur_round_;

  if (r > fallback_start_) {
    // Fallback regime: decision gossip still short-circuits.
    auto& scratch = scratch_[io.lane()];
    scratch.clear();
    bool gossip_decided = false;
    io.for_each_in([&](sim::ProcessId from, const core::Msg& payload) {
      if (gossip_decided) return;
      if (const auto* gm = std::get_if<core::GossipMsg>(&payload)) {
        if (gm->value >= 0 && !s.terminated) {
          decide(p, static_cast<std::uint8_t>(gm->value));
          gossip_decided = true;
        }
      } else {
        scratch.push_back(core::In{from, &payload});
      }
    });
    if (gossip_decided) return;
    core::IoOutbox out(io);
    fallback_.step(p, r - fallback_start_, scratch, out);
    if (fallback_.has_decision(p)) decide(p, fallback_.decision(p));
    return;
  }

  // --- consume the previous voting round ---
  if (r >= 1) {
    std::uint64_t ones = 0, zeros = 0;
    std::int8_t gossip = -1;
    io.for_each_in([&](sim::ProcessId, const core::Msg& payload) {
      if (const auto* dm = std::get_if<core::DecisionMsg>(&payload)) {
        if (dm->value == 1) ++ones;
        else ++zeros;
      } else if (const auto* gm = std::get_if<core::GossipMsg>(&payload)) {
        if (gm->value >= 0 && gossip < 0) gossip = gm->value;
      }
    });
    if (gossip >= 0 && !s.decided) {
      s.b = static_cast<std::uint8_t>(gossip);
      s.decided = true;  // adopt + relay below
    } else if (!s.decided) {
      const std::uint64_t tot = ones + zeros;
      if (tot > 0) {
        if (30 * ones > 18 * tot) {
          s.b = 1;
        } else if (30 * ones < 15 * tot) {
          s.b = 0;
        } else {
          s.b = io.rng().can_draw(1)
                    ? static_cast<std::uint8_t>(io.rng().draw_bit())
                    : 0;
        }
        if (30 * ones > 27 * tot || 30 * ones < 3 * tot) s.decided = true;
      }
    }
  }

  // --- produce ---
  if (s.decided) {
    io.send_to_all(core::GossipMsg{static_cast<std::int8_t>(s.b)});
    decide(p, s.b);
    return;
  }
  if (r < cap_) {
    // Own bit counts too, hence include_self.
    io.send_to_all(core::DecisionMsg{s.b}, /*include_self=*/true);
  } else {
    // r == fallback_start_: register and start flooding.
    fallback_.set_participant(p, s.b);
    auto& scratch = scratch_[io.lane()];
    scratch.clear();
    core::IoOutbox out(io);
    fallback_.step(p, 0, scratch, out);
  }
}

bool BenOrMachine::finished() const {
  if (rounds_seen_ >= total_rounds_) return true;
  if (faults_ != nullptr) {
    for (sim::ProcessId p = 0; p < n_; ++p) {
      if (!faults_->is_corrupted(p) && !st_[p].terminated) return false;
    }
    return true;
  }
  return terminated_count_.load(std::memory_order_relaxed) == n_;
}

core::MemberOutcome BenOrMachine::outcome(sim::ProcessId p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  const auto& s = st_[p];
  core::MemberOutcome out;
  out.value = s.terminated ? s.decision : s.b;
  out.has_value = s.terminated;
  out.decided = s.terminated;
  out.operative = true;
  out.decision_round = s.decision_round;
  return out;
}

}  // namespace omx::baselines
