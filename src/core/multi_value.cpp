#include "core/multi_value.h"

#include "support/bits.h"
#include "support/check.h"

namespace omx::core {

MultiValueMachine::MultiValueMachine(MultiValueConfig config,
                                     std::vector<std::uint32_t> inputs)
    : cfg_(config), n_(static_cast<std::uint32_t>(inputs.size())) {
  OMX_REQUIRE(n_ >= 1, "need at least one process");
  OMX_REQUIRE(cfg_.bits >= 1 && cfg_.bits <= 32, "bits must be in 1..32");
  st_.resize(n_);
  for (std::uint32_t p = 0; p < n_; ++p) {
    if (cfg_.bits < 32) {
      OMX_REQUIRE(inputs[p] < (1u << cfg_.bits), "input exceeds bit width");
    }
    st_[p].candidate = inputs[p];
  }
  inner_len_ = OptimalCore::schedule_length(cfg_.params, n_, cfg_.t,
                                            /*truncated=*/false);
  phase_len_ = inner_len_ + 2;  // + announce + adopt rounds
  total_rounds_ = cfg_.bits * phase_len_;
}

void MultiValueMachine::begin_round(std::uint32_t round) {
  cur_round_ = round;
  rounds_seen_ = round + 1;
  const std::uint32_t phase = round / phase_len_;
  const std::uint32_t pr = round % phase_len_;
  if (pr < inner_len_) {
    if (phase != inner_phase_) {
      inner_phase_ = phase;
      std::vector<std::uint8_t> bits(n_);
      for (std::uint32_t p = 0; p < n_; ++p) {
        bits[p] = static_cast<std::uint8_t>(bit_of(st_[p].candidate, phase));
      }
      OptimalConfig icfg;
      icfg.params = cfg_.params;
      icfg.params.early_decide = false;  // fixed inner schedule
      icfg.t = cfg_.t;
      inner_ = std::make_unique<OptimalCore>(
          icfg, std::span<const std::uint8_t>(bits));
      OMX_CHECK(inner_->scheduled_rounds() == inner_len_,
                "inner schedule drifted");
    }
    inner_->begin_round(pr);
  }
}

void MultiValueMachine::round(sim::ProcessId p, sim::RoundIo<Msg>& io) {
  auto& s = st_[p];
  if (s.terminated) return;
  const std::uint32_t phase = cur_round_ / phase_len_;
  const std::uint32_t pr = cur_round_ % phase_len_;

  if (pr < inner_len_) {
    auto& scratch = scratch_[io.lane()];
    scratch.clear();
    io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
      scratch.push_back(In{from, &payload});
    });
    IoOutbox out(io);
    inner_->step(p, scratch, out, io.rng());
    return;
  }

  if (pr == inner_len_) {
    // Announce round: record the decided bit, announce if consistent.
    const auto out = inner_->outcome(p);
    const std::uint32_t own_bit = bit_of(s.candidate, phase);
    const std::uint32_t d = out.has_value ? out.value : own_bit;
    s.prefix_mask |= mask_of(phase);
    if (d) s.decided_prefix |= mask_of(phase);
    else s.decided_prefix &= ~mask_of(phase);
    if (own_bit == d) {
      io.send_to_all(ValueMsg{s.candidate});
    }
    return;
  }

  // Adopt round: mismatched candidates take any announcement consistent
  // with the decided prefix; then, after the last phase, decide.
  if (bit_of(s.candidate, phase) != bit_of(s.decided_prefix, phase)) {
    bool adopted = false;
    io.for_each_in([&](sim::ProcessId, const Msg& payload) {
      const auto* vm = std::get_if<ValueMsg>(&payload);
      if (adopted || vm == nullptr) return;
      if ((vm->value & s.prefix_mask) == (s.decided_prefix & s.prefix_mask)) {
        s.candidate = vm->value;
        adopted = true;
      }
    });
  }
  if (phase + 1 == cfg_.bits) {
    s.terminated = true;
    s.decision_round = static_cast<std::int64_t>(cur_round_);
  }
}

bool MultiValueMachine::finished() const {
  if (rounds_seen_ >= total_rounds_) return true;
  for (sim::ProcessId p = 0; p < n_; ++p) {
    if (faults_ != nullptr && faults_->is_corrupted(p)) continue;
    if (!st_[p].terminated) return false;
  }
  return true;
}

MultiValueOutcome MultiValueMachine::outcome(sim::ProcessId p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  MultiValueOutcome out;
  out.value = st_[p].decided_prefix;
  out.decided = st_[p].terminated;
  out.decision_round = st_[p].decision_round;
  return out;
}

}  // namespace omx::core
