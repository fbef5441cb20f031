#include "baselines/flood_set.h"

#include "support/check.h"

namespace omx::baselines {

FloodSetMachine::FloodSetMachine(std::uint32_t t,
                                 std::vector<std::uint8_t> inputs)
    : n_(static_cast<std::uint32_t>(inputs.size())),
      fallback_(static_cast<std::uint32_t>(inputs.size()), t) {
  OMX_REQUIRE(n_ >= 1, "need at least one process");
  st_.resize(n_);
  for (std::uint32_t p = 0; p < n_; ++p) {
    OMX_REQUIRE(inputs[p] <= 1, "inputs must be bits");
    fallback_.set_participant(p, inputs[p]);
  }
}

void FloodSetMachine::begin_round(std::uint32_t round) {
  cur_round_ = round;
  rounds_seen_ = round + 1;
}

void FloodSetMachine::round(sim::ProcessId p, sim::RoundIo<core::Msg>& io) {
  auto& s = st_[p];
  if (s.terminated) return;
  if (!fallback_.inbox_is_noop(p, cur_round_)) {
    // Merge straight out of the wire walk — FloodSet never needs the
    // sender id, and an extra collect-then-walk pass is measurable at
    // large n.
    fallback_.consume_stream(p, io);
  }
  core::IoOutbox out(io);
  fallback_.step(p, cur_round_, {}, out);
  if (fallback_.has_decision(p)) {
    s.terminated = true;
    s.decision = fallback_.decision(p);
    s.decision_round = static_cast<std::int64_t>(cur_round_);
    terminated_count_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool FloodSetMachine::finished() const {
  if (rounds_seen_ >= fallback_.total_rounds()) return true;
  if (faults_ != nullptr) {
    for (sim::ProcessId p = 0; p < n_; ++p) {
      if (!faults_->is_corrupted(p) && !st_[p].terminated) return false;
    }
    return true;
  }
  return terminated_count_.load(std::memory_order_relaxed) == n_;
}

core::MemberOutcome FloodSetMachine::outcome(sim::ProcessId p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  core::MemberOutcome out;
  out.value = st_[p].decision;
  out.has_value = st_[p].terminated;
  out.decided = st_[p].terminated;
  out.operative = true;
  out.decision_round = st_[p].decision_round;
  return out;
}

}  // namespace omx::baselines
