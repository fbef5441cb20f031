#include "core/param_consensus.h"

#include <algorithm>

#include "support/bits.h"
#include "support/check.h"

namespace omx::core {

ParamMachine::ParamMachine(ParamConfig config,
                           std::vector<std::uint8_t> inputs)
    : cfg_(config),
      n_(static_cast<std::uint32_t>(inputs.size())),
      fallback_(static_cast<std::uint32_t>(inputs.size()), config.t) {
  OMX_REQUIRE(n_ >= 2, "ParamMachine needs n >= 2");
  OMX_REQUIRE(cfg_.x >= 1 && cfg_.x <= n_, "x must be in [1, n]");
  for (std::uint8_t b : inputs) OMX_REQUIRE(b <= 1, "inputs must be bits");

  group_width_ = static_cast<std::uint32_t>(ceil_div(n_, cfg_.x));
  num_groups_ = static_cast<std::uint32_t>(ceil_div(n_, group_width_));
  graph_ = graph::CommGraph::common_for_shared(n_, cfg_.params.delta(n_));
  min_in_links_ = cfg_.params.operative_min_degree(n_);
  gossip_len_ = cfg_.params.gossip_rounds(n_);

  // Phase layout: inner run + gossip + 1 settle round per super-process,
  // then the safety tail (send, collect, final broadcast, final collect)
  // and the deterministic fallback.
  std::uint32_t r = 0;
  phase_start_.resize(num_groups_);
  inner_len_.resize(num_groups_);
  for (std::uint32_t i = 0; i < num_groups_; ++i) {
    const std::uint32_t lo = i * group_width_;
    const std::uint32_t size = std::min(n_, lo + group_width_) - lo;
    const std::uint32_t ti = Params::max_t_optimal(size);
    phase_start_[i] = r;
    inner_len_[i] =
        OptimalCore::schedule_length(cfg_.params, size, ti, /*truncated=*/true);
    r += inner_len_[i] + gossip_len_ + 1;
  }
  safety_send_round_ = r;
  fallback_start_ = r + 4;
  total_rounds_ = fallback_start_ + fallback_.total_rounds();

  st_.resize(n_);
  for (std::uint32_t p = 0; p < n_; ++p) {
    auto& s = st_[p];
    s.b = inputs[p];
    s.links = LiveLinks(graph_->neighbors(p));
  }
}

ParamMachine::Phase ParamMachine::phase_of(std::uint32_t r) const {
  Phase ph;
  if (r < safety_send_round_) {
    // Find the phase containing r.
    auto it = std::upper_bound(phase_start_.begin(), phase_start_.end(), r);
    const auto i = static_cast<std::uint32_t>(it - phase_start_.begin()) - 1;
    ph.phase = i;
    const std::uint32_t rr = r - phase_start_[i];
    if (rr < inner_len_[i]) {
      ph.kind = Kind::Inner;
      ph.inner_round = rr;
    } else if (rr < inner_len_[i] + gossip_len_) {
      ph.kind = Kind::Gossip;
      ph.gossip_round = rr - inner_len_[i];
    } else {
      ph.kind = Kind::Settle;
    }
    return ph;
  }
  if (r == safety_send_round_) { ph.kind = Kind::SafetySend; return ph; }
  if (r == safety_send_round_ + 1) { ph.kind = Kind::SafetyCollect; return ph; }
  if (r == safety_send_round_ + 2) { ph.kind = Kind::FinalBcast; return ph; }
  if (r == safety_send_round_ + 3) { ph.kind = Kind::FinalCollect; return ph; }
  if (r >= fallback_start_ && r < fallback_start_ + fallback_.total_rounds()) {
    ph.kind = Kind::Fallback;
    ph.fallback_round = r - fallback_start_;
    return ph;
  }
  ph.kind = Kind::Done;
  return ph;
}

void ParamMachine::begin_round(std::uint32_t round) {
  cur_round_ = round;
  rounds_seen_ = round + 1;
  const Phase cur = phase_of(round);

  if (cur.kind == Kind::Inner) {
    if (cur.phase != inner_phase_) {
      // Phase start: build the embedded truncated instance over SP_i with
      // the members' current candidate values as inputs.
      inner_phase_ = cur.phase;
      const std::uint32_t lo = cur.phase * group_width_;
      const std::uint32_t hi = std::min(n_, lo + group_width_);
      inner_members_.clear();
      std::vector<std::uint8_t> inner_inputs;
      for (std::uint32_t p = lo; p < hi; ++p) {
        inner_members_.push_back(p);
        inner_inputs.push_back(st_[p].b);
      }
      OptimalConfig icfg;
      icfg.params = cfg_.params;
      // The truncated embedding relies on the fixed inner schedule; the
      // early-decide extension is an outer-protocol feature only.
      icfg.params.early_decide = false;
      icfg.t = Params::max_t_optimal(
          static_cast<std::uint32_t>(inner_members_.size()));
      icfg.truncated = true;
      inner_ = std::make_unique<OptimalCore>(
          icfg, std::span<const std::uint8_t>(inner_inputs));
      OMX_CHECK(inner_->scheduled_rounds() == inner_len_[cur.phase],
                "inner schedule mismatch");
    }
    inner_->begin_round(cur.inner_round);
    return;
  }

  if (inner_ != nullptr) {
    // First round after an inner run: lines 7-8 — members take the inner
    // outcome as the phase's consensus decision, everyone else ⊥. (Each
    // assignment reads only that process's local inner state.)
    for (auto& s : st_) s.consensus_decision = -1;
    for (std::uint32_t i = 0; i < inner_members_.size(); ++i) {
      const auto out = inner_->outcome(i);
      auto& s = st_[inner_members_[i]];
      if (out.has_value) {
        s.b = out.value;
        s.consensus_decision = static_cast<std::int8_t>(out.value);
      }
    }
    inner_.reset();
  }
}

void ParamMachine::decide(sim::ProcessId p, std::uint8_t value) {
  auto& s = st_[p];
  OMX_CHECK(!s.terminated, "double decision");
  s.terminated = true;
  s.decision = value;
  s.b = value;
  s.decision_round = static_cast<std::int64_t>(cur_round_);
  terminated_count_.fetch_add(1, std::memory_order_relaxed);
}

void ParamMachine::consume(sim::ProcessId p, const Phase& prev,
                           std::span<const In> inbox) {
  auto& s = st_[p];
  switch (prev.kind) {
    case Kind::Gossip: {
      if (!s.operative) break;  // idle until line 25
      for (const In& in : inbox) {
        const auto* gm = std::get_if<GossipMsg>(in.msg);
        if (gm == nullptr) continue;
        if (!s.links.hear(in.from)) continue;
        if (gm->value >= 0 && s.consensus_decision < 0) {
          s.consensus_decision = gm->value;
        }
      }
      if (s.links.close_round() < min_in_links_) {
        s.operative = false;
        break;
      }
      if (prev.gossip_round == gossip_len_ - 1 && s.consensus_decision >= 0) {
        s.b = static_cast<std::uint8_t>(s.consensus_decision);  // line 13
      }
      break;
    }
    case Kind::SafetySend: {
      if (!s.operative) break;
      std::uint64_t ones = 0, zeros = 0;
      for (const In& in : inbox) {
        if (const auto* dm = std::get_if<DecisionMsg>(in.msg)) {
          if (dm->value == 1) ++ones;
          else ++zeros;
        }
      }
      const std::uint64_t tot = ones + zeros;
      if (tot == 0) break;
      // Lines 19-22 (no randomness in the safety rule).
      if (30 * ones > 18 * tot) s.b = 1;
      else if (30 * ones < 15 * tot) s.b = 0;
      if (30 * ones > 27 * tot || 30 * ones < 3 * tot) s.decided = true;
      break;
    }
    case Kind::FinalBcast: {
      // Lines 25-26.
      bool received = false;
      std::uint8_t rv = 0;
      for (const In& in : inbox) {
        if (const auto* dm = std::get_if<DecisionMsg>(in.msg)) {
          if (!received) { received = true; rv = dm->value; }
        }
      }
      if (!(s.operative && s.decided) && received) {
        s.b = rv;
        s.got_decision_msg = true;
      }
      if (s.decided || (!s.operative && received)) {
        decide(p, s.b);
      }
      if (!s.terminated && s.operative && !s.decided) {
        fallback_.set_participant(p, s.b);
      }
      break;
    }
    case Kind::Inner:
    case Kind::Settle:
    case Kind::SafetyCollect:
    case Kind::FinalCollect:
    case Kind::Fallback:
    case Kind::Done:
      break;
  }
}

void ParamMachine::produce(sim::ProcessId p, const Phase& cur,
                           sim::RoundIo<Msg>& io) {
  auto& s = st_[p];
  switch (cur.kind) {
    case Kind::Gossip: {
      if (!s.operative) break;
      io.send_to(s.links.live(), GossipMsg{s.consensus_decision});
      break;
    }
    case Kind::SafetySend: {
      if (!s.operative) break;
      // Includes self: the process's own bit counts (line 18).
      io.send_to_all(DecisionMsg{s.b}, /*include_self=*/true);
      break;
    }
    case Kind::FinalBcast: {
      if (s.operative && s.decided) {
        io.send_to_all(DecisionMsg{s.b});
      }
      break;
    }
    case Kind::Inner:
    case Kind::Settle:
    case Kind::SafetyCollect:
    case Kind::FinalCollect:
    case Kind::Fallback:
    case Kind::Done:
      break;
  }
}

void ParamMachine::round(sim::ProcessId p, sim::RoundIo<Msg>& io) {
  auto& s = st_[p];
  if (s.terminated) return;
  const Phase cur = phase_of(cur_round_);

  auto& inbox_scratch = inner_inbox_[io.lane()];
  if (cur.kind == Kind::Fallback) {
    inbox_scratch.clear();
    io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
      inbox_scratch.push_back(In{from, &payload});
    });
    IoOutbox out(io);
    fallback_.step(p, cur.fallback_round, inbox_scratch, out);
    if (fallback_.has_decision(p)) decide(p, fallback_.decision(p));
    return;
  }

  if (cur.kind == Kind::Inner) {
    const std::uint32_t lo = cur.phase * group_width_;
    const std::uint32_t hi = std::min(n_, lo + group_width_);
    if (p < lo || p >= hi || !s.operative) return;  // idle (line 6 / 10)
    inbox_scratch.clear();
    io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
      OMX_CHECK(from >= lo && from < hi,
                "non-member message during an inner run");
      inbox_scratch.push_back(In{from - lo, &payload});
    });
    IoOutbox out(io, inner_members_, &scratch_targets_[io.lane()]);
    inner_->step(p - lo, inbox_scratch, out, io.rng());
    return;
  }

  if (cur_round_ > 0) {
    inbox_scratch.clear();
    io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
      inbox_scratch.push_back(In{from, &payload});
    });
    consume(p, phase_of(cur_round_ - 1), inbox_scratch);
  }
  if (!st_[p].terminated && cur.kind != Kind::Done) {
    produce(p, cur, io);
  }
}

bool ParamMachine::finished() const {
  if (rounds_seen_ >= total_rounds_) return true;
  if (faults_ != nullptr) {
    for (sim::ProcessId p = 0; p < n_; ++p) {
      if (!faults_->is_corrupted(p) && !st_[p].terminated) return false;
    }
    return true;
  }
  return terminated_count_.load(std::memory_order_relaxed) == n_;
}

MemberOutcome ParamMachine::outcome(sim::ProcessId p) const {
  OMX_REQUIRE(p < n_, "process out of range");
  const auto& s = st_[p];
  MemberOutcome out;
  out.value = s.terminated ? s.decision : s.b;
  out.has_value = s.terminated || s.got_decision_msg;
  out.decided = s.terminated;
  out.operative = s.operative;
  out.decision_round = s.decision_round;
  return out;
}

std::uint32_t ParamMachine::operative_count() const {
  std::uint32_t count = 0;
  for (const auto& s : st_) count += s.operative ? 1 : 0;
  return count;
}

std::uint8_t ParamMachine::probe_value(sim::ProcessId p) const {
  if (inner_ != nullptr) {
    const std::uint32_t lo = inner_phase_ * group_width_;
    if (p >= lo && p - lo < inner_->num_members()) {
      return inner_->value_of(p - lo);
    }
  }
  return st_[p].b;
}

bool ParamMachine::probe_counts_in_vote(sim::ProcessId p) const {
  if (inner_ == nullptr) return false;
  const std::uint32_t lo = inner_phase_ * group_width_;
  if (p < lo || p - lo >= inner_->num_members()) return false;
  const std::uint32_t local = p - lo;
  return st_[p].operative && inner_->operative(local) &&
         !inner_->terminated(local);
}

bool ParamMachine::probe_votes_fresh() const {
  return inner_ != nullptr && inner_->votes_fresh();
}

}  // namespace omx::core
