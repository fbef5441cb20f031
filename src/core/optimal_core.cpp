#include "core/optimal_core.h"

#include <algorithm>

#include "support/bits.h"
#include "support/check.h"

namespace omx::core {

namespace {
constexpr std::uint32_t kNoEpoch = UINT32_MAX;
}

OptimalCore::OptimalCore(OptimalConfig config,
                         std::span<const std::uint8_t> inputs)
    : cfg_(config),
      m_(static_cast<std::uint32_t>(inputs.size())),
      partition_(groups::SqrtPartition::shared_for(
          std::max<std::uint32_t>(1, m_))),
      tree_(partition_->max_group_size()),
      fallback_(std::max<std::uint32_t>(1, m_), cfg_.t) {
  OMX_REQUIRE(m_ >= 1, "consensus needs at least one process");
  for (std::uint8_t b : inputs) {
    OMX_REQUIRE(b <= 1, "inputs must be bits");
  }

  st_.resize(m_);
  for (std::uint32_t m = 0; m < m_; ++m) {
    auto& s = st_[m];
    s.b = inputs[m];
    s.group = partition_->group_of(m);
    s.idx_in_group = partition_->index_in_group(m);
    s.group_size = partition_->group_size(s.group);
  }

  if (m_ == 1) {
    // Degenerate instance: a single process decides its own input.
    total_rounds_ = 1;
    return;
  }

  delta_ = cfg_.params.delta(m_);
  min_in_links_ = cfg_.params.operative_min_degree(m_);
  graph_ = graph::CommGraph::common_for_shared(m_, delta_);

  layers_ = tree_.num_layers();
  agg_len_ = 3 * (layers_ - 1);
  spread_len_ = cfg_.params.spread_rounds(m_);
  epoch_len_ = agg_len_ + spread_len_;
  epochs_ = cfg_.params.epochs(m_, cfg_.t);
  decide_bcast_round_ = epochs_ * epoch_len_;
  const std::uint32_t collect = decide_bcast_round_ + 1;
  if (cfg_.truncated) {
    total_rounds_ = collect + 1;
  } else {
    fallback_start_ = collect + 1;
    total_rounds_ = fallback_start_ + fallback_.total_rounds();
  }
  OMX_CHECK(total_rounds_ ==
                schedule_length(cfg_.params, m_, cfg_.t, cfg_.truncated),
            "schedule_length out of sync with constructor");

  const std::uint32_t num_groups = partition_->num_groups();
  const std::uint32_t width = partition_->max_group_size();
  for (std::uint32_t m = 0; m < m_; ++m) {
    auto& s = st_[m];
    s.child_valid.assign(width, 0);
    s.child_ones.assign(width, 0);
    s.child_zeros.assign(width, 0);
    s.pack_valid.assign(num_groups, 0);
    s.pack_ones.assign(num_groups, 0);
    s.pack_zeros.assign(num_groups, 0);
    s.announced.assign(num_groups, 0);
    s.links = LiveLinks(graph_->neighbors(m));
  }
}

std::uint32_t OptimalCore::schedule_length(const Params& params,
                                           std::uint32_t n, std::uint32_t t,
                                           bool truncated) {
  OMX_REQUIRE(n >= 1, "schedule_length needs n >= 1");
  if (n == 1) return 1;
  const auto partition_ptr = groups::SqrtPartition::shared_for(n);
  const groups::SqrtPartition& partition = *partition_ptr;
  const groups::TreeDecomposition tree(partition.max_group_size());
  const std::uint32_t agg = 3 * (tree.num_layers() - 1);
  const std::uint32_t epoch_len = agg + params.spread_rounds(n);
  const std::uint32_t collect = params.epochs(n, t) * epoch_len + 1;
  if (truncated) return collect + 1;
  return collect + 1 + (t + 3);
}

OptimalCore::Phase OptimalCore::phase_of(std::uint32_t r) const {
  Phase ph;
  if (m_ == 1) {
    ph.kind = Kind::Done;
    return ph;
  }
  if (r < decide_bcast_round_) {
    ph.epoch = r / epoch_len_;
    const std::uint32_t rr = r % epoch_len_;
    if (rr < agg_len_) {
      ph.stage = 2 + rr / 3;
      switch (rr % 3) {
        case 0: ph.kind = Kind::AggPush; break;
        case 1: ph.kind = Kind::AggAck; break;
        default: ph.kind = Kind::AggShare; break;
      }
    } else {
      ph.kind = Kind::Spread;
      ph.spread_round = rr - agg_len_;
    }
    return ph;
  }
  if (r == decide_bcast_round_) {
    ph.kind = Kind::DecideBcast;
    return ph;
  }
  if (r == decide_bcast_round_ + 1) {
    ph.kind = Kind::DecideCollect;
    return ph;
  }
  if (!cfg_.truncated && r >= fallback_start_ &&
      r < fallback_start_ + fallback_.total_rounds()) {
    ph.kind = Kind::Fallback;
    ph.fallback_round = r - fallback_start_;
    return ph;
  }
  ph.kind = Kind::Done;
  return ph;
}

void OptimalCore::begin_round(std::uint32_t r) {
  cur_round_ = r;
  if (pending_epoch_record_) {
    operative_history_.push_back(operative_count());
    pending_epoch_record_ = false;
  }
  votes_fresh_ = false;
  if (m_ > 1 && r > 0) {
    const Phase prev = phase_of(r - 1);
    if (prev.kind == Kind::Spread && prev.spread_round == spread_len_ - 1) {
      votes_fresh_ = true;
      pending_epoch_record_ = true;
    }
  }
}

void OptimalCore::decide(std::uint32_t m, std::uint8_t value) {
  auto& s = st_[m];
  OMX_CHECK(!s.terminated, "double decision");
  s.terminated = true;
  s.decision = value;
  s.b = value;
  s.decision_round = static_cast<std::int64_t>(cur_round_);
  terminated_count_.fetch_add(1, std::memory_order_relaxed);
}

void OptimalCore::epoch_reset(MemberState& s, std::uint32_t epoch) {
  if (s.last_reset_epoch == epoch) return;
  s.last_reset_epoch = epoch;
  // Layer-1 singleton counts: an operative process counts its own bit;
  // inoperative processes' candidate values are not counted (Alg 2 line 1).
  s.cur_ones = (s.operative && s.b == 1) ? 1 : 0;
  s.cur_zeros = (s.operative && s.b == 0) ? 1 : 0;
  // estimate_fresh is deliberately NOT cleared: last_estimate() reports the
  // most recent completed epoch's estimate (vote_update overwrites it).
  std::fill(s.pack_valid.begin(), s.pack_valid.end(), 0);
  std::fill(s.announced.begin(), s.announced.end(), 0);
}

void OptimalCore::stage_reset(MemberState& s) {
  s.sourced = false;
  s.push_senders.clear();
  std::fill(s.child_valid.begin(), s.child_valid.end(), 0);
  s.acks = 0;
  s.shares = 0;
  s.have = 0;
  s.lo = s.lz = s.ro = s.rz = 0;
}

void OptimalCore::vote_update(std::uint32_t m, rng::Source& rng) {
  auto& s = st_[m];
  std::uint64_t ones = 0, zeros = 0;
  const std::uint32_t num_groups = partition_->num_groups();
  for (std::uint32_t g = 0; g < num_groups; ++g) {
    if (!s.pack_valid[g]) continue;
    ones += s.pack_ones[g];
    zeros += s.pack_zeros[g];
  }
  const std::uint64_t tot = ones + zeros;
  OMX_CHECK(tot >= 1, "operative process with empty estimate");
  s.estimate_fresh = true;
  s.est_ones = static_cast<std::uint32_t>(ones);
  s.est_zeros = static_cast<std::uint32_t>(zeros);

  // Lines 9-11: biased-majority rule with thresholds 18/30 and 15/30.
  if (30 * ones > 18 * tot) {
    s.b = 1;
  } else if (30 * ones < 15 * tot) {
    s.b = 0;
  } else {
    // The protocol's only coin. Degrades deterministically to 0 when the
    // randomness budget (Theorem 2/3 experiments) is exhausted.
    s.b = rng.can_draw(1) ? static_cast<std::uint8_t>(rng.draw_bit()) : 0;
  }
  // Line 12: safety rule with thresholds 27/30 and 3/30.
  if (30 * ones > 27 * tot || 30 * ones < 3 * tot) {
    s.decided = true;
  }
}

void OptimalCore::consume(std::uint32_t m, const Phase& prev,
                          std::span<const In> inbox, rng::Source& rng) {
  auto& s = st_[m];
  switch (prev.kind) {
    case Kind::AggPush: {
      // Transmitter duty (any operative status): record first counts per
      // child bag, remember who pushed (to ack them).
      for (const In& in : inbox) {
        if (const auto* push = std::get_if<RelayPush>(in.msg)) {
          if (!s.child_valid[push->child_bag]) {
            s.child_valid[push->child_bag] = 1;
            s.child_ones[push->child_bag] = push->ones;
            s.child_zeros[push->child_bag] = push->zeros;
          }
          s.push_senders.push_back(in.from);
        }
      }
      break;
    }
    case Kind::AggAck: {
      for (const In& in : inbox) {
        if (std::get_if<RelayAck>(in.msg) != nullptr) ++s.acks;
      }
      break;
    }
    case Kind::AggShare: {
      // Source role: merge shares, then enforce the majority thresholds.
      if (s.operative && s.sourced) {
        for (const In& in : inbox) {
          const auto* share = std::get_if<RelayShare>(in.msg);
          if (share == nullptr) continue;
          ++s.shares;
          if ((share->have_mask & 1) && !(s.have & 1)) {
            s.have |= 1;
            s.lo = share->left_ones;
            s.lz = share->left_zeros;
          }
          if ((share->have_mask & 2) && !(s.have & 2)) {
            s.have |= 2;
            s.ro = share->right_ones;
            s.rz = share->right_zeros;
          }
        }
        const std::uint32_t majority = s.group_size / 2 + 1;
        if (s.acks < majority || s.shares < majority) {
          s.operative = false;
        } else {
          s.cur_ones = s.lo + s.ro;
          s.cur_zeros = s.lz + s.rz;
        }
      }
      break;
    }
    case Kind::Spread: {
      if (!s.operative) break;  // idle until the end of the epoch
      for (const In& in : inbox) {
        const auto* sm = std::get_if<SpreadMsg>(in.msg);
        if (sm == nullptr) continue;
        if (!s.links.hear(in.from)) continue;  // disregarded link
        for (const SpreadEntry& e : sm->entries) {
          if (!s.pack_valid[e.group]) {
            s.pack_valid[e.group] = 1;
            s.pack_ones[e.group] = e.ones;
            s.pack_zeros[e.group] = e.zeros;
          }
        }
      }
      if (s.links.close_round() < min_in_links_) {  // silent links die
        s.operative = false;
        break;
      }
      if (prev.spread_round == spread_len_ - 1) {
        vote_update(m, rng);
      }
      break;
    }
    case Kind::DecideBcast: {
      // Lines 15-16.
      bool received = false;
      std::uint8_t rv = 0;
      for (const In& in : inbox) {
        if (const auto* dm = std::get_if<DecisionMsg>(in.msg)) {
          if (!received) {
            received = true;
            rv = dm->value;
          }
        }
      }
      if (!(s.operative && s.decided) && received) {
        s.b = rv;
        s.got_decision_msg = true;
      }
      if (s.decided || (!s.operative && received)) {
        decide(m, s.b);
      }
      if (!cfg_.truncated && !s.terminated && s.operative && !s.decided) {
        fallback_.set_participant(m, s.b);
      }
      break;
    }
    case Kind::DecideCollect:
    case Kind::Fallback:
    case Kind::Done:
      break;
  }
}

void OptimalCore::produce(std::uint32_t m, const Phase& cur, Outbox& send) {
  auto& s = st_[m];
  switch (cur.kind) {
    case Kind::AggPush: {
      epoch_reset(s, cur.epoch);
      stage_reset(s);
      if (s.operative) {
        s.sourced = true;
        const std::uint32_t child =
            tree_.bag_index_of(cur.stage - 1, s.idx_in_group);
        const RelayPush push{static_cast<std::uint16_t>(cur.stage), child,
                             s.cur_ones, s.cur_zeros};
        send.many(partition_->members(s.group), push);
      }
      break;
    }
    case Kind::AggAck: {
      const RelayAck ack{static_cast<std::uint16_t>(cur.stage)};
      send.many(s.push_senders, ack);
      break;
    }
    case Kind::AggShare: {
      const std::uint32_t child_layer = cur.stage - 1;
      const std::uint32_t child_bags = tree_.bags_in_layer(child_layer);
      for (std::uint32_t q : partition_->members(s.group)) {
        const std::uint32_t q_idx = partition_->index_in_group(q);
        const std::uint32_t k = tree_.bag_index_of(cur.stage, q_idx);
        const std::uint32_t cl = 2 * k;
        const std::uint32_t cr = 2 * k + 1;
        RelayShare share{static_cast<std::uint16_t>(cur.stage), 0, 0, 0, 0, 0};
        if (cl < child_bags && s.child_valid[cl]) {
          share.have_mask |= 1;
          share.left_ones = s.child_ones[cl];
          share.left_zeros = s.child_zeros[cl];
        }
        if (cr < child_bags && s.child_valid[cr]) {
          share.have_mask |= 2;
          share.right_ones = s.child_ones[cr];
          share.right_zeros = s.child_zeros[cr];
        }
        send.to(q, share);
      }
      break;
    }
    case Kind::Spread: {
      epoch_reset(s, cur.epoch);  // only relevant when agg_len_ == 0
      if (!s.operative) break;
      const std::uint32_t num_groups = partition_->num_groups();
      if (cur.spread_round == 0) {
        s.pack_valid[s.group] = 1;
        s.pack_ones[s.group] = s.cur_ones;
        s.pack_zeros[s.group] = s.cur_zeros;
      }
      // One payload for every live link: a process operative now was
      // operative in every earlier spread round of the epoch, and a link
      // live now was live then (neither ever comes back), so each live link
      // has carried exactly the entries announced so far and needs the
      // same new ones.
      SpreadMsg msg;
      for (std::uint32_t g = 0; g < num_groups; ++g) {
        if (s.pack_valid[g] && !s.announced[g]) {
          s.announced[g] = 1;
          msg.entries.push_back(
              SpreadEntry{g, s.pack_ones[g], s.pack_zeros[g]});
        }
      }
      send.many(s.links.live(), std::move(msg));  // empty == heartbeat
      break;
    }
    case Kind::DecideBcast: {
      if (s.operative && s.decided) {
        send.all(DecisionMsg{s.b});
      }
      break;
    }
    case Kind::DecideCollect:
    case Kind::Fallback:
    case Kind::Done:
      break;
  }
}

void OptimalCore::step(std::uint32_t m, std::span<const In> inbox,
                       Outbox& send, rng::Source& rng) {
  OMX_REQUIRE(m < m_, "member out of range");
  auto& s = st_[m];
  if (s.terminated) return;

  if (m_ == 1) {
    decide(0, s.b);
    return;
  }

  const Phase cur = phase_of(cur_round_);

  // Early-decide extension (Params::early_decide): during the epochs, a
  // DecisionMsg can only originate from a process that set `decided`; by
  // Lemma 11 its value is the unified operative value, so deciding on first
  // receipt is safe.
  const bool in_epochs = cur.kind == Kind::AggPush || cur.kind == Kind::AggAck ||
                         cur.kind == Kind::AggShare || cur.kind == Kind::Spread;
  if (cfg_.params.early_decide && in_epochs) {
    for (const In& in : inbox) {
      if (const auto* dm = std::get_if<DecisionMsg>(in.msg)) {
        decide(m, dm->value);
        return;
      }
    }
  }

  if (cur.kind == Kind::Fallback) {
    // DecideCollect produced nothing, and within the fallback the helper
    // consumes + produces in one call.
    fallback_.step(m, cur.fallback_round, inbox, send);
    if (fallback_.has_decision(m)) {
      decide(m, fallback_.decision(m));
    }
    return;
  }

  if (cur_round_ > 0) {
    consume(m, phase_of(cur_round_ - 1), inbox, rng);
  }
  if (st_[m].terminated || cur.kind == Kind::Done) return;

  // Early-decide extension: a freshly (or previously) decided operative
  // process broadcasts its value and terminates right away instead of
  // running the remaining epochs.
  if (cfg_.params.early_decide && in_epochs && st_[m].operative &&
      st_[m].decided) {
    send.all(DecisionMsg{st_[m].b});
    decide(m, st_[m].b);
    return;
  }

  produce(m, cur, send);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> OptimalCore::dead_links()
    const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  if (graph_ == nullptr) return out;
  for (std::uint32_t m = 0; m < m_; ++m) {
    const auto nb = graph_->neighbors(m);
    for (std::uint32_t slot = 0; slot < nb.size(); ++slot) {
      if (st_[m].links.dead(slot)) out.emplace_back(m, nb[slot]);
    }
  }
  return out;
}

std::uint32_t OptimalCore::operative_count() const {
  std::uint32_t count = 0;
  for (const auto& s : st_) count += s.operative ? 1 : 0;
  return count;
}

std::optional<std::pair<std::uint32_t, std::uint32_t>>
OptimalCore::last_estimate(std::uint32_t m) const {
  const auto& s = st_[m];
  if (!s.estimate_fresh) return std::nullopt;
  return std::make_pair(s.est_ones, s.est_zeros);
}

MemberOutcome OptimalCore::outcome(std::uint32_t m) const {
  OMX_REQUIRE(m < m_, "member out of range");
  const auto& s = st_[m];
  MemberOutcome out;
  out.value = s.terminated ? s.decision : s.b;
  out.has_value = s.terminated || s.got_decision_msg;
  out.decided = s.terminated;
  out.operative = s.operative;
  out.decision_round = s.decision_round;
  return out;
}

// ---------------------------------------------------------------------------
// OptimalMachine
// ---------------------------------------------------------------------------

OptimalMachine::OptimalMachine(OptimalConfig config,
                               std::vector<std::uint8_t> inputs)
    : core_(config, inputs) {}

void OptimalMachine::begin_round(std::uint32_t round) {
  core_.begin_round(round);
  rounds_seen_ = round + 1;
}

void OptimalMachine::round(sim::ProcessId p, sim::RoundIo<Msg>& io) {
  auto& scratch = scratch_in_[io.lane()];
  scratch.clear();
  io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
    scratch.push_back(In{from, &payload});
  });
  IoOutbox out(io);
  core_.step(p, scratch, out, io.rng());
}

bool OptimalMachine::finished() const {
  if (rounds_seen_ >= core_.scheduled_rounds()) return true;
  if (faults_ != nullptr) {
    for (sim::ProcessId p = 0; p < core_.num_members(); ++p) {
      if (!faults_->is_corrupted(p) && !core_.terminated(p)) return false;
    }
    return true;
  }
  return core_.all_terminated();
}

}  // namespace omx::core
