#include "baselines/doubling_gossip.h"

#include <algorithm>

#include "support/bits.h"
#include "support/check.h"

namespace omx::baselines {

using core::InquireMsg;
using core::Msg;
using core::RunMsg;
using support::RunSet;
using support::RunSetPtr;
using support::ShiftedSet;

DoublingGossipMachine::DoublingGossipMachine(DoublingConfig config,
                                             std::vector<std::uint8_t> inputs)
    : n_(static_cast<std::uint32_t>(inputs.size())),
      t_(config.t),
      inputs_(std::move(inputs)) {
  OMX_REQUIRE(n_ >= 2, "gossip needs at least two processes");
  const std::uint32_t logn = std::max<std::uint32_t>(1, ceil_log2(n_));
  // Contact order: exponential fingers first (+1, +2, +4, ...), then the
  // remaining offsets ascending — knowledge doubles per exchange.
  std::vector<std::uint8_t> used(n_, 0);
  used[0] = 1;
  for (std::uint32_t f = 1; f < n_; f *= 2) {
    offsets_.push_back(f);
    used[f] = 1;
  }
  for (std::uint32_t off = 1; off < n_; ++off) {
    if (!used[off]) offsets_.push_back(off);
  }
  OMX_CHECK(offsets_.size() == n_ - 1, "offset order must cover the ring");
  const std::uint32_t init =
      config.initial_contacts
          ? config.initial_contacts
          : std::min(n_ - 1, static_cast<std::uint32_t>(2 * logn));
  max_exchanges_ = config.max_exchanges ? config.max_exchanges
                                        : 4 * logn + 16;
  st_.resize(n_);
  prefix_ones_.resize(n_ + 1);
  prefix_ones_[0] = 0;
  for (std::uint32_t id = 0; id < n_; ++id) {
    prefix_ones_[id + 1] = prefix_ones_[id] + (inputs_[id] != 0 ? 1 : 0);
  }
  // The seed is the same for every process in the rotated frame ({0}),
  // so one RunSet serves all n — the representation's whole point.
  const RunSetPtr seed = RunSet::single(0);
  for (std::uint32_t p = 0; p < n_; ++p) {
    auto& s = st_[p];
    s.contacts = std::min(init, n_ - 1);
    s.know_set = seed;
    s.known_count = 1;
  }
}

void DoublingGossipMachine::begin_round(std::uint32_t round) {
  cur_round_ = round;
  rounds_seen_ = round + 1;
  union_memo_.clear();
  diff_memo_.clear();
}

RunSetPtr DoublingGossipMachine::memo_union(
    const RunSetPtr& base, const std::vector<ShiftedSet>& ops) {
  UnionKey key;
  key.first = base.get();
  key.second.reserve(ops.size());
  for (const ShiftedSet& op : ops) key.second.emplace_back(op.shift, op.set);
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = union_memo_.find(key);
  if (it != union_memo_.end()) return it->second;
  RunSetPtr result = support::union_shifted(*base, ops, n_);
  union_memo_.emplace(std::move(key), result);
  return result;
}

RunSetPtr DoublingGossipMachine::memo_diff(const RunSetPtr& a,
                                           const RunSetPtr& b) {
  if (a.get() == b.get()) return RunSet::empty_set();
  const std::pair<const void*, const void*> key{a.get(), b.get()};
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = diff_memo_.find(key);
  if (it != diff_memo_.end()) return it->second;
  RunSetPtr result = support::difference(*a, *b);
  diff_memo_.emplace(key, result);
  return result;
}

void DoublingGossipMachine::round(sim::ProcessId p,
                                  sim::RoundIo<core::Msg>& io) {
  if (crash_semantics_ && faults_ != nullptr && faults_->is_corrupted(p)) {
    return;  // a crashed machine halts; an omission-faulty one keeps going
  }
  auto& s = st_[p];
  const bool inquire_round = (cur_round_ % 2) == 0;

  if (inquire_round) {
    if (cur_round_ > 0 && !s.completed) {
      std::uint32_t responses = 0;
      auto& ops = scratch_ops_[io.lane()];
      ops.clear();
      io.for_each_in([&](sim::ProcessId, const Msg& payload) {
        if (const auto* rm = std::get_if<RunMsg>(&payload)) {
          ++responses;
          if (rm->delta != nullptr && !rm->delta->empty()) {
            // Rebase the responder's frame into ours: absolute id is
            // (x + rot), our relative id is (x + rot - p) mod n.
            ops.push_back(ShiftedSet{rm->delta.get(),
                                     (rm->rot + n_ - (p % n_)) % n_});
          }
        }
      });
      if (!ops.empty()) {
        // Canonical operand order → one memo entry per distinct task; in
        // the symmetric fault-free execution that is one per round for the
        // whole machine. (Shifts are distinct: one reply per responder.)
        std::sort(ops.begin(), ops.end(),
                  [](const ShiftedSet& a, const ShiftedSet& b) {
                    return a.shift != b.shift ? a.shift < b.shift
                                              : a.set < b.set;
                  });
        RunSetPtr merged = memo_union(s.know_set, ops);
        const auto count = static_cast<std::uint32_t>(merged->count());
        if (count > s.known_count) {
          s.known_count = count;
          s.stable = false;
        }
        s.know_set = std::move(merged);
      }
      if (2 * responses < s.contacts && s.contacts < n_ - 1) {
        s.contacts = std::min(n_ - 1, 2 * s.contacts);
        ++s.doublings;
      }
      if (s.known_count + t_ >= n_ && s.stable) {
        s.completed = true;
      }
      s.stable = true;
    }
    if (!s.completed) {
      auto& targets = scratch_targets_[io.lane()];
      targets.clear();
      for (std::uint32_t k = 0; k < s.contacts; ++k) {
        targets.push_back((p + offsets_[k]) % n_);
      }
      io.send_to(targets, InquireMsg{});
    }
    return;
  }

  // --- respond round: one delta per channel snapshot, batched so that
  // consecutive inquirers sharing a snapshot share one wire payload ---
  s.inquirers.clear();
  io.for_each_in([&](sim::ProcessId from, const Msg& payload) {
    if (std::get_if<InquireMsg>(&payload) != nullptr) {
      s.inquirers.push_back(from);
    }
  });
  const auto snapshot_of = [&](sim::ProcessId q) -> RunSetPtr {
    for (const auto& entry : s.snaps) {
      if (entry.first == q) return entry.second;
    }
    return RunSet::empty_set();
  };
  const auto set_snapshot = [&](sim::ProcessId q, const RunSetPtr& snap) {
    for (auto& entry : s.snaps) {
      if (entry.first == q) {
        entry.second = snap;
        return;
      }
    }
    s.snaps.emplace_back(q, snap);
  };
  std::size_t i = 0;
  auto& targets = scratch_targets_[io.lane()];
  while (i < s.inquirers.size()) {
    const RunSetPtr snap = snapshot_of(s.inquirers[i]);
    std::size_t j = i + 1;
    while (j < s.inquirers.size() &&
           snapshot_of(s.inquirers[j]).get() == snap.get()) {
      ++j;
    }
    const RunSetPtr delta = memo_diff(s.know_set, snap);
    RunMsg reply;
    reply.delta = delta;
    reply.rot = p;
    reply.pairs = static_cast<std::uint32_t>(delta->count());
    reply.bits = 1 + support::shifted_pair_bits(*delta, p, n_);
    targets.clear();
    for (std::size_t k = i; k < j; ++k) {
      set_snapshot(s.inquirers[k], s.know_set);
      targets.push_back(s.inquirers[k]);
    }
    io.send_to(targets, Msg{std::move(reply)});
    i = j;
  }
}

bool DoublingGossipMachine::finished() const {
  if (rounds_seen_ >= scheduled_rounds()) return true;
  if (full_horizon_) return false;
  for (sim::ProcessId p = 0; p < n_; ++p) {
    if (faults_ != nullptr && faults_->is_corrupted(p)) continue;
    if (!st_[p].completed) return false;
  }
  return true;
}

std::uint32_t DoublingGossipMachine::ones_of(sim::ProcessId p) const {
  // Omission adversaries deliver or drop, never corrupt, so every value p
  // holds equals the sender's input — the readout is served from the
  // global input prefix sums over p's (rotated) known-id runs.
  std::uint32_t ones = 0;
  for (const support::Run& r : st_[p].know_set->runs()) {
    const std::uint64_t lo = static_cast<std::uint64_t>(r.lo) + p;
    const std::uint64_t hi = static_cast<std::uint64_t>(r.hi) + p;
    if (hi <= n_) {
      ones += prefix_ones_[hi] - prefix_ones_[lo];
    } else if (lo >= n_) {
      ones += prefix_ones_[hi - n_] - prefix_ones_[lo - n_];
    } else {
      ones += prefix_ones_[n_] - prefix_ones_[lo];
      ones += prefix_ones_[hi - n_];
    }
  }
  return ones;
}

std::uint32_t DoublingGossipMachine::zeros_of(sim::ProcessId p) const {
  return static_cast<std::uint32_t>(st_[p].know_set->count()) - ones_of(p);
}

}  // namespace omx::baselines
