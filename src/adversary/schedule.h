// Explicit intervention schedules: the adversary-as-data representation
// behind the omxadv search loop (src/advsearch/).
//
// Every hand-written strategy in strategies.h decides *online* what to
// corrupt and drop; a Schedule is the same power written down — a flat,
// ordered list of (round, action) operations that a ScheduleAdversary
// replays verbatim. That makes an adversary a *genome*: the search loop
// mutates the op list, the engine replays it deterministically, and the
// legality firewall (sim/adversary.h + the runner's audit) judges it.
//
// Honesty contract: a ScheduleAdversary NEVER clips an illegal op into a
// legal one. A corrupt beyond budget t, a silence of an uncorrupted
// process, or a drop between two uncorrupted endpoints throws
// AdversaryViolation exactly like a hand-written strategy would — the
// search counts the candidate as rejected instead of quietly scoring a
// weaker schedule it did not actually evaluate.
//
// Text form (one line, comma-separated; the .state-file and CLI format):
//   c<round>.<p>          corrupt p at the start of round (sticky)
//   s<round>.<p>          silence p for that round only (all its links)
//   d<round>.<from>.<to>  drop every from->to message in that round
// e.g. "c0.3,s0.3,d2.3.7". normalize() sorts ops into replay order —
// within a round corrupts apply before silences before drops, so a genome
// that corrupts and immediately exploits the corruption is one round's
// worth of ops, not an ordering puzzle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sim/adversary.h"
#include "support/check.h"

namespace omx::adversary {

struct ScheduleOp {
  enum class Kind : std::uint8_t { Corrupt = 0, Silence = 1, Drop = 2 };
  Kind kind = Kind::Corrupt;
  std::uint32_t round = 0;
  std::uint32_t a = 0;  // the process (corrupt/silence) or the sender (drop)
  std::uint32_t b = 0;  // the receiver (drop only; 0 otherwise)

  friend bool operator==(const ScheduleOp&, const ScheduleOp&) = default;
  // Replay order: by round, corrupts first, then by endpoints — the
  // canonical form normalize() establishes and to_string() serializes.
  friend bool operator<(const ScheduleOp& x, const ScheduleOp& y) {
    return std::tie(x.round, x.kind, x.a, x.b) <
           std::tie(y.round, y.kind, y.a, y.b);
  }
};

struct Schedule {
  std::vector<ScheduleOp> ops;

  friend bool operator==(const Schedule&, const Schedule&) = default;

  /// Canonical replay order + duplicate removal. Idempotent; parse() and
  /// every mutation in the search loop call it, so two schedules are equal
  /// iff their text forms are equal.
  void normalize() {
    std::sort(ops.begin(), ops.end());
    ops.erase(std::unique(ops.begin(), ops.end()), ops.end());
  }

  /// Number of distinct processes the schedule corrupts — the genome's
  /// claim against the omission budget t.
  std::uint32_t corrupt_count() const {
    std::vector<std::uint32_t> ps;
    for (const ScheduleOp& op : ops) {
      if (op.kind == ScheduleOp::Kind::Corrupt) ps.push_back(op.a);
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    return static_cast<std::uint32_t>(ps.size());
  }

  std::string to_string() const {
    std::string out;
    for (const ScheduleOp& op : ops) {
      if (!out.empty()) out.push_back(',');
      switch (op.kind) {
        case ScheduleOp::Kind::Corrupt:
          out += "c" + std::to_string(op.round) + "." + std::to_string(op.a);
          break;
        case ScheduleOp::Kind::Silence:
          out += "s" + std::to_string(op.round) + "." + std::to_string(op.a);
          break;
        case ScheduleOp::Kind::Drop:
          out += "d" + std::to_string(op.round) + "." + std::to_string(op.a) +
                 "." + std::to_string(op.b);
          break;
      }
    }
    return out;
  }

  /// Parse the text form (empty string = empty schedule). Returns false
  /// with *error set on malformed input; the result is normalized.
  static bool parse(const std::string& text, Schedule* out,
                    std::string* error) {
    Schedule s;
    std::size_t pos = 0;
    const auto fail = [&](const std::string& msg) {
      if (error) *error = msg;
      return false;
    };
    while (pos < text.size()) {
      const std::size_t end = std::min(text.find(',', pos), text.size());
      const std::string tok = text.substr(pos, end - pos);
      pos = end + 1;
      if (tok.empty()) return fail("empty schedule op");
      ScheduleOp op;
      unsigned fields = 2;
      switch (tok[0]) {
        case 'c': op.kind = ScheduleOp::Kind::Corrupt; break;
        case 's': op.kind = ScheduleOp::Kind::Silence; break;
        case 'd':
          op.kind = ScheduleOp::Kind::Drop;
          fields = 3;
          break;
        default:
          return fail("bad schedule op '" + tok +
                      "' (want c<r>.<p>, s<r>.<p> or d<r>.<from>.<to>)");
      }
      std::uint32_t vals[3] = {0, 0, 0};
      std::size_t tp = 1;
      for (unsigned f = 0; f < fields; ++f) {
        if (f > 0) {
          if (tp >= tok.size() || tok[tp] != '.') {
            return fail("bad schedule op '" + tok + "' (missing '.')");
          }
          ++tp;
        }
        if (tp >= tok.size() || tok[tp] < '0' || tok[tp] > '9') {
          return fail("bad schedule op '" + tok + "' (expected a number)");
        }
        std::uint64_t v = 0;
        while (tp < tok.size() && tok[tp] >= '0' && tok[tp] <= '9') {
          v = v * 10 + static_cast<std::uint64_t>(tok[tp] - '0');
          if (v > 0xffffffffull) {
            return fail("bad schedule op '" + tok + "' (value too large)");
          }
          ++tp;
        }
        vals[f] = static_cast<std::uint32_t>(v);
      }
      if (tp != tok.size()) {
        return fail("bad schedule op '" + tok + "' (trailing characters)");
      }
      op.round = vals[0];
      op.a = vals[1];
      op.b = fields == 3 ? vals[2] : 0;
      s.ops.push_back(op);
    }
    s.normalize();
    *out = s;
    return true;
  }
};

/// Replays a Schedule verbatim, one round at a time. Ops are pre-sorted by
/// round (normalize()), so intervene() walks a cursor instead of scanning.
template <class P>
class ScheduleAdversary final : public sim::Adversary<P> {
 public:
  explicit ScheduleAdversary(Schedule schedule)
      : schedule_(std::move(schedule)) {
    schedule_.normalize();
  }

  void intervene(sim::AdversaryContext<P>& ctx) override {
    // Rounds ascend within a run (a fresh adversary is built per replay),
    // so a cursor over the sorted ops visits each exactly once, at its own
    // round. Ops scheduled past the run's last round simply never fire —
    // they are legal no-op genes, not errors.
    silenced_.clear();
    drops_.clear();
    for (; next_ < schedule_.ops.size() &&
           schedule_.ops[next_].round <= ctx.round();
         ++next_) {
      const ScheduleOp& op = schedule_.ops[next_];
      switch (op.kind) {
        case ScheduleOp::Kind::Corrupt:
          // corrupt() returning false means the budget is spent: an
          // over-budget genome is illegal, not silently truncated.
          if (!ctx.corrupt(op.a)) {
            throw AdversaryViolation(
                "schedule: corrupt p" + std::to_string(op.a) + " at round " +
                std::to_string(op.round) + " exceeds the omission budget (" +
                std::to_string(ctx.num_corrupted()) + " already corrupted)");
          }
          break;
        case ScheduleOp::Kind::Silence:
          silenced_.push_back(op.a);
          break;
        case ScheduleOp::Kind::Drop:
          drops_.push_back((std::uint64_t{op.a} << 32) | op.b);
          break;
      }
    }
    // Silences then drops, as one union'd link walk each — both throw
    // AdversaryViolation through drop_links if an uncorrupted endpoint
    // sneaks in, which is exactly what rejects an illegal mutant. Every
    // message a drop op can match has the op's sender, so the drop walk
    // visits only the senders' links (a sender outside the system has
    // none: its op is a no-op).
    if (!silenced_.empty()) ctx.silence_many(silenced_);
    if (!drops_.empty()) {
      std::sort(drops_.begin(), drops_.end());
      senders_.reset(ctx.num_processes());
      for (const std::uint64_t d : drops_) {
        senders_.insert(static_cast<sim::ProcessId>(d >> 32));
      }
      ctx.drop_links(senders_, sim::ProcessSet{},
                     [this](sim::ProcessId from, sim::ProcessId to) {
                       return std::binary_search(
                           drops_.begin(), drops_.end(),
                           (std::uint64_t{from} << 32) | to);
                     });
    }
  }

  const Schedule& schedule() const { return schedule_; }

 private:
  Schedule schedule_;
  std::size_t next_ = 0;
  std::vector<sim::ProcessId> silenced_;
  std::vector<std::uint64_t> drops_;
  sim::ProcessSet senders_;  // the drop ops' senders, this round
};

}  // namespace omx::adversary
