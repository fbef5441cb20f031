// The synchronous execution engine.
//
// Drives a Machine<P> against an Adversary<P> under a rng::Ledger, producing
// Metrics. One iteration of the loop is one round of the model:
//
//   1. local computation phase: every process (in id order) reads the
//      messages delivered to it last round (RoundIo::for_each_in) and
//      queues sends; random draws are billed to the ledger;
//   2. the adversary — full information — inspects all states (via whatever
//      probes it was wired with), the drawn coins, and the in-flight
//      messages, corrupts processes (within budget t) and omits messages on
//      corrupted processes' links;
//   3. communication phase: surviving messages are delivered; receivers
//      read them straight off the sealed wire next round.
//
// Phases 2 and 3 are inherently global; phase 1 is n independent local
// transitions and is where essentially all wall-time goes at large n. With
// Options::threads > 1 the engine shards phase 1 across a persistent thread
// pool while keeping every run bit-identical to the serial engine:
//
//   * processes are split into contiguous shards [n*w/k, n*(w+1)/k); worker
//     w steps its shard in ascending id order into a private staging
//     SendLog arena, reading only last round's delivered wire;
//   * staged arenas are stitched onto the plane's wire as segments in shard
//     order — pointers, not copies — which reconstructs the exact serial
//     record/payload sequence (concatenating ascending-id shards in shard
//     order *is* ascending id order) — so the adversary's indexed view, the
//     drop bitset, and delivery are untouched. Arenas are double-banked by
//     round parity so a delivered wire is never clobbered while the next
//     round's staging reads it;
//   * random draws are billed to per-process racks and reduced at the shard
//     barrier (Ledger racked phase), making the totals independent of
//     thread interleaving. A round runs racked only when the ledger proves
//     budget checks cannot depend on billing order
//     (racked_admissible: headroom >= n x per-source slack below every
//     finite budget); budget-near rounds fall back to serial stepping, so
//     budget-exhaustion points are exactly the serial ones.
//
// Phase 3 shards on the same pool: delivery's per-receiver index build
// splits by receiver range (sim/message_plane.h), bit-identical to the
// serial build. Phase 2 stays serial: its bulk omissions walk only the
// corrupted processes' links (sim/adversary.h), and the audit walks only
// the dropped messages, so neither scans the whole wire.
//
// The run ends when the machine reports finished() or max_rounds elapses
// (the latter flagged in the result so tests can fail on non-termination).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rng/ledger.h"
#include "sim/adversary.h"
#include "sim/machine.h"
#include "sim/message_plane.h"
#include "sim/metrics.h"
#include "support/check.h"
#include "support/thread_pool.h"
#include "trace/rng_tap.h"
#include "trace/trace.h"

namespace omx::sim {

struct RunResult {
  Metrics metrics;
  bool hit_round_cap = false;
  /// True iff the run was cut short by Options::deadline (cooperative
  /// watchdog: checked once per round before the computation phase).
  bool hit_deadline = false;
};

/// Optional per-phase wall-clock accounting (bench_engine): cumulative
/// nanoseconds spent in local computation, adversary intervention, and
/// delivery. Costs one clock read per phase per round when enabled, nothing
/// when not. compute_ns covers all of phase 1, including each receiver's
/// walk over the delivered wire (RoundIo::for_each_in); delivery_ns covers
/// accounting, trace emission and the per-receiver index build. In sharded
/// rounds compute_ns splits into stage_ns (parallel stepping into staged
/// arenas) and merge_ns (stitching staged arenas onto the wire + reducing
/// the rng racks + the seal). lane_busy_ns is the pool's per-lane busy time
/// over the run (all phases), so stage/merge imbalance across lanes is
/// visible without a profiler.
struct EngineStats {
  std::uint64_t rounds = 0;
  std::uint64_t compute_ns = 0;
  std::uint64_t adversary_ns = 0;
  std::uint64_t delivery_ns = 0;
  std::uint64_t stage_ns = 0;
  std::uint64_t merge_ns = 0;
  std::uint64_t parallel_rounds = 0;  // rounds that took the sharded path
  std::vector<std::uint64_t> lane_busy_ns;  // per pool lane, whole run
  unsigned threads = 1;               // resolved worker-lane count
};

/// Per-source slack bounds promised to the rng ledger for racked rounds:
/// no single process may draw more than this many calls/bits in one round.
/// Generous for every protocol here (they draw O(1) calls of <= 64 bits per
/// process per round); raise them if a protocol draws more and
/// budget-limited parallel runs start failing loudly.
inline constexpr std::uint64_t kRngSlackCalls = 64;
inline constexpr std::uint64_t kRngSlackBits = 4096;

template <class P>
class Runner {
 public:
  struct Options {
    std::uint64_t max_rounds = 1'000'000;
    /// Cooperative wall-clock watchdog: when nonzero, the engine checks the
    /// elapsed time at every round boundary and stops the run with
    /// RunResult::hit_deadline instead of spinning forever under an
    /// adversary that stalls the protocol. Never interrupts mid-round, so a
    /// deadline cannot corrupt state or tear a checkpointed trial.
    std::chrono::nanoseconds deadline{0};
    EngineStats* stats = nullptr;
    /// Worker lanes for the computation phase: 1 = serial (default),
    /// 0 = one lane per hardware thread, k = exactly k lanes.
    unsigned threads = 1;
    /// Event-trace sink (trace/trace.h); nullptr = tracing off. The engine
    /// emits every round's events in the canonical order documented there,
    /// so the stream is bit-identical across thread counts. Ignored when
    /// tracing is compiled out (OMX_DISABLE_TRACING).
    trace::TraceWriter* trace = nullptr;
  };

  Runner(std::uint32_t n, std::uint32_t fault_budget, rng::Ledger* ledger,
         Adversary<P>* adversary, Options options = {})
      : n_(n),
        ledger_(ledger),
        adversary_(adversary),
        options_(options),
        faults_(n, fault_budget) {
    OMX_REQUIRE(ledger != nullptr && adversary != nullptr,
                "runner needs a ledger and an adversary");
    OMX_REQUIRE(ledger->num_processes() >= n,
                "ledger must cover all processes");
    unsigned lanes = options_.threads == 0
                         ? support::ThreadPool::hardware_threads()
                         : options_.threads;
    if (lanes > n_) lanes = n_ == 0 ? 1 : n_;
    if (lanes > 1) {
      pool_ = std::make_unique<support::ThreadPool>(lanes);
      // Two banks of staging arenas, alternated by round parity: the
      // delivered wire holds pointers into the bank it was stitched from
      // until the next round's computation has read it, so that round must
      // stage elsewhere.
      stage_.reserve(2 * std::size_t{lanes});
      for (unsigned i = 0; i < 2 * lanes; ++i) stage_.emplace_back(n_);
      for (unsigned b = 0; b < 2; ++b) {
        bank_ptrs_[b].reserve(lanes);
        for (unsigned w = 0; w < lanes; ++w) {
          bank_ptrs_[b].push_back(&stage_[b * lanes + w]);
        }
      }
    }
    lanes_ = lanes;
  }

  const FaultState& faults() const { return faults_; }

  /// Worker lanes this runner steps phase 1 with (1 = serial).
  unsigned lanes() const { return lanes_; }

  RunResult run(Machine<P>& machine) {
    OMX_REQUIRE(machine.num_processes() == n_,
                "machine/process-count mismatch (machine has " +
                    std::to_string(machine.num_processes()) +
                    " processes, runner drives " + std::to_string(n_) + ")");
    const std::uint64_t base_calls = ledger_->calls();
    const std::uint64_t base_bits = ledger_->bits();

    machine.set_lanes(lanes_);

    MessagePlane<P> plane(n_);
    RunResult result;
    Metrics& m = result.metrics;
    EngineStats* const stats = options_.stats;
    if (stats) stats->threads = lanes_;
    // Pool busy-ns baselines, so lane_busy_ns reports this run only even
    // when the same runner executes several machines.
    std::vector<std::uint64_t> lane_busy_base;
    if (stats && pool_) {
      lane_busy_base.resize(lanes_);
      for (unsigned w = 0; w < lanes_; ++w) {
        lane_busy_base[w] = pool_->lane_busy_ns(w);
      }
    }
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0;
    Clock::time_point t1;
    const bool watchdog = options_.deadline.count() > 0;
    const Clock::time_point give_up_at = Clock::now() + options_.deadline;

    // Tracing: rng draws are staged per process by the tap (hooked into the
    // ledger for the duration of the run, RAII so an engine exception
    // unhooks it) and drained in id order at the shard barrier; corruption
    // transitions are detected by diffing the fault state against
    // `corrupt_seen` after each intervention. All of it is skipped — and
    // emit() compiles to nothing — when tracing is off.
    trace::TraceWriter* const tracer =
        trace::kCompiledIn ? options_.trace : nullptr;
    trace::RngTap tap(tracer != nullptr ? n_ : 0);
    const rng::ScopedDrawObserver hook(ledger_,
                                       tracer != nullptr ? &tap : nullptr);
    std::vector<char> corrupt_seen;
    if (tracer != nullptr) corrupt_seen.assign(n_, 0);

    std::uint32_t round = 0;
    for (;; ++round) {
      if (machine.finished()) break;
      if (round >= options_.max_rounds) {
        result.hit_round_cap = true;
        break;
      }
      if (watchdog && Clock::now() >= give_up_at) {
        result.hit_deadline = true;
        break;
      }
      ledger_->begin_round_window();
      machine.begin_round(round);
      if (tracer != nullptr) {
        tracer->emit(trace::Event{round, trace::kRoundBegin, 0, 0, 0, 0});
      }

      // Phase 1: local computation (+ queuing of sends). Sharded when the
      // runner has lanes and the ledger proves budget checks cannot depend
      // on billing order this round; serial otherwise.
      if (stats) t0 = Clock::now();
      plane.begin_round(round);
      const bool sharded =
          lanes_ > 1 &&
          ledger_->racked_admissible(kRngSlackCalls, kRngSlackBits);
      if (sharded) {
        ledger_->begin_racked_phase();
        pool_->run([&](unsigned w) {
          SendLog<P>& log = *bank_ptrs_[round & 1][w];
          log.clear();
          log.set_round(round);
          const auto lo =
              static_cast<ProcessId>((std::uint64_t{n_} * w) / lanes_);
          const auto hi =
              static_cast<ProcessId>((std::uint64_t{n_} * (w + 1)) / lanes_);
          for (ProcessId p = lo; p < hi; ++p) {
            RoundIo<P> io(round, p, &plane, &log, &ledger_->source(p), w);
            machine.round(p, io);
          }
        });
        if (stats) t1 = Clock::now();
        // Shard order == ascending process-id order: the wire ends up
        // byte-identical to a serial round.
        plane.stitch(bank_ptrs_[round & 1]);
        ledger_->end_racked_phase(kRngSlackCalls, kRngSlackBits);
      } else {
        for (ProcessId p = 0; p < n_; ++p) {
          RoundIo<P> io(round, p, &plane, &plane.log(), &ledger_->source(p));
          machine.round(p, io);
        }
      }
      plane.seal();
      if (stats && sharded) {
        stats->stage_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(t1 - t0).count());
        stats->merge_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(Clock::now() - t1).count());
        ++stats->parallel_rounds;
      }
      if (tracer != nullptr) tap.drain(round, *tracer);
      if (stats) {
        stats->compute_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(Clock::now() - t0).count());
      }

      // Phase 2: adversary intervention (full information), then a
      // defense-in-depth audit: AdversaryContext validates each action
      // eagerly, but an adversary holding a raw plane pointer (or the
      // referee's fault-injection backdoor) could bypass it, so the engine
      // re-validates the round's net effect before delivering.
      if (stats) t0 = Clock::now();
      AdversaryContext<P> ctx(round, &plane, &faults_);
      adversary_->intervene(ctx);
      audit_intervention(plane, round);
      if (tracer != nullptr) {
        // Processes newly corrupted by this intervention, in id order (the
        // canonical trace order; the live corruption order is not recorded).
        for (const ProcessId p : faults_.corrupted().ids()) {
          if (!corrupt_seen[p]) {
            corrupt_seen[p] = 1;
            tracer->emit(trace::Event{round, trace::kCorrupt, 0, p,
                                      faults_.num_corrupted(), 0});
          }
        }
      }
      if (stats) {
        stats->adversary_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(Clock::now() - t0).count());
      }

      // Phase 3: delivery + accounting. Sent-but-omitted messages still
      // count toward communication (the sender spent the bits).
      if (stats) t0 = Clock::now();
      plane.deliver(m, tracer, pool_.get(), lanes_);
      if (stats) {
        stats->delivery_ns += static_cast<std::uint64_t>(
            std::chrono::nanoseconds(Clock::now() - t0).count());
        ++stats->rounds;
      }
      m.rounds = round + 1;
    }

    m.random_calls = ledger_->calls() - base_calls;
    m.random_bits = ledger_->bits() - base_bits;
    m.corrupted = faults_.num_corrupted();
    if (stats && pool_) {
      if (stats->lane_busy_ns.size() != lanes_) {
        stats->lane_busy_ns.assign(lanes_, 0);
      }
      for (unsigned w = 0; w < lanes_; ++w) {
        stats->lane_busy_ns[w] +=
            pool_->lane_busy_ns(w) - lane_busy_base[w];
      }
    }
    if (tracer != nullptr) {
      const std::uint32_t reason =
          result.hit_deadline ? 2u : (result.hit_round_cap ? 1u : 0u);
      tracer->emit(
          trace::Event{round, trace::kFinish, 0, reason, 0, m.rounds});
    }
    return result;
  }

 private:
  /// Legality firewall, second layer: every omission must touch a corrupted
  /// endpoint and spare self-deliveries, and the corruption count must
  /// respect the budget t — no matter how the adversary effected its
  /// actions. Violations throw AdversaryViolation with round/process
  /// context, matching what AdversaryContext enforces eagerly.
  void audit_intervention(const MessagePlane<P>& plane, std::uint32_t round) {
    if (faults_.num_corrupted() > faults_.budget()) {
      throw AdversaryViolation(
          "round " + std::to_string(round) +
          ": corruption budget exceeded (" +
          std::to_string(faults_.num_corrupted()) +
          " corrupted processes > t=" + std::to_string(faults_.budget()) +
          ")");
    }
    plane.for_each_dropped_link([&](std::size_t, ProcessId from,
                                    ProcessId to) {
      if (from == to) {
        throw AdversaryViolation(
            "round " + std::to_string(round) +
            ": omitted the self-delivery of process " + std::to_string(from));
      }
      if (!faults_.is_corrupted(from) && !faults_.is_corrupted(to)) {
        throw AdversaryViolation(
            "round " + std::to_string(round) + ": omitted message " +
            std::to_string(from) + "->" + std::to_string(to) +
            " between two non-corrupted processes");
      }
    });
  }

  std::uint32_t n_;
  rng::Ledger* ledger_;
  Adversary<P>* adversary_;
  Options options_;
  FaultState faults_;
  unsigned lanes_ = 1;
  std::unique_ptr<support::ThreadPool> pool_;
  // Two banks of per-lane staging arenas (bank b lane w = stage_[b*lanes+w])
  // plus the pointer lists stitch() consumes, in shard order.
  std::vector<SendLog<P>> stage_;
  std::vector<SendLog<P>*> bank_ptrs_[2];
};

}  // namespace omx::sim
