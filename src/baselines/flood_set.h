// Standalone deterministic flood-set consensus (the [15]-substitute run as
// a protocol of its own): the Table-1 "deterministic regime" baseline.
//
// Θ(t) rounds, Θ(n²·t·log n)-bit worst case, zero randomness, correct with
// probability 1 under ≤ t omission faults. Algorithm 1 beats it on rounds
// by ~√n and on bits by ~t/polylog — exactly the separation Table 1 claims.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/flood_fallback.h"
#include "core/messages.h"
#include "core/optimal_core.h"  // MemberOutcome
#include "sim/adversary.h"
#include "sim/machine.h"

namespace omx::baselines {

class FloodSetMachine final : public sim::Machine<core::Msg> {
 public:
  FloodSetMachine(std::uint32_t t, std::vector<std::uint8_t> inputs);

  void set_fault_view(const sim::FaultState* faults) { faults_ = faults; }
  std::uint32_t scheduled_rounds() const { return fallback_.total_rounds(); }
  core::MemberOutcome outcome(sim::ProcessId p) const;

  std::uint32_t num_processes() const override { return n_; }
  void begin_round(std::uint32_t round) override;
  void round(sim::ProcessId p, sim::RoundIo<core::Msg>& io) override;
  bool finished() const override;

 private:
  struct PState {
    bool terminated = false;
    std::uint8_t decision = 0;
    std::int64_t decision_round = -1;
  };

  std::uint32_t n_;
  core::FloodFallback fallback_;
  std::vector<PState> st_;
  std::uint32_t cur_round_ = 0;
  std::uint32_t rounds_seen_ = 0;
  // Incremented from concurrently stepped processes; the final per-round
  // value is order-independent, so relaxed increments keep determinism.
  std::atomic<std::uint32_t> terminated_count_{0};
  const sim::FaultState* faults_ = nullptr;
};

}  // namespace omx::baselines
