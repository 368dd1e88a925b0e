// SimTransport: InlineTransport numerics plus a modeled clock. Every block
// move of the sweep protocol is also charged as a stage on the sim::Network
// model, so a solve reports the per-link communication time the paper's
// machine model (pipe::MachineParams) predicts for it -- the simulated
// CC-cube scenario of the paper's Figure 2 methodology, directly
// cross-checkable against the analytical pipe/cost_model closed forms.
//
// Charged per sweep:
//   * one stage per transition (exchange, division, last transition), each
//     node sending the block it actually ships (2 * rows * ncols elements:
//     the B and V columns; serialization headers are not part of the
//     machine model) -- or, with q >= 1, the pipelined stage schedule of
//     each exchange phase at degree q (sim::for_each_pipelined_window);
//   * the recursive-doubling convergence vote (d stages of a small packed
//     message), which the analytical model omits -- kept separately
//     inspectable via vote_time.
// Every charge refills one reused per-node stage buffer and folds the stage
// into a running makespan and per-channel busy time, so the steady-state
// sweep allocates nothing and the engine audits it like any other backend.
// Numerics are identical to InlineTransport in both modes: pipelining
// changes the modeled schedule, not which column pairs meet.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.hpp"
#include "solve/inline_transport.hpp"

namespace jmh::solve {

class SimTransport : public InlineTransport {
 public:
  /// Owns all 2^d nodes of @p a's solve and charges every message on a
  /// network built from @p config (machine model and startup overlap).
  /// @p q == 0 charges exchange phases as full-block transitions; q >= 1
  /// charges them as pipelined schedules with q packets per block.
  SimTransport(const la::Matrix& a, int d, const sim::SimConfig& config, std::uint64_t q = 0);

  void apply_transition(const ord::Transition& t, std::uint64_t step) override;
  SweepStats run_phase(const PhaseContext& ctx) override;
  void allreduce_sum(std::span<double> values) override;

  double modeled_time() const noexcept { return clock_.makespan; }
  double vote_time() const noexcept { return vote_time_; }
  int modeled_sweeps() const noexcept { return modeled_sweeps_; }
  /// Makespan and per-channel busy time; stage_times stays empty.
  const sim::SimResult& clock() const noexcept { return clock_; }

 private:
  void charge_vote(std::size_t num_values);

  sim::Network network_;
  std::uint64_t q_;
  sim::SimResult clock_;
  std::vector<sim::NodeStage> stage_;  ///< per-node sends of the stage being charged
  sim::NodeStage window_;              ///< pipelined window, before replication
  std::vector<ord::Link> phase_links_;  ///< exchange-phase links after the sigma rotation
  double vote_time_ = 0.0;
  int modeled_sweeps_ = 0;
  bool charge_transitions_ = true;  // suppressed while a phase charges itself
};

}  // namespace jmh::solve
