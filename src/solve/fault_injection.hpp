// Deterministic fault injection for any Transport.
//
// FaultInjectingTransport decorates a real transport with the failure modes
// a networked deployment would see -- stalled exchanges, bit-flipped
// payloads, failed allreduce votes -- drawn from a seeded, replayable
// schedule (FaultPlan, solve/transport.hpp). The decisions are pure hashes
// of (seed, attempt, kind, event index): no RNG state, no communication, so
//
//   * every endpoint of an mpi_lite solve draws the SAME schedule and hits
//     the same fault at the same global step (no one-rank deadlocks);
//   * a run is replayable bit-for-bit from its seed (chaos soak triage);
//   * a retry with attempt+1 redraws every fault, which is what makes the
//     service's bounded retry-with-backoff meaningful.
//
// With all rates zero the decorator is pure delegation: solves are
// bit-identical to the bare transport (tested per backend), so it can stay
// in the stack permanently and be enabled by spec key alone.
#pragma once

#include <cstdint>

#include "net/mailbox.hpp"
#include "solve/transport.hpp"

namespace jmh::solve {

/// The pure decision function behind FaultInjectingTransport, exposed so
/// tests (and the service's retry search) can predict a schedule without
/// running a solve.
class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultPlan& plan) : plan_(plan) {}

  /// Does transition @p step (global_step index) get its payload corrupted?
  bool corrupt_at(std::uint64_t step) const noexcept;
  /// Is transition @p step delayed by plan.delay_us?
  bool delay_at(std::uint64_t step) const noexcept;
  /// Does the @p vote_index-th allreduce of the run fail?
  bool vote_fails(std::uint64_t vote_index) const noexcept;
  /// Which payload bit (mod payload size) flips when corrupt_at is true.
  std::uint64_t corrupt_bit(std::uint64_t step) const noexcept;

 private:
  FaultPlan plan_;
};

/// Wraps @p inner, injecting the scheduled faults ahead of the work they
/// target and delegating everything else untouched. Injected corruption is
/// surfaced through the real detection path -- the payload is serialized,
/// one bit is flipped, and ColumnBlock::assign_from raises TransportCorrupt
/// from its wire checksum -- so the soak exercises exactly the code a real
/// corrupted exchange would.
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner, const FaultPlan& plan)
      : inner_(inner), schedule_(plan), delay_us_(plan.delay_us) {}

  int dimension() const override { return inner_.dimension(); }
  std::size_t num_columns() const override { return inner_.num_columns(); }
  void visit_nodes(common::FunctionRef<void(JacobiNode&)> fn) override {
    inner_.visit_nodes(fn);
  }
  void apply_transition(const ord::Transition& t, std::uint64_t step) override {
    inject_step_faults(step);
    inner_.apply_transition(t, step);
  }
  void allreduce_sum(std::span<double> values) override;
  SweepStats run_phase(const PhaseContext& ctx) override;
  std::vector<ColumnBlock> collect_blocks() override { return inner_.collect_blocks(); }

 private:
  void inject_step_faults(std::uint64_t step);

  Transport& inner_;
  FaultSchedule schedule_;
  std::uint64_t delay_us_;
  std::uint64_t votes_ = 0;  ///< allreduce stream index, SPMD-identical
  // Sized on the (throwing) corruption path only; scheduling is pure
  // arithmetic, so a wrapped transport's steady-state sweeps stay
  // allocation-free under the engine's audit.
  net::Payload corrupt_scratch_;
  ColumnBlock corrupt_block_;
};

}  // namespace jmh::solve
