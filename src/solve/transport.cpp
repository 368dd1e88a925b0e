#include "solve/transport.hpp"

#include "obs/trace.hpp"

namespace jmh::solve {

SweepStats Transport::run_phase(const PhaseContext& ctx) {
  SweepStats stats;
  const std::size_t end = ctx.phase.first_step + ctx.phase.num_steps;
  for (std::size_t s = ctx.phase.first_step; s < end; ++s) {
    visit_nodes(
        [&](JacobiNode& node) { stats += node.inter_block_pairings(ctx.threshold, ctx.activity); });
    const std::uint64_t step = global_step(ctx.sweep, ctx.steps_per_sweep, s);
    // One comm span per transition: real messages for mpi_lite endpoints
    // delegating here, block-pointer moves for the single-owner transports.
    const obs::SpanScope comm_span("transition", obs::Category::kComm, step,
                                   ctx.timing != nullptr ? &ctx.timing->comm_ns : nullptr);
    apply_transition(ctx.transitions[s], step);
  }
  return stats;
}

}  // namespace jmh::solve
