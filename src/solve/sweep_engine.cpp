#include "solve/sweep_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/alloc_guard.hpp"
#include "common/assert.hpp"
#include "obs/trace.hpp"

namespace jmh::solve {

namespace {

/// Writes each resident column's ||b_k||^2 into vote[cols[i]]. Plain
/// sequential accumulation over the column span -- the SAME order
/// la::norm2 uses in svd_from_bv, so the engine's ranking and assembly's
/// sigma extraction agree bitwise on the final blocks.
void write_column_norms(ColumnBlock& blk, std::span<double> vote) {
  for (std::size_t i = 0; i < blk.num_cols(); ++i) {
    const auto col = blk.col_b(i);
    double s = 0.0;
    for (double x : col) s += x * x;
    vote[blk.cols[i]] = s;
  }
}

/// Maps the shared token's reason onto the run status once the allreduced
/// cancel flag is nonzero. By then the reason is already latched in the
/// token state every endpoint shares (poll() latches before contributing to
/// the vote), so all endpoints translate the same flag to the same status.
RunStatus cancel_status(const common::CancelToken& token) {
  return token.poll() == common::CancelReason::DeadlineExceeded
             ? RunStatus::DeadlineExceeded
             : RunStatus::Cancelled;
}

}  // namespace

EngineResult run_sweep_protocol(Transport& transport, const ord::JacobiOrdering& ordering,
                                const SolveOptions& opts) {
  JMH_REQUIRE(ordering.dimension() == transport.dimension(),
              "ordering/transport dimension mismatch");
  JMH_REQUIRE(opts.topk >= 0, "topk must be non-negative");
  JMH_REQUIRE(opts.topk == 0 || opts.stop_rule == StopRule::NoRotations,
              "topk requires StopRule::NoRotations (per-column activity has no off(A) analogue)");

  // Cancellation is SPMD-coherent: when a token is armed, every vote gains
  // one trailing flag slot so all endpoints decide to stop -- and at which
  // sweep -- from the same allreduced sum. An unarmed solve keeps the
  // historical vote widths, so arming nothing stays bit-identical (including
  // SimTransport's modeled vote time, which depends on the vote width).
  const bool cancellable = opts.cancel.armed();
  const std::size_t flag_slots = cancellable ? 1 : 0;
  const auto cancel_flag = [&] {
    return opts.cancel.poll() != common::CancelReason::None ? 1.0 : 0.0;
  };

  // Phase attribution: null sink = no clock reads anywhere on this path
  // (the trace=0 bit-identical contract includes paying nothing).
  obs::SolveTimingSink* const sink = opts.timing;
  std::atomic<std::uint64_t>* const comm_acc = sink != nullptr ? &sink->comm_ns : nullptr;

  EngineResult out;
  std::array<double, 2> init = {0.0, 0.0};  // [frob2, cancel flag?]
  transport.visit_nodes([&](JacobiNode& node) { init[0] += node.frobenius_squared(); });
  if (cancellable) init[1] = cancel_flag();
  {
    const obs::SpanScope comm_span("allreduce.init", obs::Category::kComm, 0, comm_acc);
    transport.allreduce_sum(std::span<double>(init).first(1 + flag_slots));
  }
  const double frob2 = init[0];
  if (init[1] != 0.0) {  // cancelled before the first sweep
    out.status = cancel_status(opts.cancel);
    return out;
  }

  const std::size_t steps_per_sweep = ordering.steps_per_sweep();
  double total_rotations = 0.0;

  // One vote layout, [norm2_0..norm2_{m-1}, act_0..act_{m-1}, rotations,
  // off2, cancel flag?], with m = 0 unless truncated: a full solve votes
  // [rotations, off2, flag?]. In truncated mode each column's norm is
  // computed entirely on its owning endpoint (every other endpoint
  // contributes an exact 0.0), and the activity flags are small integer
  // sums, so the allreduce stays exact and every endpoint ranks columns
  // identically.
  const auto topk = static_cast<std::size_t>(opts.topk);
  const std::size_t m = topk > 0 ? transport.num_columns() : 0;
  JMH_REQUIRE(topk <= m || topk == 0, "topk exceeds the column count");
  std::vector<double> vote(2 * m + 2 + flag_slots);
  double* const tally = vote.data() + 2 * m;  // [rotations, off2, flag?]
  std::vector<std::uint8_t> activity(m);
  std::vector<std::size_t> ranking(m);
  std::vector<ord::Transition> transitions;  // reused across sweeps

  // The PERF.md allocation-free claim, machine-checked: sweep 0 may size
  // scratch (transition list, transport arenas, the topk leading set);
  // every later sweep of every transport must allocate NOTHING on this
  // thread. Audited per sweep in JMH_DASSERT builds, compiled out under
  // NDEBUG.
  for (int sweep = 0; sweep < opts.max_sweeps; ++sweep) {
    const common::AllocGuard sweep_guard;
    // Inside the guard deliberately: span recording must itself be
    // allocation-free in steady state (the ring preallocates under
    // AllocExempt on a thread's first record).
    const obs::SpanScope sweep_span("sweep", obs::Category::kSweep,
                                    static_cast<std::uint64_t>(sweep),
                                    sink != nullptr ? &sink->sweep_ns : nullptr);
    SweepStats stats;
    std::uint8_t* act = topk > 0 ? activity.data() : nullptr;
    if (act) std::fill(activity.begin(), activity.end(), std::uint8_t{0});
    transport.visit_nodes(
        [&](JacobiNode& node) { stats += node.intra_block_pairings(opts.threshold, act); });

    ordering.sweep_transitions_into(sweep, transitions);
    for (const ord::PhaseInfo& phase : ordering.phases())
      stats += transport.run_phase(
          {phase, transitions, sweep, steps_per_sweep, opts.threshold, act, sink});

    if (topk > 0) {
      const std::span<double> norms = std::span<double>(vote).first(m);
      std::fill(norms.begin(), norms.end(), 0.0);
      transport.visit_nodes([&](JacobiNode& node) {
        write_column_norms(node.fixed(), norms);
        write_column_norms(node.mobile(), norms);
      });
      for (std::size_t k = 0; k < m; ++k) vote[m + k] = static_cast<double>(activity[k]);
    }
    tally[0] = static_cast<double>(stats.rotations);
    tally[1] = stats.off2;
    if (cancellable) tally[2] = cancel_flag();
    {
      const obs::SpanScope comm_span("allreduce.vote", obs::Category::kComm,
                                     static_cast<std::uint64_t>(sweep), comm_acc);
      transport.allreduce_sum(std::span<double>(vote));
    }
    total_rotations += tally[0];

    bool converged = false;
    if (topk > 0) {
      // Rank columns by global norm descending, index ascending -- the same
      // comparator la::svd_from_bv applies to sigma (sqrt is monotone), so
      // the engine's leading set is exactly the head of assembly's order.
      std::iota(ranking.begin(), ranking.end(), std::size_t{0});
      std::sort(ranking.begin(), ranking.end(), [&](std::size_t x, std::size_t y) {
        return vote[x] != vote[y] ? vote[x] > vote[y] : x < y;
      });
      out.leading.assign(ranking.begin(), ranking.begin() + static_cast<std::ptrdiff_t>(topk));
      converged = true;
      for (std::size_t i = 0; i < topk && converged; ++i) converged = vote[m + ranking[i]] == 0.0;
    } else if (opts.stop_rule == StopRule::NoRotations) {
      converged = tally[0] == 0.0;
    } else {
      // off2 is accumulated from pre-rotation dot products, so it measures
      // the matrix state *entering* this sweep: when it is already below
      // tolerance the previous sweep had converged and this one is not
      // counted. The absolute variant drops the ||A||_F scaling (frob2 is
      // still allreduced at init, keeping vote widths and order identical
      // across stop rules -- the bit-parity contract of the other modes).
      const double bound = opts.stop_rule == StopRule::OffDiagonalAbsolute
                               ? opts.off_tol
                               : opts.off_tol * std::sqrt(frob2);
      converged = std::sqrt(2.0 * tally[1]) <= bound;
    }
    if (converged) {
      out.converged = true;
      // A truncated run's converging sweep may still have rotated trailing
      // columns; count it iff it did work (keeps topk == m bit-identical to
      // the full NoRotations path, where the final all-skip sweep is free).
      if (topk > 0 && tally[0] > 0.0) ++out.sweeps;
    } else {
      ++out.sweeps;
      // Cancellation yields to convergence: a sweep that both converged
      // and saw the deadline expire still delivers its result.
      if (cancellable && tally[2] != 0.0) out.status = cancel_status(opts.cancel);
    }
    if (sweep >= 1)
      JMH_ALLOC_ASSERT_ZERO(sweep_guard, "steady-state sweep allocated (PERF.md contract)");
    if (out.converged || out.status != RunStatus::Ok) break;
  }

  out.rotations = static_cast<std::size_t>(total_rotations);
  return out;
}

}  // namespace jmh::solve
