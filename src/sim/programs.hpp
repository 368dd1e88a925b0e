// Builders turning orderings and pipelined schedules into simulator
// programs, plus end-to-end simulation entry points used to cross-validate
// the analytical cost model (experiment E9 in DESIGN.md).
#pragma once

#include <span>

#include "common/function_ref.hpp"
#include "ord/ordering.hpp"
#include "pipe/cost_model.hpp"
#include "sim/network.hpp"

namespace jmh::sim {

/// Program for one unpipelined sweep: every transition is one stage in
/// which every node sends one full-size block message through the
/// transition's link.
Program build_sweep_program(const ord::JacobiOrdering& ordering, int sweep, double step_elems);

/// Program for one exchange phase pipelined with degree @p q: one stage per
/// pipeline stage (for_each_pipelined_window), replicated over every node.
/// Shallow and deep modes both supported (deep materializes q - K + 1
/// kernel stages; keep q moderate).
Program build_pipelined_phase_program(const ord::LinkSequence& seq, std::uint64_t q,
                                      double step_elems, int d);

/// The stage windows of one exchange phase over @p links pipelined with
/// degree @p q: the prologue's growing prefixes, the kernel windows (in
/// deep mode, q > links.size(), q - K + 1 copies of the whole phase) and
/// the epilogue's shrinking suffixes. Calls @p emit once per stage, in
/// order, with one node's sends: the window's packets of step_elems / q
/// elements packed per link, in ascending link order. @p window is the
/// output buffer, rewritten for every stage; once its capacity covers d
/// messages, generating allocates nothing. Every precondition is checked
/// before the first emit.
void for_each_pipelined_window(std::span<const ord::Link> links, std::uint64_t q,
                               double step_elems, int d, NodeStage& window,
                               common::FunctionRef<void(const NodeStage&)> emit);

/// Same, from an explicit link list -- accepts sigma-rotated phase links,
/// which use the whole [0, d) range and therefore cannot be wrapped in a
/// canonical LinkSequence of the phase's order.
Program build_pipelined_links_program(const std::vector<ord::Link>& links, std::uint64_t q,
                                      double step_elems, int d);

/// Simulated communication time of one unpipelined sweep.
double simulate_sweep(const ord::JacobiOrdering& ordering, int sweep, double step_elems,
                      const SimConfig& config);

/// Simulated communication time of one pipelined exchange phase.
double simulate_pipelined_phase(const ord::LinkSequence& seq, std::uint64_t q,
                                double step_elems, int d, const SimConfig& config);

/// Full-sweep program with every exchange phase pipelined: phase e = d..1
/// uses q_per_phase[d-e] packets (as reported by
/// pipe::sweep_cost_pipelined); divisions and the last transition are
/// single full-size message stages. Inter-sweep link rotation sigma_sweep
/// is honored.
Program build_pipelined_sweep_program(const ord::JacobiOrdering& ordering, int sweep,
                                      double step_elems,
                                      const std::vector<std::uint64_t>& q_per_phase);

/// Simulated communication time of one fully-pipelined sweep.
SimResult simulate_sweep_pipelined(const ord::JacobiOrdering& ordering, int sweep,
                                   double step_elems,
                                   const std::vector<std::uint64_t>& q_per_phase,
                                   const SimConfig& config);

}  // namespace jmh::sim
