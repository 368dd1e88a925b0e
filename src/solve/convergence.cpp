#include "solve/convergence.hpp"

#include "common/assert.hpp"
#include "common/bitops.hpp"
#include "common/stats.hpp"
#include "la/sym_gen.hpp"
#include "solve/inline_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::solve {

ConvergenceCell convergence_cell(std::size_t m, int p, ord::OrderingKind kind,
                                 const ConvergenceConfig& config) {
  JMH_REQUIRE(p >= 2 && is_pow2(static_cast<std::uint64_t>(p)), "P must be a power of two >= 2");
  const int d = ilog2(static_cast<std::uint64_t>(p));
  const ord::JacobiOrdering ordering(kind, d);

  SolveOptions opts;
  opts.threshold = config.threshold;
  opts.max_sweeps = config.max_sweeps;
  opts.stop_rule = config.stop_rule;
  opts.off_tol = config.off_tol;

  RunningStats stats;
  for (int rep = 0; rep < config.repetitions; ++rep) {
    // Matrix depends only on (seed, m, rep) so every ordering sees the very
    // same 30 matrices, as in the paper.
    Xoshiro256 rng(config.seed ^ (static_cast<std::uint64_t>(m) << 32) ^
                   static_cast<std::uint64_t>(rep));
    const la::Matrix a = la::random_uniform_symmetric(m, rng);
    // Only the sweep count is measured, so the engine runs bare over the
    // deterministic inline substrate; no eigenpairs are assembled.
    InlineTransport transport(a, d);
    const EngineResult r = run_sweep_protocol(transport, ordering, opts);
    JMH_CHECK(r.converged, "convergence experiment instance did not converge");
    stats.add(static_cast<double>(r.sweeps));
  }

  ConvergenceCell cell;
  cell.m = m;
  cell.p = p;
  cell.mean_sweeps = stats.mean();
  cell.stddev_sweeps = stats.stddev();
  cell.repetitions = config.repetitions;
  return cell;
}

std::vector<ConvergenceRow> table2_grid(const ConvergenceConfig& config) {
  std::vector<ConvergenceRow> rows;
  for (std::size_t m : {8u, 16u, 32u, 64u}) {
    for (int p = 2; static_cast<std::size_t>(p) <= m / 2; p *= 2) {
      ConvergenceRow row;
      row.m = m;
      row.p = p;
      row.br = convergence_cell(m, p, ord::OrderingKind::BR, config).mean_sweeps;
      row.permuted_br =
          convergence_cell(m, p, ord::OrderingKind::PermutedBR, config).mean_sweeps;
      row.degree4 = convergence_cell(m, p, ord::OrderingKind::Degree4, config).mean_sweeps;
      rows.push_back(row);
    }
  }
  return rows;
}

}  // namespace jmh::solve
