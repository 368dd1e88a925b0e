// SimTransport: correct eigenpairs plus a modeled clock that matches the
// analytical communication model of pipe/cost_model.
//
// With m divisible by 2^{d+1} every transition ships exactly the model's
// S = m^2/2^d elements, so the charged per-sweep transition time equals the
// closed form sweep_cost_unpipelined to round-off; the convergence votes
// (which the analytical model omits) are tracked separately and are small,
// keeping the total within the 2x acceptance band.
#include <gtest/gtest.h>

#include <cmath>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/sym_gen.hpp"
#include "pipe/cost_model.hpp"

namespace jmh::api {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

/// A sim-backend solve of @p a on the d-cube; @p q >= 1 charges exchange
/// phases as pipelined schedules (pipeline=<q>), 0 as full blocks.
SolveReport sim_solve(const la::Matrix& a, ord::OrderingKind kind, int d, std::uint64_t q = 0) {
  SolverSpec spec;
  spec.m = a.cols();
  spec.d = d;
  spec.ordering = kind;
  spec.backend = Backend::Sim;
  if (q > 0) {
    spec.pipelining = PipeliningPolicy::Fixed;
    spec.q = q;
  }
  return Solver::plan(spec).solve(a);
}

class SimCostParityTest : public ::testing::TestWithParam<int> {};

TEST_P(SimCostParityTest, UnpipelinedSweepMatchesCostModel) {
  const int d = GetParam();
  const std::size_t m = 32;  // divisible by 2^{d+1} for d in {2, 3}
  const la::Matrix a = test_matrix(m, 1000 + static_cast<std::uint64_t>(d));
  const SolveReport r = sim_solve(a, ord::OrderingKind::BR, d);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);

  pipe::ProblemParams prob;
  prob.d = d;
  prob.m = static_cast<double>(m);
  const pipe::MachineParams machine;  // the spec default: ts = 1000, tw = 100
  const double model_sweep = pipe::sweep_cost_unpipelined(prob, machine);

  // Transition charges alone reproduce the closed form exactly.
  ASSERT_GT(r.modeled_sweeps, 0);
  const double sim_sweep = (r.modeled_time - r.vote_time) / r.modeled_sweeps;
  EXPECT_NEAR(sim_sweep, model_sweep, 1e-6 * model_sweep);

  // Acceptance band: total modeled time (votes included) per sweep within
  // 2x of the analytical per-sweep communication prediction.
  const double total_per_sweep = r.modeled_time / r.modeled_sweeps;
  EXPECT_GE(total_per_sweep, 0.5 * model_sweep);
  EXPECT_LE(total_per_sweep, 2.0 * model_sweep);

  EXPECT_GT(r.mean_link_utilization(), 0.0);
  EXPECT_LE(r.mean_link_utilization(), 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Dims, SimCostParityTest, ::testing::Values(2, 3),
                         [](const ::testing::TestParamInfo<int>& pinfo) {
                           // Built by append, not operator+(const char*,
                           // string&&): the latter trips a gcc 12 -Wrestrict
                           // false positive once inlined.
                           std::string name = "d";
                           name += std::to_string(pinfo.param);
                           return name;
                         });

TEST(SimTransport, PipelinedChargingMatchesPhaseCostModel) {
  const int d = 3;
  const std::size_t m = 32;
  const la::Matrix a = test_matrix(m, 7);
  const ord::JacobiOrdering ordering(ord::OrderingKind::BR, d);
  const SolveReport r = sim_solve(a, ord::OrderingKind::BR, d, 2);
  ASSERT_TRUE(r.converged);

  // Expected per-sweep comm: each exchange phase at degree q (the sigma
  // rotation relabels links and leaves the cost invariant), plus d division
  // transitions and the last transition at full block size.
  pipe::ProblemParams prob;
  prob.d = d;
  prob.m = static_cast<double>(m);
  const pipe::MachineParams machine;
  const double s = prob.step_message_elems();
  double expected = static_cast<double>(d + 1) * pipe::transition_cost(machine, s);
  for (int e = d; e >= 1; --e)
    expected += pipe::phase_cost_pipelined(ordering.exchange_sequence(e), 2, s, machine);

  const double sim_sweep = (r.modeled_time - r.vote_time) / r.modeled_sweeps;
  EXPECT_NEAR(sim_sweep, expected, 1e-6 * expected);

  // Numerics are unchanged by the modeled pipelining.
  const SolveReport plain = sim_solve(a, ord::OrderingKind::BR, d);
  EXPECT_EQ(plain.sweeps, r.sweeps);
  EXPECT_LT(la::spectrum_distance(plain.eigenvalues, r.eigenvalues), 1e-15);
}

TEST(SimTransport, VoteTimeIsSmallAndPositive) {
  const la::Matrix a = test_matrix(16, 5);
  const SolveReport r = sim_solve(a, ord::OrderingKind::Degree4, 2);
  ASSERT_TRUE(r.converged);
  EXPECT_GT(r.vote_time, 0.0);
  EXPECT_LT(r.vote_time, r.modeled_time);
}

}  // namespace
}  // namespace jmh::api
