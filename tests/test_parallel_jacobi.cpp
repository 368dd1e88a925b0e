// The distributed eigensolver end to end through the api facade: the inline
// and mpi_lite backends against the sequential cyclic reference.
#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/onesided_jacobi.hpp"
#include "la/sym_gen.hpp"

namespace jmh::api {
namespace {

la::Matrix test_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  return la::random_uniform_symmetric(n, rng);
}

SolveReport solve_on(Backend backend, const la::Matrix& a, ord::OrderingKind kind, int d,
                     int max_sweeps = SolverSpec{}.max_sweeps) {
  SolverSpec spec;
  spec.m = a.cols();
  spec.d = d;
  spec.ordering = kind;
  spec.backend = backend;
  spec.max_sweeps = max_sweeps;
  return Solver::plan(spec).solve(a);
}

struct SolverCase {
  ord::OrderingKind kind;
  int d;
  std::size_t m;
};

class InlineSolverTest : public ::testing::TestWithParam<SolverCase> {};

TEST_P(InlineSolverTest, MatchesSequentialReference) {
  const auto [kind, d, m] = GetParam();
  const la::Matrix a = test_matrix(m, 1000 + m);
  const SolveReport dist = solve_on(Backend::Inline, a, kind, d);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  ASSERT_TRUE(dist.converged);
  ASSERT_TRUE(ref.converged);
  EXPECT_LT(la::spectrum_distance(dist.eigenvalues, ref.eigenvalues), 1e-8);
  EXPECT_LT(la::eigenpair_residual(a, dist.eigenvalues, dist.eigenvectors), 1e-9);
  EXPECT_LT(la::orthogonality_defect(dist.eigenvectors), 1e-10);
}

std::vector<SolverCase> solver_cases() {
  std::vector<SolverCase> cases;
  for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::PermutedBR,
                    ord::OrderingKind::Degree4, ord::OrderingKind::MinAlpha}) {
    cases.push_back({kind, 1, 8});
    cases.push_back({kind, 2, 16});
    cases.push_back({kind, 3, 16});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, InlineSolverTest, ::testing::ValuesIn(solver_cases()),
                         [](const ::testing::TestParamInfo<SolverCase>& pinfo) {
                           std::string name = ord::to_string(pinfo.param.kind) + "_d" +
                                              std::to_string(pinfo.param.d) + "_m" +
                                              std::to_string(pinfo.param.m);
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return name;
                         });

TEST(InlineSolver, UnevenColumnSplit) {
  // 13 columns over 8 blocks: sizes differ by one; must still be exact.
  const la::Matrix a = test_matrix(13, 77);
  const SolveReport dist = solve_on(Backend::Inline, a, ord::OrderingKind::PermutedBR, 2);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  ASSERT_TRUE(dist.converged);
  EXPECT_LT(la::spectrum_distance(dist.eigenvalues, ref.eigenvalues), 1e-8);
}

TEST(InlineSolver, DiagonalConvergesInZeroSweeps) {
  const la::Matrix a = la::diagonal({4.0, 3.0, 2.0, 1.0, 0.5, -1.0, -2.0, -3.0});
  const SolveReport r = solve_on(Backend::Inline, a, ord::OrderingKind::BR, 1);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.sweeps, 0);
}

TEST(InlineSolver, KnownSpectrumRecovered) {
  // NOTE: the spectrum must be free of +/- magnitude ties: one-sided Jacobi
  // converges to the SVD, so eigenvalues lambda and -lambda share a singular
  // subspace and cannot be separated (see test_onesided_jacobi's
  // PlusMinusTieLimitation).
  Xoshiro256 rng(5);
  const std::vector<double> spectrum = {-8.0, -2.5, -1.0, 0.25, 1.5, 2.0, 4.0, 16.0};
  const la::Matrix a = la::symmetric_with_spectrum(spectrum, rng);
  const SolveReport r = solve_on(Backend::Inline, a, ord::OrderingKind::Degree4, 1);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, spectrum), 1e-8);
}

TEST(InlineSolver, RotationCountMatchesPairCoverage) {
  // First sweep of an m=16, d=2 solve touches every pair at most once:
  // m(m-1)/2 = 120 rotations is the per-sweep ceiling.
  const la::Matrix a = test_matrix(16, 9);
  const SolveReport r = solve_on(Backend::Inline, a, ord::OrderingKind::BR, 2, /*max_sweeps=*/1);
  EXPECT_LE(r.rotations, 120u);
  EXPECT_GT(r.rotations, 100u);  // random matrix: almost every pair rotates
}

TEST(MpiSolver, AgreesWithInlineSolver) {
  const la::Matrix a = test_matrix(16, 21);
  const SolveReport inline_r = solve_on(Backend::Inline, a, ord::OrderingKind::PermutedBR, 2);
  const SolveReport mpi_r = solve_on(Backend::MpiLite, a, ord::OrderingKind::PermutedBR, 2);
  ASSERT_TRUE(mpi_r.converged);
  EXPECT_EQ(mpi_r.sweeps, inline_r.sweeps);
  EXPECT_LT(la::spectrum_distance(mpi_r.eigenvalues, inline_r.eigenvalues), 1e-12);
  EXPECT_LT(la::Matrix::max_abs_diff(mpi_r.eigenvectors, inline_r.eigenvectors), 1e-12);
}

TEST(MpiSolver, AllOrderingsConvergeOnThreads) {
  const la::Matrix a = test_matrix(16, 33);
  for (auto kind : {ord::OrderingKind::BR, ord::OrderingKind::Degree4}) {
    const SolveReport r = solve_on(Backend::MpiLite, a, kind, 2);
    ASSERT_TRUE(r.converged) << ord::to_string(kind);
    EXPECT_LT(la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);
  }
}

TEST(MpiSolver, LargerCube) {
  const la::Matrix a = test_matrix(32, 55);
  const SolveReport r = solve_on(Backend::MpiLite, a, ord::OrderingKind::Degree4, 3);
  ASSERT_TRUE(r.converged);
  const la::JacobiResult ref = la::onesided_jacobi_cyclic(a);
  EXPECT_LT(la::spectrum_distance(r.eigenvalues, ref.eigenvalues), 1e-8);
}

TEST(Solver, NonSquareRejected) {
  const SolvePlan plan = Solver::plan(SolverSpec::parse("ordering=br,m=4,d=1"));
  EXPECT_THROW(plan.solve(la::Matrix(3, 4)), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::api
