#include "la/shift.hpp"

#include <gtest/gtest.h>

#include "api/solver.hpp"
#include "la/eigen_check.hpp"
#include "la/onesided_jacobi.hpp"
#include "la/sym_gen.hpp"

namespace jmh::la {
namespace {

TEST(Shift, GershgorinBoundsSpectralRadius) {
  Xoshiro256 rng(3);
  const Matrix a = random_uniform_symmetric(12, rng);
  const double radius = gershgorin_radius(a);
  const auto r = onesided_jacobi_cyclic(a);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(std::abs(r.eigenvalues.front()), radius);
  EXPECT_LE(std::abs(r.eigenvalues.back()), radius);
}

TEST(Shift, GershgorinOfDiagonal) {
  const Matrix d = diagonal({3.0, -7.0, 1.0});
  EXPECT_DOUBLE_EQ(gershgorin_radius(d), 7.0);
}

TEST(Shift, AddDiagonalShift) {
  Matrix a(2, 2);
  a(0, 1) = a(1, 0) = 2.0;
  const Matrix s = add_diagonal_shift(a, 5.0);
  EXPECT_DOUBLE_EQ(s(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(s(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 2.0);
}

TEST(Shift, ShiftedSolveSeparatesPlusMinusTies) {
  // The exact configuration the unshifted method cannot handle (see
  // test_onesided_jacobi PlusMinusTieLimitation): +/-lambda pairs.
  Xoshiro256 rng(19);
  const std::vector<double> spectrum = {-2.0, 1.0, 2.0, 5.0};
  const Matrix a = symmetric_with_spectrum(spectrum, rng);
  JacobiOptions opts;
  opts.gershgorin_shift = true;
  const auto r = onesided_jacobi_cyclic(a, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(spectrum_distance(r.eigenvalues, spectrum), 1e-8);
  EXPECT_LT(eigenpair_residual(a, r.eigenvalues, r.eigenvectors), 1e-9);
}

TEST(Shift, ShiftedSolveMatchesUnshiftedOnGenericMatrix) {
  Xoshiro256 rng(7);
  const Matrix a = random_uniform_symmetric(10, rng);
  JacobiOptions shifted;
  shifted.gershgorin_shift = true;
  const auto r1 = onesided_jacobi_cyclic(a, shifted);
  const auto r2 = onesided_jacobi_cyclic(a);
  ASSERT_TRUE(r1.converged && r2.converged);
  EXPECT_LT(spectrum_distance(r1.eigenvalues, r2.eigenvalues), 1e-8);
}

TEST(Shift, DistributedShiftedSolve) {
  Xoshiro256 rng(23);
  const std::vector<double> spectrum = {-4.0, -1.0, 1.0, 2.0, 3.0, 4.0, 6.0, 9.0};
  const Matrix a = symmetric_with_spectrum(spectrum, rng);
  const auto r = api::Solver::solve(api::SolverSpec::parse("ordering=pbr,m=8,d=1,shift=1"), a);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(spectrum_distance(r.eigenvalues, spectrum), 1e-8);
}

TEST(Shift, DistributedMpiShiftedSolve) {
  Xoshiro256 rng(29);
  const std::vector<double> spectrum = {-3.0, -1.5, 1.5, 3.0, 4.0, 5.0, 6.0, 7.0};
  const Matrix a = symmetric_with_spectrum(spectrum, rng);
  const auto r =
      api::Solver::solve(api::SolverSpec::parse("backend=mpi,ordering=d4,m=8,d=1,shift=1"), a);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(spectrum_distance(r.eigenvalues, spectrum), 1e-8);
}

TEST(Shift, NonSquareRejected) {
  Matrix a(2, 3);
  EXPECT_THROW(gershgorin_radius(a), std::invalid_argument);
  EXPECT_THROW(add_diagonal_shift(a, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace jmh::la
