// Sequential one-sided Jacobi SVD (reference implementation).
//
// The machinery of la/onesided_jacobi.hpp is the canonical SVD algorithm as
// much as a symmetric eigensolver: one-sided Jacobi orthogonalizes the
// columns of B = A * V directly -- no Gram matrix is ever formed -- so for a
// rectangular m x n input A the converged state gives the thin SVD
// A = U * diag(sigma) * V^T: the singular values are the final column norms
// ||b_k||, U the normalized columns b_k / sigma_k, and V the accumulated
// rotations. The column pairing reuses the same kernels (kernels::gram3 +
// kernels::fused_rotate) as the eigensolver; only the extraction at the end
// differs.
//
// Serves the same two roles as the eigensolver reference: (a) the ground
// truth the distributed task=svd backends are checked against, and (b) a
// single-node baseline with a pluggable pair order.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "la/matrix.hpp"
#include "la/onesided_jacobi.hpp"

namespace jmh::la {

struct SvdResult {
  std::vector<double> singular_values;  ///< descending, all >= 0
  Matrix u;  ///< m x n; column k pairs with singular_values[k] (zero when sigma_k == 0)
  Matrix v;  ///< n x n right singular vectors; column k pairs with singular_values[k]
  int sweeps = 0;             ///< sweeps that performed >= 1 rotation
  bool converged = false;     ///< a full sweep performed no rotation
  std::size_t rotations = 0;  ///< total rotations applied
};

/// Extracts (sigma, U, V) from a converged one-sided working pair: sigma_k =
/// ||b_k||, columns sorted by descending sigma (ties broken by original
/// column index, so the order is deterministic), u_k = b_k / sigma_k (the
/// zero vector when sigma_k == 0: a rank-deficient column has no defined
/// left vector). Shared by this sequential driver and the distributed
/// assembly (api::SolvePlan), which is what makes every backend produce
/// bit-identical results from the same final blocks.
SvdResult svd_from_bv(const Matrix& b, const Matrix& v);

/// One-sided Jacobi SVD of a (possibly rectangular) m x n matrix with the
/// given per-sweep column-pair order over the n columns. Options as in the
/// eigensolver reference; gershgorin_shift must be off (a diagonal shift has
/// no SVD meaning).
SvdResult onesided_jacobi_svd(const Matrix& a,
                              const std::function<SweepPattern(int)>& pattern_provider,
                              const JacobiOptions& opts = {});

/// Convenience overload: row-cyclic pair ordering.
SvdResult onesided_jacobi_svd_cyclic(const Matrix& a, const JacobiOptions& opts = {});

/// Shape-agnostic sequential reference (row-cyclic): tall/square inputs run
/// onesided_jacobi_svd_cyclic directly; a wide input is factored as its
/// transpose with U and V swapped back (A = U S V^T <=> A^T = V S U^T) --
/// the same pre/post transform the api task adapter applies, so this is the
/// ground truth for wide task=svd runs too.
SvdResult onesided_jacobi_svd_any(const Matrix& a, const JacobiOptions& opts = {});

}  // namespace jmh::la
