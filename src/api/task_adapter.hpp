// TaskAdapter: the per-task pre/post transforms around the task-agnostic
// sweep core.
//
// Every Task runs the SAME distributed machinery -- one-sided Jacobi
// orthogonalizes the columns of B = A_core * V over a hypercube of blocks --
// and differs only at the edges:
//
//         core_geometry(spec)       plan-time: the shape the CORE solves
//   a --> check_input(spec, a)      solve-time: input-shape REQUIREs
//     --> prepare(spec, a)          pre-transform: the matrix the core sees
//     --> [sweep core: SolvePlan::solve_prepared, backend-dispatched]
//     --> assemble(spec, prep, report)   post-transform on the core result
//
// Adapters only ever see specs SolverSpec::validate() accepted: the
// per-task legality rules (shapes, bseed, the shift/topk bans) live there
// with the rest of the spec rules, not here.
//
// The core's output (a SolveReport carrying the raw eigen/svd solution of
// the PREPARED matrix) plays the CoreResult role: assemble edits it in
// place into the caller-facing report. Adapters are stateless singletons --
// adapter_for(Task) returns a process-lifetime reference -- so SolvePlan
// stays immutable and thread-safe.
//
// The four registered adapters:
//   evd   identity prepare (or Gershgorin shift: solve A + sigma*I, subtract
//         sigma back in assemble)
//   svd   tall/square inputs pass through untouched; a wide input (rows < m)
//         is solved as its TRANSPOSE and U/V are swapped back in assemble
//         (A = U S V^T <=> A^T = V S U^T)
//   pca   center the columns of the data matrix, SVD the centered copy
//         (transposing first when wide), report explained-variance ratios
//   gevd  A x = lambda B x with B SPD: B = la::random_spd(m, rng(bseed)),
//         B = L L^T, core solves C = L^{-1} A L^{-T}; assemble back-
//         substitutes x = L^{-T} y (B-orthonormal eigenvectors)
//
// Bit-parity contract: for the pre-existing scenarios (task=evd, tall/square
// task=svd) prepare returns the IDENTITY transform -- an empty matrix, so
// the core consumes the caller's matrix by reference with no copy -- and
// assemble is a no-op. Results are bit-for-bit what the pre-adapter facade
// produced (pinned by the transport/svd/topk parity suites).
#pragma once

#include <vector>

#include "api/report.hpp"
#include "api/spec.hpp"
#include "la/matrix.hpp"

namespace jmh::api {

/// Which of the core's two extraction paths a task consumes: the symmetric
/// eigensolution (lambda_k = v_k . b_k) or the SVD (sigma_k = ||b_k||,
/// u_k = b_k / sigma_k). This is the ONLY task-dependence inside
/// solve_prepared; everything else lives in the adapter edges.
enum class CoreKind { Eigen, Svd };

/// The shape of the matrix the CORE solves (post prepare), which is what
/// the block layout partitions and the pipelining optimizer models -- NOT
/// necessarily the caller's input shape (wide svd/pca solve the transpose).
struct CoreGeometry {
  std::size_t cols = 0;  ///< columns the blocks partition (min(rows, m))
  std::size_t rows = 0;  ///< core input rows
};

/// Everything prepare computed that assemble (or the core) needs later.
/// `a` empty (rows() == 0) means the identity pre-transform: the core
/// consumes the caller's matrix directly -- no copy, and bit-parity with
/// the pre-adapter facade is structural rather than asserted.
struct PreparedProblem {
  la::Matrix a;                    ///< core input; empty = use the caller's matrix
  double shift = 0.0;              ///< evd: Gershgorin sigma to subtract back
  std::vector<double> col_means;   ///< pca: removed column means
  la::Matrix chol_l;               ///< gevd: lower Cholesky factor of B
};

class TaskAdapter {
 public:
  virtual ~TaskAdapter() = default;

  virtual Task task() const noexcept = 0;

  /// Which core extraction this task consumes (fixed per task).
  virtual CoreKind core_kind() const noexcept = 0;

  /// The core problem shape for @p spec: what the BlockLayout partitions,
  /// what the m >= 2^(d+1) gate applies to, and what the pipelining
  /// optimizer's ProblemParams describe.
  virtual CoreGeometry core_geometry(const SolverSpec& spec) const = 0;

  /// Solve-time input-shape check against the plan's spec (throws
  /// std::invalid_argument on mismatch -- never a partial solve).
  virtual void check_input(const SolverSpec& spec, const la::Matrix& a) const = 0;

  /// The pre-transform: builds the matrix the core solves plus whatever
  /// assemble needs to undo it. Identity transforms return an empty
  /// PreparedProblem::a (see above).
  virtual PreparedProblem prepare(const SolverSpec& spec, const la::Matrix& a) const = 0;

  /// The post-transform: edits the core result (the raw solution of the
  /// prepared matrix, living in @p report) into the caller-facing report.
  virtual void assemble(const SolverSpec& spec, const PreparedProblem& prep,
                        SolveReport& report) const = 0;
};

/// The registry: the process-lifetime adapter for @p task. Total over the
/// Task enum -- adding a Task without registering an adapter is a
/// compile-visible switch hole.
const TaskAdapter& adapter_for(Task task);

/// task=gevd's B-side matrix for @p spec, reconstructed from bseed alone:
/// la::random_spd(spec.m, Xoshiro256(spec.bseed)). Exposed so the CLI's
/// --check path and the parity tests whiten against the identical B the
/// solve used.
la::Matrix gevd_b_matrix(const SolverSpec& spec);

}  // namespace jmh::api
