#include "api/task_adapter.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "la/pca.hpp"
#include "la/shift.hpp"
#include "la/sym_gen.hpp"

namespace jmh::api {

namespace {

/// True when the spec names a wide rectangular input (rows < m): the core
/// solves the transpose, and assemble swaps the singular-vector roles.
bool is_wide(const SolverSpec& spec) { return spec.rows != 0 && spec.rows < spec.m; }

// -- evd ---------------------------------------------------------------------

class EvdAdapter final : public TaskAdapter {
 public:
  Task task() const noexcept override { return Task::Evd; }
  CoreKind core_kind() const noexcept override { return CoreKind::Eigen; }

  CoreGeometry core_geometry(const SolverSpec& spec) const override {
    return {spec.m, spec.m};
  }

  void check_input(const SolverSpec& spec, const la::Matrix& a) const override {
    JMH_REQUIRE(a.is_square(), "eigenproblem needs a square matrix");
    JMH_REQUIRE(a.rows() == spec.m, "matrix order must match the plan's spec.m");
  }

  PreparedProblem prepare(const SolverSpec& spec, const la::Matrix& a) const override {
    if (!spec.gershgorin_shift) return {};  // identity: the core sees the input
    // Solve A + sigma*I (positive semidefinite by Gershgorin); assemble
    // shifts the spectrum back. Same operation order as the pre-adapter
    // facade, so shifted solves stay bit-identical.
    PreparedProblem prep;
    prep.shift = la::gershgorin_radius(a);
    prep.a = la::add_diagonal_shift(a, prep.shift);
    return prep;
  }

  void assemble(const SolverSpec& spec, const PreparedProblem& prep,
                SolveReport& report) const override {
    if (!spec.gershgorin_shift) return;
    for (double& ev : report.eigenvalues) ev -= prep.shift;
  }
};

// -- svd ---------------------------------------------------------------------

class SvdAdapter final : public TaskAdapter {
 public:
  Task task() const noexcept override { return Task::Svd; }
  CoreKind core_kind() const noexcept override { return CoreKind::Svd; }

  CoreGeometry core_geometry(const SolverSpec& spec) const override {
    // The blocks partition the SHORT side: a wide input is solved as its
    // (tall) transpose, so its m columns become the core's rows.
    if (is_wide(spec)) return {spec.rows, spec.m};
    return {spec.m, spec.input_rows()};
  }

  void check_input(const SolverSpec& spec, const la::Matrix& a) const override {
    JMH_REQUIRE(a.cols() == spec.m, "column count must match the plan's spec.m");
    JMH_REQUIRE(a.rows() == spec.input_rows(),
                "row count must match the plan's spec rows (rows=, or m when unset)");
  }

  PreparedProblem prepare(const SolverSpec& spec, const la::Matrix& a) const override {
    if (!is_wide(spec)) return {};  // tall/square runs the caller's matrix
    PreparedProblem prep;
    prep.a = la::transposed(a);
    return prep;
  }

  void assemble(const SolverSpec& spec, const PreparedProblem&,
                SolveReport& report) const override {
    // A = U S V^T <=> A^T = V S U^T: the core factored A^T, so its U is our
    // V and vice versa. sigma is shared.
    if (is_wide(spec)) std::swap(report.u, report.eigenvectors);
  }
};

// -- pca ---------------------------------------------------------------------

class PcaAdapter final : public TaskAdapter {
 public:
  Task task() const noexcept override { return Task::Pca; }
  CoreKind core_kind() const noexcept override { return CoreKind::Svd; }

  CoreGeometry core_geometry(const SolverSpec& spec) const override {
    if (is_wide(spec)) return {spec.rows, spec.m};
    return {spec.m, spec.input_rows()};
  }

  void check_input(const SolverSpec& spec, const la::Matrix& a) const override {
    JMH_REQUIRE(a.cols() == spec.m, "column count must match the plan's spec.m");
    JMH_REQUIRE(a.rows() == spec.input_rows(),
                "row count must match the plan's spec rows (rows=, or m when unset)");
  }

  PreparedProblem prepare(const SolverSpec& spec, const la::Matrix& a) const override {
    // PCA is the SVD of the column-centered data matrix. Centering always
    // happens in the caller's orientation (columns = variables); only then
    // does a wide input flip to its transpose for the core.
    PreparedProblem prep;
    la::Matrix centered = a;
    prep.col_means = la::center_columns(centered);
    prep.a = is_wide(spec) ? la::transposed(centered) : std::move(centered);
    return prep;
  }

  void assemble(const SolverSpec& spec, const PreparedProblem&,
                SolveReport& report) const override {
    if (is_wide(spec)) std::swap(report.u, report.eigenvectors);
    report.explained_variance = la::explained_variance_ratios(report.singular_values);
  }
};

// -- gevd --------------------------------------------------------------------

class GevdAdapter final : public TaskAdapter {
 public:
  Task task() const noexcept override { return Task::Gevd; }
  CoreKind core_kind() const noexcept override { return CoreKind::Eigen; }

  CoreGeometry core_geometry(const SolverSpec& spec) const override {
    return {spec.m, spec.m};
  }

  void check_input(const SolverSpec& spec, const la::Matrix& a) const override {
    JMH_REQUIRE(a.is_square(), "generalized eigenproblem needs a square matrix");
    JMH_REQUIRE(a.rows() == spec.m, "matrix order must match the plan's spec.m");
  }

  PreparedProblem prepare(const SolverSpec& spec, const la::Matrix& a) const override {
    // A x = lambda B x with B = L L^T reduces to the standard symmetric
    // problem C y = lambda y, C = L^{-1} A L^{-T}, x = L^{-T} y. B is
    // reconstructed from bseed so every backend whitens identically.
    PreparedProblem prep;
    la::Matrix l = la::cholesky_factor(gevd_b_matrix(spec));
    prep.a = la::whiten_symmetric(a, l);
    prep.chol_l = std::move(l);
    return prep;
  }

  void assemble(const SolverSpec&, const PreparedProblem& prep,
                SolveReport& report) const override {
    // Back-substitute the whitened eigenvectors: x_k = L^{-T} y_k. The
    // columns are B-orthonormal (x_i^T B x_j = delta_ij), not orthonormal.
    report.eigenvectors = la::unwhiten_columns(prep.chol_l, report.eigenvectors);
  }
};

}  // namespace

const TaskAdapter& adapter_for(Task task) {
  static const EvdAdapter evd;
  static const SvdAdapter svd;
  static const PcaAdapter pca;
  static const GevdAdapter gevd;
  switch (task) {
    case Task::Evd: return evd;
    case Task::Svd: return svd;
    case Task::Pca: return pca;
    case Task::Gevd: return gevd;
  }
  JMH_CHECK(false, "unknown Task");
  return evd;  // unreachable
}

la::Matrix gevd_b_matrix(const SolverSpec& spec) {
  Xoshiro256 rng(spec.bseed);
  return la::random_spd(spec.m, rng);
}

}  // namespace jmh::api
