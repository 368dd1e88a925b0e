// SolveReport: the one result type of the api facade, for every backend:
// eigenpairs and convergence counters always, mpi_lite traffic counters for
// the MpiLite backend, and the modeled-time / link-utilization section for
// the Sim backend -- so callers switch backends without switching result
// handling, in the spirit of standardized benchmark reporting.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "la/matrix.hpp"
#include "net/universe.hpp"
#include "obs/phase_timing.hpp"

namespace jmh::api {

/// The failure taxonomy of the solving stack. Every way a solve can end is
/// one of these; no failure mode escapes the svc boundary as an untyped
/// exception (SolverService wraps stragglers as Internal). The names are
/// the wire-stable strings the future rpc layer will serialize.
enum class SolveStatus : std::uint8_t {
  Ok = 0,
  DeadlineExceeded,  ///< deadline_ms elapsed; solve stopped at a sweep boundary
  Cancelled,         ///< caller or shutdown cancelled the token
  TransportCorrupt,  ///< wire checksum mismatch or failed allreduce (retryable)
  Shed,              ///< rejected before work: queue full or service shut down
  InvalidInput,      ///< bad spec, wrong shape, non-finite matrix entries
  Internal,          ///< anything else -- a bug, by definition
};

/// Canonical uppercase name ("DEADLINE_EXCEEDED", ...), as rendered into
/// report JSON and service logs.
std::string to_string(SolveStatus status);

/// The typed failure of the api/svc surface: carries its SolveStatus so
/// callers dispatch on taxonomy, not on what() substrings. Derives from
/// std::runtime_error, so generic catch sites keep working.
class SolveError : public std::runtime_error {
 public:
  SolveError(SolveStatus status, const std::string& what)
      : std::runtime_error(to_string(status) + ": " + what), status_(status) {}
  SolveStatus status() const noexcept { return status_; }
  /// True for transient environment faults worth a bounded retry
  /// (SolverService's retry-with-backoff keys off this).
  bool retryable() const noexcept { return status_ == SolveStatus::TransportCorrupt; }

 private:
  SolveStatus status_;
};

struct SolveReport {
  // -- scenario echo ---------------------------------------------------------
  Task task = Task::Evd;
  Backend backend = Backend::Inline;
  ord::OrderingKind ordering = ord::OrderingKind::Degree4;
  /// Packets per block actually used by the run's exchange phases
  /// (0 = unpipelined; the Inline backend always executes unpipelined).
  std::uint64_t pipelining_q = 0;
  /// Truncated-solve order of the run (spec.topk): 0 = full solve; k > 0
  /// means the solution fields below carry only the leading k pairs.
  int topk = 0;

  // -- solution (every backend) ----------------------------------------------
  // task=evd|gevd fills eigenvalues + eigenvectors (gevd vectors are
  // B-orthonormal); task=svd|pca fills singular_values + u and stores the
  // right singular vectors V in `eigenvectors` (both core paths accumulate
  // the same rotation matrix -- for the eigenproblem its columns are the
  // eigenvectors, for the SVD they are V; for task=pca the V columns are
  // the principal axes). The unused vectors stay empty.
  std::vector<double> eigenvalues;  ///< ascending (task=evd|gevd)
  la::Matrix eigenvectors;          ///< evd/gevd: eigenvector k | svd/pca: right vector v_k
  std::vector<double> singular_values;  ///< descending (task=svd|pca)
  la::Matrix u;                         ///< left singular vectors (task=svd|pca)
  /// task=pca only: sigma_k^2 / sum_j sigma_j^2 per component, descending
  /// with singular_values; empty for every other task.
  std::vector<double> explained_variance;
  int sweeps = 0;                   ///< sweeps that performed >= 1 rotation
  bool converged = false;
  std::size_t rotations = 0;
  /// Ok on every report returned from a solve (failures throw SolveError
  /// instead); carried here so machine consumers of report_to_json -- and
  /// the service driver, which synthesizes degraded-job reports -- share
  /// one status vocabulary.
  SolveStatus status = SolveStatus::Ok;

  // -- traffic (MpiLite backend; zeros otherwise) ----------------------------
  net::CommStats comm;

  // -- phase timing ----------------------------------------------------------
  /// Where the wall time went (obs/phase_timing.hpp). plan_ns always;
  /// queue_ns/retries for service jobs; sweep_ns/comm_ns/assembly_ns only
  /// when the spec had trace=1 (unarmed solves pay no attribution clocks).
  obs::PhaseTimings timings;

  // -- modeled time (Sim backend) --------------------------------------------
  bool has_model = false;     ///< true iff the fields below are meaningful
  double modeled_time = 0.0;  ///< total modeled communication time
  double vote_time = 0.0;     ///< part spent in convergence allreduces
  int modeled_sweeps = 0;     ///< sweeps charged (incl. the final all-skip one)
  /// Busy time of each directed channel, indexed node * d + link.
  std::vector<double> link_busy;

  /// Mean busy fraction over channels and the modeled makespan (0 without a
  /// model section).
  double mean_link_utilization() const;

  /// Human-readable multi-line rendering (scenario, convergence, traffic,
  /// and -- when present -- the modeled-time section).
  std::string summary() const;
};

/// One-line JSON rendering of a report, for machine consumers (the CLI's
/// --json mode, the service driver's per-job output). The field set and
/// order are STABLE -- pinned by tests/test_api_facade.cpp -- and every key
/// is always present (traffic/model fields are zero outside their backend):
///   spec_version, task, backend, ordering, m, rows, pipeline_q, topk,
///   converged, sweeps, rotations, spectrum_min, spectrum_max,
///   explained_leading, comm_messages, comm_elements, comm_barriers,
///   has_model, modeled_time, vote_time, modeled_sweeps,
///   mean_link_utilization, plan_ns, queue_ns, sweep_ns, comm_ns,
///   assembly_ns, retries, status
/// spec_version comes FIRST (api::kSpecVersion: consumers dispatch on it
/// before reading anything else).
/// For task=svd|pca, m/rows are the input shape (wide inputs included:
/// the vector matrices carry the caller's orientation after assembly) and
/// spectrum_min/spectrum_max the extreme singular values.
/// explained_leading is the leading component's explained-variance ratio
/// for task=pca, 0 for every other task.
/// Doubles print as %.17g (exact round trip); no whitespace, no newline.
std::string report_to_json(const SolveReport& report);

}  // namespace jmh::api
