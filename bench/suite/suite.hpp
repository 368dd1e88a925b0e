// Shared pieces of the end-to-end benchmark runner (bench/suite/runner.cpp):
// seeded inputs, the correctness gate, per-op records, the calibration
// rungs of the layer cost ladder, and the open-loop service workload.
//
// The runner reaches the library only through public entry points
// (api::Solver / SolvePlan, svc::SolverService and the per-layer functions
// the rungs time), so it measures what a caller of each layer sees.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/solver.hpp"
#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "obs/trace.hpp"

namespace jmh::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- inputs -----------------------------------------------------------------

/// Independent input streams, so warm-up, timed and probe inputs never
/// coincide for one seed.
enum class Stream : std::uint64_t {
  kTimed = 1,
  kWarmup = 2,
  kProbe = 3,
  kArrivals = 4,
  kSchedule = 5,
};

/// The RNG of job @p index in @p stream for workload seed @p seed. Every job
/// gets its own input, so no result cache can ever score a hit.
Xoshiro256 job_rng(std::uint64_t seed, Stream stream, std::uint64_t index);

/// The input a spec takes: symmetric m x m with entries on [-1, 1] (evd),
/// SPD m x m (gevd), or rows x m with entries on [-1, 1] (svd, pca).
la::Matrix make_input(const api::SolverSpec& spec, Xoshiro256& rng);

// ---- correctness gate -------------------------------------------------------

/// The eigensolver_cli --check criteria, per task: residual (eigenpair,
/// svd on the centred data for pca, A x - lambda B x for gevd) and the
/// orthogonality defect of the vector matrix (B-orthonormality for gevd).
class Checker {
 public:
  static constexpr double kTolerance = 1e-10;

  /// True when @p r is Ok, converged, and within kTolerance on both.
  bool check(const api::SolverSpec& spec, const la::Matrix& a, const api::SolveReport& r);

  /// Largest residual / defect seen so far (reported with the results).
  double worst_residual() const noexcept { return worst_residual_; }
  double worst_orthogonality() const noexcept { return worst_orth_; }

 private:
  /// gevd's B side, rebuilt once per bseed.
  const la::Matrix& gevd_b(const api::SolverSpec& spec);

  std::map<std::uint64_t, la::Matrix> gevd_b_;
  double worst_residual_ = 0.0;
  double worst_orth_ = 0.0;
};

/// Bitwise equality of the solution and convergence fields of two reports
/// (the cross-backend parity contract).
bool bit_identical(const api::SolveReport& x, const api::SolveReport& y);

/// @p spec with the backend switched to inline: the twin whose result an
/// mpi or sim solve of the same matrix must reproduce bit for bit.
api::SolverSpec inline_twin(api::SolverSpec spec);

// ---- per-op records ---------------------------------------------------------

/// What the ladder needs to know about one solved op (taken from its
/// report and its plan, never from inside the library).
struct OpRecord {
  std::uint64_t index = 0;
  double latency_s = 0.0;  ///< plan.solve call, or scheduled send -> future ready
  bool ok = false;         ///< completed, and passed the correctness gate
  int sweeps = 0;
  std::size_t rotations = 0;
  std::uint64_t messages = 0;
  std::uint64_t elements = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t sweep_ns = 0;
  std::uint64_t comm_ns = 0;
  std::uint64_t assembly_ns = 0;
  // Shape of the op, for the ladder's rung x count terms.
  std::size_t cols = 0;   ///< core columns (min(rows, m))
  std::size_t rows = 0;   ///< core rows
  int ranks = 1;          ///< concurrent endpoints (2^d on mpi, else 1)
  api::Backend backend = api::Backend::Inline;
  std::size_t steps_per_sweep = 0;
};

OpRecord record_of(const api::SolvePlan& plan, const api::SolveReport& r, std::uint64_t index,
                   double latency_s);

// ---- end-to-end timings ------------------------------------------------------

/// One of the consecutive slices of a timed phase. End-to-end timings are
/// medians over the slices, so a host stall spoils one slice, not the run.
struct Segment {
  std::vector<double> latency_ms;
  double ok = 0.0;       ///< ops completed and correct (open loop: within the limit too)
  double seconds = 0.0;  ///< timed seconds
  double cpu_s = 0.0;    ///< process CPU seconds over them
  double ops = 0.0;      ///< ops that CPU time is charged to
};

/// Slices for a phase of @p samples ops: one per 1000, so each slice's p99
/// still has ten samples beyond it, and between 1 and 9.
std::size_t segment_count(std::size_t samples);

struct Timings {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_ops_s = 0.0;
  double cpu_ms_per_op = 0.0;
};
Timings median_over_segments(const std::vector<Segment>& segments);

// ---- small statistics and process probes ------------------------------------

/// Linear-interpolation quantile (numpy's default); 0 for an empty input.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double process_cpu_seconds();  ///< user + system time of the whole process
double peak_rss_mb();          ///< ru_maxrss
/// The shared exec pool's busy seconds over all workers, and its queue
/// high-water mark (0 when JMH_EXEC_POOL=off disables it).
double pool_busy_seconds();
double pool_queue_high_water();

// ---- calibration rungs ------------------------------------------------------

/// The shape the rungs are timed at: a workload's representative spec.
struct RungShape {
  std::size_t m = 32;
  std::size_t rows = 32;  ///< B column length
  int d = 2;
  std::vector<std::string> specs;  ///< every spec the workload plans
};

/// One-call costs of each layer's public entry points, medians of repeated
/// batches. Kernel costs are also kept per element so ops of other shapes
/// can be priced.
struct Rungs {
  double gram3_gbs = 0.0, gram3_ns_per_elem = 0.0;
  double rotate_gbs = 0.0, rotate_ns_per_elem = 0.0;
  double seq_solve_ms = 0.0;
  double roundtrip_us = 0.0, roundtrip_us_per_elem = 0.0;
  double checksum_us = 0.0;
  double universe_run_us = 0.0, sendrecv_us = 0.0, allreduce_us = 0.0;
  double run_gang_us = 0.0, task_us = 0.0;
  double plan_us = 0.0;
};

Rungs calibrate(const RungShape& shape, std::uint64_t seed);

/// Workload-level per-op times the ladder adds to the rung x count terms:
/// the traced mean assembly time, and the sampled sim-minus-inline-twin
/// time (the event-network model) for sim ops.
struct LadderMeans {
  double assembly_ms = 0.0;
  double sim_model_ms = 0.0;
};

/// The per-op wall time the rungs account for (ms): kernels (over the
/// concurrent ranks), block exchanges, votes and the per-solve gang cost on
/// mpi, the network model on sim, plus queue wait from the report and the
/// traced mean assembly time.
struct LadderTerms {
  double kernel_ms = 0.0;
  double explained_ms = 0.0;
};
LadderTerms ladder_terms(const OpRecord& op, const Rungs& rungs, const LadderMeans& means);

// ---- traced runs ------------------------------------------------------------

/// Accumulates trace events across snapshot/reset cycles, so no thread's
/// ring wraps during a traced run.
class TraceLog {
 public:
  /// Arms the recorder (runner-level; specs also carry trace=1).
  void begin();
  /// Moves every resident event into the log, clears the rings, re-arms.
  /// Only call while no other thread records.
  void collect();
  void end();

  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Chrome trace_event JSON of the first @p max_events events.
  void write_chrome(const std::string& path, std::size_t max_events) const;

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< duration minus the time child spans cover
  };
  /// Per span name, nesting resolved per recording thread.
  std::vector<SelfTime> self_times() const;

 private:
  std::vector<obs::TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

// ---- the open-loop service workload ------------------------------------------

struct MixEntry {
  double weight = 1.0;
  std::string spec_text;
  api::SolverSpec spec;
};

/// bench/suite/workloads/svc_open.txt: the weighted spec mix, the rate
/// ladder (absolute jobs/s) and the latency limit.
struct OpenLoopConfig {
  std::vector<MixEntry> mix;
  std::vector<double> rates;
  std::size_t measured_step = 0;  ///< ladder step the end-to-end metrics come from
  double latency_limit_ms = 20.0;
};

OpenLoopConfig load_open_loop_config(const std::string& path);

/// One step of the rate ladder.
struct StepResult {
  double rate = 0.0;
  double wall_s = 0.0;  ///< the sending window plus the drain of its last jobs
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;       ///< failed futures or failed checks
  std::uint64_t sheds = 0;        ///< try_submit refusals
  std::uint64_t over_limit = 0;   ///< completed but slower than the limit
  std::uint64_t backlog_end = 0;  ///< outstanding jobs when the step's sending ended
  double p50_ms = 0.0, p99_ms = 0.0;
  double gen_lag_p99_ms = 0.0;
  std::vector<Segment> segments;  ///< by scheduled send time
  double dispatcher_busy_s = 0.0;
  double pool_busy_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0, batches = 0;
  bool sustained = false;  ///< p99 within the limit, no growing backlog, no failure
  std::vector<OpRecord> ops;
};

struct OpenLoopResult {
  double setup_s = 0.0;
  StepResult settle;  ///< untimed traffic before the ladder (checked, not measured)
  std::vector<StepResult> steps;
  std::size_t dispatchers = 0;
  std::size_t pool_workers = 0;
  double pool_queue_high_water = 0.0;  ///< read when the ladder ends
  double poll_interval_ms = 0.0;
  double worst_residual = 0.0;
  double worst_orthogonality = 0.0;
  std::uint64_t twins_checked = 0;
};

/// Runs the ladder over @p seconds: each step sends Poisson arrivals for
/// its share of the time, waits for every job, then checks every report.
/// The measured step does so in independent windows, one per segment.
OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, std::uint64_t seed, double seconds);

/// The traced variant: @p jobs jobs at the measured step's rate with
/// trace=1 specs, recorded into @p log.
StepResult run_open_loop_traced(const OpenLoopConfig& cfg, std::uint64_t seed, std::size_t jobs,
                                TraceLog& log);

/// Closed-loop service capacity of the mix (jobs/s), used to derive the
/// rate ladder recorded in the workload file.
double measure_capacity(const OpenLoopConfig& cfg, std::uint64_t seed, double seconds);

}  // namespace jmh::suite
