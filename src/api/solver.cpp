#include "api/solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "api/task_adapter.hpp"
#include "common/assert.hpp"
#include "exec/thread_pool.hpp"
#include "la/svd.hpp"
#include "obs/trace.hpp"
#include "pipe/optimizer.hpp"
#include "solve/fault_injection.hpp"
#include "solve/inline_transport.hpp"
#include "solve/mpi_transport.hpp"
#include "solve/sim_transport.hpp"
#include "solve/sweep_engine.hpp"

namespace jmh::api {

namespace {

/// Normalizes a topk selection: sorted ascending, validated unique and in
/// range. Ascending matters for bit-parity -- a selection covering every
/// column becomes exactly the iota permutation the full assembly sorts.
std::vector<std::size_t> sorted_selection(const std::vector<std::size_t>& leading,
                                          std::size_t num_cols) {
  std::vector<std::size_t> sel = leading;
  std::sort(sel.begin(), sel.end());
  JMH_REQUIRE(!sel.empty() && sel.back() < num_cols, "leading selection out of range");
  JMH_REQUIRE(std::adjacent_find(sel.begin(), sel.end()) == sel.end(),
              "leading selection has duplicate columns");
  return sel;
}

/// Reassembles the final blocks, which must jointly cover all b.cols()
/// columns, into the working pair: B (rows x cols) and V (cols x cols).
void gather_blocks(const std::vector<solve::ColumnBlock>& blocks, la::Matrix& b, la::Matrix& v) {
  const std::size_t rows = b.rows();
  const std::size_t cols = b.cols();
  std::vector<char> seen(cols, 0);
  for (const auto& blk : blocks) {
    JMH_REQUIRE(blk.rows == rows && blk.vrows == cols, "block row count mismatch");
    for (std::size_t i = 0; i < blk.num_cols(); ++i) {
      const std::size_t col = blk.cols[i];
      JMH_REQUIRE(col < cols && !seen[col], "column coverage violation in final blocks");
      seen[col] = 1;
      std::copy_n(blk.b.begin() + static_cast<std::ptrdiff_t>(i * rows), rows,
                  b.col(col).begin());
      std::copy_n(blk.v.begin() + static_cast<std::ptrdiff_t>(i * cols), cols,
                  v.col(col).begin());
    }
  }
  JMH_REQUIRE(std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; }),
              "final blocks do not cover every column");
}

/// Eigenpairs of an m x m run: lambda_k = v_k . b_k, sorted ascending. A
/// non-empty @p leading (EngineResult::leading of a topk run) restricts the
/// output to those columns. The comparator and the ascending starting
/// permutation are the same for both, so a selection of every column
/// reproduces the full assembly bit-for-bit, order included.
void assemble_eigen(SolveReport& report, const std::vector<solve::ColumnBlock>& blocks,
                    std::size_t m, const std::vector<std::size_t>& leading) {
  la::Matrix b(m, m);
  la::Matrix v(m, m);
  gather_blocks(blocks, b, v);

  std::vector<std::size_t> order;
  if (leading.empty()) {
    order.resize(m);
    std::iota(order.begin(), order.end(), 0);
  } else {
    order = sorted_selection(leading, m);
  }
  std::vector<double> lambda(m);
  for (std::size_t col : order) lambda[col] = la::dot(v.col(col), b.col(col));
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return lambda[x] < lambda[y]; });

  const std::size_t k_out = order.size();
  report.eigenvalues.resize(k_out);
  report.eigenvectors = la::Matrix(m, k_out);
  for (std::size_t k = 0; k < k_out; ++k) {
    report.eigenvalues[k] = lambda[order[k]];
    const auto src = v.col(order[k]);
    std::copy(src.begin(), src.end(), report.eigenvectors.col(k).begin());
  }
}

/// Singular triplets of a rows x cols run through la::svd_from_bv, so every
/// backend collecting the same blocks produces bit-identical results. V
/// rides in the eigenvectors slot (see SolveReport). @p leading as in
/// assemble_eigen: a proper subset yields the truncated factorization,
/// sigma-descending with svd_from_bv's index tie-break; a selection of
/// every column routes through svd_from_bv itself.
void assemble_svd(SolveReport& report, const std::vector<solve::ColumnBlock>& blocks,
                  std::size_t rows, std::size_t cols, const std::vector<std::size_t>& leading) {
  la::Matrix b(rows, cols);
  la::Matrix v(cols, cols);
  gather_blocks(blocks, b, v);

  if (leading.empty() || leading.size() == cols) {
    if (!leading.empty()) sorted_selection(leading, cols);  // validate only
    la::SvdResult full = la::svd_from_bv(b, v);
    report.singular_values = std::move(full.singular_values);
    report.u = std::move(full.u);
    report.eigenvectors = std::move(full.v);
    return;
  }
  // sel is ascending, so position order == global-id order for the ties.
  const std::vector<std::size_t> sel = sorted_selection(leading, cols);
  const std::size_t k_out = sel.size();
  std::vector<double> sigma(k_out);
  for (std::size_t i = 0; i < k_out; ++i) sigma[i] = la::norm2(b.col(sel[i]));
  std::vector<std::size_t> order(k_out);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return sigma[x] != sigma[y] ? sigma[x] > sigma[y] : x < y;
  });
  report.singular_values.resize(k_out);
  report.u = la::Matrix(rows, k_out);
  report.eigenvectors = la::Matrix(cols, k_out);
  for (std::size_t k = 0; k < k_out; ++k) {
    const std::size_t src = sel[order[k]];
    const double s = sigma[order[k]];
    report.singular_values[k] = s;
    const auto bcol = b.col(src);
    auto ucol = report.u.col(k);
    if (s > 0.0)
      for (std::size_t r = 0; r < bcol.size(); ++r) ucol[r] = bcol[r] / s;
    const auto vcol = v.col(src);
    std::copy(vcol.begin(), vcol.end(), report.eigenvectors.col(k).begin());
  }
}

}  // namespace

SolvePlan::SolvePlan(SolverSpec spec, ord::JacobiOrdering ordering)
    : spec_(spec),
      adapter_(&adapter_for(spec.task)),
      ordering_(std::move(ordering)),
      // The blocks partition what the CORE solves: min(rows, m) columns (a
      // wide svd/pca input runs as its transpose).
      layout_(adapter_->core_geometry(spec).cols, spec.d) {
  JMH_REQUIRE(ordering_.dimension() == spec_.d, "ordering dimension must match spec.d");
  JMH_REQUIRE(ordering_.kind() == spec_.ordering, "ordering kind must match spec.ordering");
  // A traced spec records plan compilation as a span; plan_ns_ itself is
  // measured unconditionally (two clock reads amortized over every solve).
  const obs::ArmScope arm(spec_.trace);
  const obs::SpanScope plan_span("plan", obs::Category::kPlan,
                                 static_cast<std::uint64_t>(spec_.m));
  const std::uint64_t plan_t0 = obs::trace_now_ns();
  // threads= is an execution knob, not part of the numerical scenario:
  // apply it best-effort (an active pool keeps its width) and move on.
  if (spec_.threads > 0 && exec::ThreadPool::enabled())
    exec::ThreadPool::global().ensure_workers(spec_.threads);
  switch (spec_.pipelining) {
    case PipeliningPolicy::Off:
      q_ = 0;
      break;
    case PipeliningPolicy::Fixed:
      q_ = spec_.q;
      break;
    case PipeliningPolicy::Auto: {
      // Qmax = columns a block can be split into; uneven layouts bound by
      // the smallest block so no phase degenerates to empty packets.
      std::uint64_t q_max = layout_.block_size(0);
      for (ord::BlockId b = 1; b < layout_.num_blocks(); ++b)
        q_max = std::min<std::uint64_t>(q_max, layout_.block_size(b));
      q_max = std::max<std::uint64_t>(1, q_max);
      // Rows-aware payload: a rectangular transition moves rows + m elements
      // per column, so the optimal q shifts with the aspect ratio. Modeled
      // on the CORE shape (a wide input transposes before the sweeps).
      const CoreGeometry geo = adapter_->core_geometry(spec_);
      pipe::ProblemParams prob;
      prob.d = spec_.d;
      prob.m = static_cast<double>(geo.cols);
      prob.rows = geo.rows == geo.cols ? 0.0 : static_cast<double>(geo.rows);
      const pipe::OptimalQ best =
          pipe::find_optimal_sweep_q(ordering_, prob, spec_.machine, q_max);
      q_ = best.q;
      planned_cost_ = best.cost;
      break;
    }
  }
  plan_ns_ = obs::trace_now_ns() - plan_t0;
}

SolveReport SolvePlan::solve_prepared(const la::Matrix& a,
                                      const solve::SolveOptions& opts) const {
  SolveReport report;
  report.task = spec_.task;
  report.backend = spec_.backend;
  report.ordering = spec_.ordering;
  report.topk = spec_.topk;

  // The sweep protocol is task-agnostic (it orthogonalizes columns either
  // way); only the extraction from the final blocks differs, and which of
  // the two extractions a task consumes is the adapter's CoreKind. Every
  // backend funnels its final blocks through this one assembly.
  const auto assemble = [&](const std::vector<solve::ColumnBlock>& blocks,
                            const solve::EngineResult& er) {
    const obs::SpanScope span("assemble", obs::Category::kAssembly,
                              static_cast<std::uint64_t>(a.cols()),
                              opts.timing != nullptr ? &opts.timing->assembly_ns : nullptr);
    if (adapter_->core_kind() == CoreKind::Svd)
      assemble_svd(report, blocks, a.rows(), a.cols(), er.leading);
    else
      assemble_eigen(report, blocks, a.rows(), er.leading);
    report.sweeps = er.sweeps;
    report.converged = er.converged;
    report.rotations = er.rotations;
  };

  // Single-owner backends wrap their transport in the fault decorator only
  // when a schedule is armed (mpi wraps per rank inside run_mpi_protocol);
  // a non-Ok engine status aborts before assembly -- partial blocks never
  // become a report.
  const auto run_engine = [&](solve::Transport& transport) {
    solve::EngineResult er;
    if (opts.faults.enabled()) {
      solve::FaultInjectingTransport faulty(transport, opts.faults);
      er = run_sweep_protocol(faulty, ordering_, opts);
    } else {
      er = run_sweep_protocol(transport, ordering_, opts);
    }
    if (er.status != solve::RunStatus::Ok) throw solve::SolveInterrupted(er.status);
    return er;
  };

  switch (spec_.backend) {
    case Backend::Inline: {
      // Pipelining reschedules messages; with no messages to schedule the
      // inline substrate always executes unpipelined.
      solve::InlineTransport transport(a, spec_.d);
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      break;
    }
    case Backend::MpiLite: {
      report.pipelining_q = q_;
      const solve::MpiRunOutcome run = solve::run_mpi_protocol(a, ordering_, opts, q_);
      assemble(run.blocks, run.engine);
      report.comm = run.comm;
      break;
    }
    case Backend::Sim: {
      report.pipelining_q = q_;
      sim::SimConfig config;
      config.machine = spec_.machine;
      config.overlap_startup = spec_.overlap_startup;
      solve::SimTransport transport(a, spec_.d, config, q_);
      const solve::EngineResult er = run_engine(transport);
      assemble(transport.collect_blocks(), er);
      report.has_model = true;
      report.modeled_time = transport.modeled_time();
      report.vote_time = transport.vote_time();
      report.modeled_sweeps = transport.modeled_sweeps();
      report.link_busy = transport.clock().link_busy;
      break;
    }
  }
  return report;
}

SolveReport SolvePlan::solve(const la::Matrix& a) const { return solve(a, {}); }

SolveReport SolvePlan::solve(const la::Matrix& a, const SolveOverrides& overrides) const {
  adapter_->check_input(spec_, a);

  solve::SolveOptions opts = spec_.solve_options();
  opts.cancel = overrides.cancel;
  // The deadline is relative to THIS call, chained under any caller token:
  // whichever fires first decides the status.
  if (spec_.deadline_ms > 0)
    opts.cancel = opts.cancel.with_timeout(std::chrono::milliseconds(spec_.deadline_ms));
  opts.faults.attempt = overrides.fault_attempt;

  // trace=1 arms the process recorder for this call and attaches the phase
  // sink; trace=0 leaves opts.timing null so the hot path pays no clock
  // reads (the bit-identical contract of the spec grammar).
  const obs::ArmScope arm(spec_.trace);
  obs::SolveTimingSink sink;
  if (spec_.trace) opts.timing = &sink;
  const auto finalize = [&](SolveReport& report) {
    report.timings.plan_ns = plan_ns_;
    report.timings.sweep_ns = sink.sweep_ns.load(std::memory_order_relaxed);
    report.timings.comm_ns = sink.comm_ns.load(std::memory_order_relaxed);
    report.timings.assembly_ns = sink.assembly_ns.load(std::memory_order_relaxed);
  };

  // Map the transport layer's typed failures onto the api taxonomy here, at
  // the one place every backend funnels through; anything still escaping as
  // an untyped exception past this point is a bug (svc wraps it Internal).
  try {
    // The adapter sandwich: prepare -> core -> assemble. An identity
    // prepare returns an empty matrix and the core consumes the caller's
    // input by reference -- no copy, and evd/tall-svd solves run the exact
    // pre-adapter path.
    const PreparedProblem prep = adapter_->prepare(spec_, a);
    const la::Matrix& core_a = prep.a.rows() == 0 ? a : prep.a;
    SolveReport report = solve_prepared(core_a, opts);
    adapter_->assemble(spec_, prep, report);
    finalize(report);
    return report;
  } catch (const solve::TransportCorrupt& e) {
    throw SolveError(SolveStatus::TransportCorrupt, e.what());
  } catch (const solve::SolveInterrupted& e) {
    throw SolveError(e.status() == solve::RunStatus::DeadlineExceeded
                         ? SolveStatus::DeadlineExceeded
                         : SolveStatus::Cancelled,
                     e.what());
  }
}

std::vector<SolveReport> SolvePlan::solve_batch(const std::vector<la::Matrix>& as) const {
  std::vector<SolveReport> reports(as.size());
  if (as.empty()) return reports;
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t executors = std::min<std::size_t>(hw > 0 ? hw : 2, as.size());

  // Error semantics must not depend on the executor count (it varies by
  // machine): every matrix is attempted, and the exception rethrown is the
  // LOWEST-INDEX failure, not whichever finished first in wall-clock.
  std::mutex error_mu;
  std::exception_ptr first_error;
  std::size_t first_error_index = as.size();
  // Executors drain a shared index, so a late-starting one (busy pool) just
  // finds it exhausted and no-ops -- the caller's own run() guarantees every
  // matrix is attempted even if no pool worker ever frees up.
  std::atomic<std::size_t> next{0};
  const auto run = [&] {
    for (std::size_t i = next.fetch_add(1); i < as.size(); i = next.fetch_add(1)) {
      try {
        reports[i] = solve(as[i]);
      } catch (...) {
        const std::lock_guard lock(error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::current_exception();
        }
      }
    }
  };

  if (executors <= 1) {
    run();
  } else if (exec::ThreadPool::enabled()) {
    // The caller plus executors-1 tasks on the shared pool; the helping
    // wait makes nested batches (a batch item submitting a batch) safe.
    exec::ThreadPool::TaskGroup group = exec::ThreadPool::global().group();
    for (std::size_t t = 1; t < executors; ++t) group.add(run);
    run();
    group.wait();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(executors - 1);
    for (std::size_t t = 1; t < executors; ++t) threads.emplace_back(run);
    run();
    for (std::thread& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
}

namespace {

/// What both plan overloads check before an ordering exists, so an
/// oversized cube is rejected in microseconds: validate() (which bounds d,
/// so the shift below cannot overflow), then the core-column gate, phrased
/// against the CORE geometry (a wide input solves its transpose, so the
/// short side is what the blocks partition).
void check_plannable(const SolverSpec& spec) {
  spec.validate();
  JMH_REQUIRE(adapter_for(spec.task).core_geometry(spec).cols >= (std::size_t{2} << spec.d),
              "need at least one column per block (min(rows, m) >= 2^(d+1))");
}

}  // namespace

SolvePlan Solver::plan(const SolverSpec& spec) {
  check_plannable(spec);
  JMH_REQUIRE(spec.ordering != ord::OrderingKind::Custom,
              "custom orderings carry their own sequences; use plan(spec, ordering)");
  return SolvePlan(spec, ord::JacobiOrdering(spec.ordering, spec.d));
}

SolvePlan Solver::plan(const SolverSpec& spec, ord::JacobiOrdering ordering) {
  check_plannable(spec);
  return SolvePlan(spec, std::move(ordering));
}

SolveReport Solver::solve(const SolverSpec& spec, const la::Matrix& a) {
  return plan(spec).solve(a);
}

}  // namespace jmh::api
