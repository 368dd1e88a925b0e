#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "api/task_adapter.hpp"
#include "exec/thread_pool.hpp"
#include "la/eigen_check.hpp"
#include "la/pca.hpp"
#include "la/sym_gen.hpp"
#include "suite.hpp"

namespace jmh::suite {

Xoshiro256 job_rng(std::uint64_t seed, Stream stream, std::uint64_t index) {
  std::uint64_t state = seed;
  std::uint64_t key = splitmix64_next(state);
  key ^= static_cast<std::uint64_t>(stream) * 0xD1B54A32D192ED03ull;
  key = splitmix64_next(key);
  key ^= index * 0x9E3779B97F4A7C15ull;
  return Xoshiro256(splitmix64_next(key));
}

la::Matrix make_input(const api::SolverSpec& spec, Xoshiro256& rng) {
  switch (spec.task) {
    case api::Task::Svd:
    case api::Task::Pca:
      return la::random_uniform(spec.input_rows(), spec.m, rng);
    case api::Task::Gevd:
      // A definite pencil: an indefinite A leaves +/-lambda ties in the
      // whitened problem that the one-sided method (gevd has no shift)
      // resolves only to ~1e-8.
      return la::random_spd(spec.m, rng);
    case api::Task::Evd:
      break;
  }
  return la::random_uniform_symmetric(spec.m, rng);
}

// ---- correctness gate -------------------------------------------------------

const la::Matrix& Checker::gevd_b(const api::SolverSpec& spec) {
  auto it = gevd_b_.find(spec.bseed);
  if (it == gevd_b_.end() || it->second.rows() != spec.m)
    it = gevd_b_.insert_or_assign(spec.bseed, api::gevd_b_matrix(spec)).first;
  return it->second;
}

bool Checker::check(const api::SolverSpec& spec, const la::Matrix& a,
                    const api::SolveReport& r) {
  if (r.status != api::SolveStatus::Ok || !r.converged) return false;
  double residual = 0.0;
  double orth = 0.0;
  switch (spec.task) {
    case api::Task::Evd:
      residual = la::eigenpair_residual(a, r.eigenvalues, r.eigenvectors);
      orth = la::orthogonality_defect(r.eigenvectors);
      break;
    case api::Task::Svd:
      residual = la::svd_residual(a, r.singular_values, r.u, r.eigenvectors);
      orth = la::orthogonality_defect(r.eigenvectors);
      break;
    case api::Task::Pca: {
      la::Matrix centered = a;
      la::center_columns(centered);
      residual = la::svd_residual(centered, r.singular_values, r.u, r.eigenvectors);
      orth = la::orthogonality_defect(r.eigenvectors);
      break;
    }
    case api::Task::Gevd: {
      // max_k ||A x_k - lambda_k B x_k|| / ||A||_F and max |x_i^T B x_j - delta_ij|.
      const la::Matrix& b = gevd_b(spec);
      const std::size_t m = spec.m;
      const double scale = std::max(la::frobenius(a), 1e-300);
      std::vector<std::vector<double>> bx(r.eigenvectors.cols());
      for (std::size_t k = 0; k < r.eigenvectors.cols(); ++k) {
        const auto xk = r.eigenvectors.col(k);
        bx[k] = la::matvec(b, xk);
        const std::vector<double> ax = la::matvec(a, xk);
        double norm2 = 0.0;
        for (std::size_t row = 0; row < m; ++row) {
          const double diff = ax[row] - r.eigenvalues[k] * bx[k][row];
          norm2 += diff * diff;
        }
        residual = std::max(residual, std::sqrt(norm2) / scale);
      }
      for (std::size_t i = 0; i < bx.size(); ++i)
        for (std::size_t j = i; j < bx.size(); ++j)
          orth = std::max(orth, std::abs(la::dot(r.eigenvectors.col(i), bx[j]) -
                                         (i == j ? 1.0 : 0.0)));
      break;
    }
  }
  worst_residual_ = std::max(worst_residual_, residual);
  worst_orth_ = std::max(worst_orth_, orth);
  return residual <= kTolerance && orth <= kTolerance;
}

namespace {

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool same_bits(const la::Matrix& x, const la::Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() && same_bits(x.data(), y.data());
}

}  // namespace

bool bit_identical(const api::SolveReport& x, const api::SolveReport& y) {
  return x.sweeps == y.sweeps && x.rotations == y.rotations && x.converged == y.converged &&
         same_bits(x.eigenvalues, y.eigenvalues) && same_bits(x.eigenvectors, y.eigenvectors) &&
         same_bits(x.singular_values, y.singular_values) && same_bits(x.u, y.u) &&
         same_bits(x.explained_variance, y.explained_variance);
}

api::SolverSpec inline_twin(api::SolverSpec spec) {
  spec.backend = api::Backend::Inline;
  return spec;
}

// ---- per-op records ---------------------------------------------------------

OpRecord record_of(const api::SolvePlan& plan, const api::SolveReport& r, std::uint64_t index,
                   double latency_s) {
  const api::SolverSpec& spec = plan.spec();
  const api::CoreGeometry geo = api::adapter_for(spec.task).core_geometry(spec);
  OpRecord op;
  op.index = index;
  op.latency_s = latency_s;
  op.sweeps = r.sweeps;
  op.rotations = r.rotations;
  op.messages = r.comm.messages;
  op.elements = r.comm.elements;
  op.queue_ns = r.timings.queue_ns;
  op.sweep_ns = r.timings.sweep_ns;
  op.comm_ns = r.timings.comm_ns;
  op.assembly_ns = r.timings.assembly_ns;
  op.cols = geo.cols;
  op.rows = geo.rows;
  op.backend = spec.backend;
  op.ranks = spec.backend == api::Backend::MpiLite ? 1 << spec.d : 1;
  op.steps_per_sweep = plan.ordering().steps_per_sweep();
  return op;
}

// ---- end-to-end timings ------------------------------------------------------

std::size_t segment_count(std::size_t samples) {
  return std::clamp<std::size_t>(samples / 1000, 1, 9);
}

Timings median_over_segments(const std::vector<Segment>& segments) {
  std::vector<double> p50, p99, throughput, cpu;
  for (const Segment& seg : segments) {
    p50.push_back(quantile(seg.latency_ms, 0.5));
    p99.push_back(quantile(seg.latency_ms, 0.99));
    throughput.push_back(seg.seconds > 0.0 ? seg.ok / seg.seconds : 0.0);
    cpu.push_back(seg.ops > 0.0 ? 1e3 * seg.cpu_s / seg.ops : 0.0);
  }
  return {quantile(p50, 0.5), quantile(p99, 0.5), quantile(throughput, 0.5), quantile(cpu, 0.5)};
}

// ---- statistics and process probes ------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double pool_busy_seconds() {
  if (!exec::ThreadPool::enabled()) return 0.0;
  double s = 0.0;
  for (double b : exec::ThreadPool::global().worker_busy_seconds()) s += b;
  return s;
}

double pool_queue_high_water() {
  return exec::ThreadPool::enabled()
             ? static_cast<double>(exec::ThreadPool::global().queue_high_water())
             : 0.0;
}

// ---- ladder -----------------------------------------------------------------

LadderTerms ladder_terms(const OpRecord& op, const Rungs& rungs, const LadderMeans& means) {
  // A converged NoRotations solve runs sweeps + 1 sweeps (the last one
  // rotates nothing); each visits every column pair once.
  const auto passes = static_cast<double>(op.sweeps + 1);
  const auto cols = static_cast<double>(op.cols);
  const auto rows = static_cast<double>(op.rows);
  const double pair_visits = passes * cols * (cols - 1.0) / 2.0;
  const double kernel_ns = pair_visits * rows * rungs.gram3_ns_per_elem +
                           static_cast<double>(op.rotations) * 0.5 * (rows + cols) *
                               rungs.rotate_ns_per_elem;
  LadderTerms t;
  t.kernel_ms = 1e-6 * kernel_ns / op.ranks;
  t.explained_ms = t.kernel_ms + means.assembly_ms + 1e-6 * static_cast<double>(op.queue_ns);
  if (op.backend == api::Backend::Sim) t.explained_ms += means.sim_model_ms;
  if (op.backend == api::Backend::MpiLite) {
    // Every rank moves one block per transition, in parallel with the
    // others; one vote per sweep plus the initial norm allreduce.
    const double block_elems =
        (rows + cols) * cols / static_cast<double>(2 * op.ranks);  // B + V columns
    const double exchange_us = rungs.roundtrip_us_per_elem * block_elems + rungs.sendrecv_us;
    t.explained_ms += 1e-3 * (passes * static_cast<double>(op.steps_per_sweep) * exchange_us +
                              (passes + 1.0) * rungs.allreduce_us + rungs.universe_run_us);
  }
  return t;
}

// ---- traced runs ------------------------------------------------------------

void TraceLog::begin() {
  obs::reset_tracing();
  obs::arm_tracing();
}

void TraceLog::collect() {
  const std::vector<obs::TraceEvent> batch = obs::snapshot_trace_events();
  events_.insert(events_.end(), batch.begin(), batch.end());
  dropped_ += obs::trace_dropped_events();
  obs::reset_tracing();  // also zeroes the arm count
  obs::arm_tracing();
}

void TraceLog::end() {
  const std::vector<obs::TraceEvent> batch = obs::snapshot_trace_events();
  events_.insert(events_.end(), batch.begin(), batch.end());
  dropped_ += obs::trace_dropped_events();
  obs::reset_tracing();
}

void TraceLog::write_chrome(const std::string& path, std::size_t max_events) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  char buf[256];
  const std::size_t n = std::min(max_events, events_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const obs::TraceEvent& ev = events_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"arg\":%llu}}",
                  i == 0 ? "" : ",", ev.name, obs::category_name(ev.cat), ev.tid,
                  1e-3 * static_cast<double>(ev.start_ns), 1e-3 * static_cast<double>(ev.dur_ns),
                  static_cast<unsigned long long>(ev.arg));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":\"" << dropped_
      << "\"}}\n";
}

std::vector<TraceLog::SelfTime> TraceLog::self_times() const {
  // Per thread, by start (longer first on ties so parents precede
  // children); a stack of open spans finds each span's direct parent.
  std::vector<const obs::TraceEvent*> order;
  order.reserve(events_.size());
  for (const obs::TraceEvent& ev : events_) order.push_back(&ev);
  std::sort(order.begin(), order.end(), [](const obs::TraceEvent* x, const obs::TraceEvent* y) {
    if (x->tid != y->tid) return x->tid < y->tid;
    if (x->start_ns != y->start_ns) return x->start_ns < y->start_ns;
    return x->dur_ns > y->dur_ns;
  });
  std::map<std::string, SelfTime> table;
  std::vector<double> child_ns(order.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& ev = *order[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = *order[stack.back()];
      if (top.tid == ev.tid && ev.start_ns + ev.dur_ns <= top.start_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += static_cast<double>(ev.dur_ns);
    stack.push_back(i);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& ev = *order[i];
    SelfTime& row = table[ev.name];
    row.name = ev.name;
    row.count += 1;
    row.total_ms += 1e-6 * static_cast<double>(ev.dur_ns);
    row.self_ms += 1e-6 * (static_cast<double>(ev.dur_ns) - child_ns[i]);
  }
  std::vector<SelfTime> rows;
  for (auto& [name, row] : table) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const SelfTime& x, const SelfTime& y) { return x.self_ms > y.self_ms; });
  return rows;
}

}  // namespace jmh::suite
