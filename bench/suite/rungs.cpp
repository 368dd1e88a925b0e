// Calibration rungs: each layer's public entry point timed on its own, at
// the workload's shapes, so the ladder can price an op as rung x count.
#include <cmath>
#include <span>
#include <vector>

#include "exec/thread_pool.hpp"
#include "la/kernels.hpp"
#include "la/onesided_jacobi.hpp"
#include "net/collectives.hpp"
#include "net/universe.hpp"
#include "solve/jacobi_node.hpp"
#include "suite.hpp"

namespace jmh::suite {

namespace {

constexpr double kBatchSeconds = 0.01;
constexpr int kBatches = 5;

/// Rung results are stored here so no timed call is dead code.
volatile double g_sink = 0.0;

/// Median over kBatches batches of the wall time of one call, in ns.
/// @p run_batch(iters) performs iters calls and returns its wall seconds.
template <class RunBatch>
double median_call_ns(RunBatch&& run_batch) {
  std::size_t iters = 1;
  double dt = run_batch(iters);
  while (dt < kBatchSeconds / 4 && iters < (std::size_t{1} << 26)) {
    iters *= 2;
    dt = run_batch(iters);
  }
  const double scale = dt > 0.0 ? kBatchSeconds / dt : 1.0;
  iters = std::max<std::size_t>(1, static_cast<std::size_t>(static_cast<double>(iters) * scale));
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b)
    per_call.push_back(run_batch(iters) / static_cast<double>(iters));
  return 1e9 * quantile(per_call, 0.5);
}

template <class Fn>
double median_call_ns_of(Fn&& fn) {
  return median_call_ns([&](std::size_t iters) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    return seconds_between(t0, Clock::now());
  });
}

/// Wall seconds of a @p ranks-rank universe in which every rank calls
/// @p body(comm) @p iters times.
template <class Body>
double universe_seconds(int ranks, std::size_t iters, Body&& body) {
  net::Universe universe(ranks);
  const auto t0 = Clock::now();
  universe.run([&](net::Comm& comm) {
    for (std::size_t i = 0; i < iters; ++i) body(comm);
  });
  return seconds_between(t0, Clock::now());
}

std::vector<double> random_vector(std::size_t n, Xoshiro256& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

}  // namespace

Rungs calibrate(const RungShape& shape, std::uint64_t seed) {
  Rungs r;
  Xoshiro256 rng = job_rng(seed, Stream::kProbe, 0);
  const std::size_t n = shape.rows;
  const auto n_d = static_cast<double>(n);

  // la: the two fused kernels at the workload's column length. Bytes are
  // computed from the access pattern (2 columns read; 4 read and written).
  {
    const std::vector<double> x = random_vector(n, rng);
    const std::vector<double> y = random_vector(n, rng);
    double sink = 0.0;
    const double gram3_ns =
        median_call_ns_of([&] { sink += la::kernels::gram3(x.data(), y.data(), n).xy; });
    r.gram3_gbs = 16.0 * n_d / gram3_ns;
    r.gram3_ns_per_elem = gram3_ns / n_d;
    std::vector<double> bi = random_vector(n, rng), bj = random_vector(n, rng);
    std::vector<double> vi = random_vector(n, rng), vj = random_vector(n, rng);
    const double c = std::cos(1e-3), s = std::sin(1e-3);
    const double rotate_ns = median_call_ns_of(
        [&] { la::kernels::fused_rotate(bi.data(), bj.data(), vi.data(), vj.data(), n, c, s); });
    r.rotate_gbs = 64.0 * n_d / rotate_ns;
    r.rotate_ns_per_elem = rotate_ns / n_d;
    g_sink = sink + bi[0];
  }

  // la: the plain single-threaded sequential baseline on workload inputs.
  {
    api::SolverSpec spec;
    spec.m = shape.m;
    std::vector<double> ms;
    for (std::uint64_t i = 0; i < 3; ++i) {
      Xoshiro256 input_rng = job_rng(seed, Stream::kProbe, 100 + i);
      const la::Matrix a = make_input(spec, input_rng);
      const auto t0 = Clock::now();
      const la::JacobiResult res = la::onesided_jacobi_cyclic(a);
      ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      g_sink = static_cast<double>(res.sweeps);
    }
    r.seq_solve_ms = quantile(ms, 0.5);
  }

  // solve: one block of the workload's layout through the wire format.
  const std::size_t block_cols = std::max<std::size_t>(1, shape.m >> (shape.d + 1));
  solve::ColumnBlock block;
  block.rows = n;
  block.vrows = shape.m;
  for (std::size_t c = 0; c < block_cols; ++c) block.cols.push_back(c);
  block.b = random_vector(n * block_cols, rng);
  block.v = random_vector(shape.m * block_cols, rng);
  net::Payload payload;
  {
    solve::ColumnBlock received;
    r.roundtrip_us = 1e-3 * median_call_ns_of([&] {
                       block.serialize_into(payload);
                       received.assign_from(payload);
                     });
    r.roundtrip_us_per_elem =
        r.roundtrip_us / static_cast<double>(block.b.size() + block.v.size());
    std::uint64_t sink = 0;
    const std::span<const double> words(payload);
    const auto checksum = [&] { sink ^= solve::wire_checksum(words.first(4), words.subspan(5)); };
    r.checksum_us = 1e-3 * median_call_ns_of(checksum);
    g_sink = static_cast<double>(sink & 1);
  }

  // net: a universe's per-run cost, one block exchange, one vote allreduce.
  r.universe_run_us = 1e-3 * median_call_ns_of([] {
                        net::Universe universe(4);
                        universe.run([](net::Comm&) {});
                      });
  r.sendrecv_us = 1e-3 * median_call_ns([&](std::size_t iters) {
                    return universe_seconds(2, iters, [&](net::Comm& comm) {
                      comm.sendrecv(1 - comm.rank(), 7, payload);
                    });
                  });
  r.allreduce_us = 1e-3 * median_call_ns([](std::size_t iters) {
                     return universe_seconds(4, iters, [](net::Comm& comm) {
                       double vote[2] = {1.0, 0.5};
                       net::allreduce_sum_inplace(comm, std::span<double>(vote));
                     });
                   });

  // exec: gang admission and a plain task round trip on the shared pool.
  exec::ThreadPool& pool = exec::ThreadPool::global();
  r.run_gang_us = 1e-3 * median_call_ns_of([&] { pool.run_gang(4, [](std::size_t) {}); });
  r.task_us = 1e-3 * median_call_ns_of([&] {
                exec::ThreadPool::TaskGroup group = pool.group();
                group.add([] {});
                group.wait();
              });

  // api: plan compilation as a caller sees it (ordering construction
  // included), averaged over the workload's specs.
  std::vector<double> plan_us;
  for (const std::string& text : shape.specs) {
    const api::SolverSpec spec = api::SolverSpec::parse(text);
    plan_us.push_back(1e-3 * median_call_ns_of([&] { (void)api::Solver::plan(spec); }));
  }
  r.plan_us = mean(plan_us);
  return r;
}

}  // namespace jmh::suite
