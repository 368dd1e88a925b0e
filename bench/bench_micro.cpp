// E10: google-benchmark microbenchmarks of the library's kernels -- the
// components whose throughput determines experiment wall-clock time.
#include <benchmark/benchmark.h>

#include <chrono>

#include "api/solver.hpp"
#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "la/kernels.hpp"
#include "la/rotation.hpp"
#include "la/sym_gen.hpp"
#include "obs/trace.hpp"
#include "ord/bounds.hpp"
#include "ord/br.hpp"
#include "ord/degree4.hpp"
#include "ord/min_alpha.hpp"
#include "ord/permuted_br.hpp"
#include "ord/schedule.hpp"
#include "pipe/cost_model.hpp"
#include "pipe/optimizer.hpp"
#include "sim/event_queue.hpp"
#include "sim/programs.hpp"
#include "svc/service.hpp"

namespace {

void BM_RotationKernel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(1);
  std::vector<double> x(n), y(n), vx(n), vy(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    jmh::la::pair_columns(x, y, vx, vy, 1e-300);  // force the rotation
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(4 * n * 8));
}
BENCHMARK(BM_RotationKernel)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_GramKernel(benchmark::State& state) {
  // The single-pass (bii, bjj, bij) kernel alone: the read half of a pair.
  const auto n = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(1);
  std::vector<double> x(n), y(n);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    const auto g = jmh::la::kernels::gram3(x.data(), y.data(), n);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * 8));
}
BENCHMARK(BM_GramKernel)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BrGeneration(benchmark::State& state) {
  const int e = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(jmh::ord::br_sequence(e));
}
BENCHMARK(BM_BrGeneration)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_PermutedBrGeneration(benchmark::State& state) {
  const int e = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(jmh::ord::permuted_br_sequence(e));
}
BENCHMARK(BM_PermutedBrGeneration)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_Degree4Generation(benchmark::State& state) {
  const int e = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(jmh::ord::degree4_sequence(e));
}
BENCHMARK(BM_Degree4Generation)->Arg(8)->Arg(12)->Arg(16)->Arg(20);

void BM_WindowStats(benchmark::State& state) {
  const auto seq = jmh::ord::permuted_br_sequence(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(seq.window_stats(seq.e()));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(seq.size()));
}
BENCHMARK(BM_WindowStats)->Arg(10)->Arg(14)->Arg(18);

void BM_HamiltonianValidation(benchmark::State& state) {
  const auto seq = jmh::ord::degree4_sequence(static_cast<int>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(seq.is_valid());
}
BENCHMARK(BM_HamiltonianValidation)->Arg(10)->Arg(14)->Arg(18);

void BM_MinAlphaSearch(benchmark::State& state) {
  const int e = static_cast<int>(state.range(0));
  const int bound = static_cast<int>(jmh::ord::alpha_lower_bound(e));
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::ord::find_sequence_with_alpha(e, bound));
}
BENCHMARK(BM_MinAlphaSearch)->Arg(3)->Arg(4)->Arg(5);

void BM_SweepVerification(benchmark::State& state) {
  const jmh::ord::JacobiOrdering ordering(jmh::ord::OrderingKind::PermutedBR,
                                          static_cast<int>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::ord::verify_sweeps(ordering, 1));
}
BENCHMARK(BM_SweepVerification)->Arg(4)->Arg(6)->Arg(8);

void BM_OptimalQ(benchmark::State& state) {
  const auto seq = jmh::ord::permuted_br_sequence(static_cast<int>(state.range(0)));
  jmh::pipe::MachineParams machine;
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::pipe::find_optimal_q(seq, 1e6, machine, 1 << 20));
}
BENCHMARK(BM_OptimalQ)->Arg(8)->Arg(12)->Arg(15);

void BM_SweepCostModel(benchmark::State& state) {
  jmh::pipe::ProblemParams prob;
  prob.d = static_cast<int>(state.range(0));
  prob.m = 1 << 23;
  jmh::pipe::MachineParams machine;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        jmh::pipe::sweep_cost_pipelined(jmh::ord::OrderingKind::PermutedBR, prob, machine));
}
BENCHMARK(BM_SweepCostModel)->Arg(6)->Arg(10)->Arg(14);

void BM_EventQueueThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    jmh::sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < n; ++i) q.schedule(static_cast<double>(i % 97), [&] { ++fired; });
    q.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1024)->Arg(16384);

void BM_SimulatedPhase(benchmark::State& state) {
  const auto seq = jmh::ord::degree4_sequence(static_cast<int>(state.range(0)));
  jmh::sim::SimConfig cfg;
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::sim::simulate_pipelined_phase(seq, 8, 4096.0, seq.e(), cfg));
}
BENCHMARK(BM_SimulatedPhase)->Arg(5)->Arg(7)->Arg(9);

// One-shot solves: each iteration compiles a plan around a prebuilt d4
// ordering and solves once, so the per-solve plan cost stays in the timing.
void one_shot_solve(benchmark::State& state, jmh::api::SolverSpec spec) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const jmh::ord::JacobiOrdering ordering(jmh::ord::OrderingKind::Degree4, 2);
  spec.m = m;
  spec.d = 2;
  spec.ordering = jmh::ord::OrderingKind::Degree4;
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::api::Solver::plan(spec, ordering).solve(a));
}

void BM_InlineSolve(benchmark::State& state) {
  one_shot_solve(state, {});
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InlineSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_MpiSolve(benchmark::State& state) {
  jmh::api::SolverSpec spec;
  spec.backend = jmh::api::Backend::MpiLite;
  one_shot_solve(state, spec);
}
BENCHMARK(BM_MpiSolve)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_MpiSolvePipelined(benchmark::State& state) {
  jmh::api::SolverSpec spec;
  spec.backend = jmh::api::Backend::MpiLite;
  spec.pipelining = jmh::api::PipeliningPolicy::Fixed;
  spec.q = 4;
  one_shot_solve(state, spec);
}
BENCHMARK(BM_MpiSolvePipelined)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// --- api facade: plan construction vs. reuse ---------------------------------
// The facade exists to amortize expensive setup (ordering sequences, sweep
// schedule, auto pipelining degree) across many solves. These three cases
// price that claim: building a plan, solving with a reused plan, and
// rebuilding the plan for every solve (Solver::solve, the one-shot call).

void BM_PlanConstruction(benchmark::State& state) {
  // MinAlpha is the expensive ordering (backtracking sequence search);
  // pipeline=auto adds the optimizer pass.
  const auto spec = jmh::api::SolverSpec::parse(
      "backend=inline,ordering=minalpha,m=128,d=" + std::to_string(state.range(0)) +
      ",pipeline=auto");
  for (auto _ : state) benchmark::DoNotOptimize(jmh::api::Solver::plan(spec));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanConstruction)->Arg(2)->Arg(4)->Arg(5)->Unit(benchmark::kMicrosecond);

void BM_PlanReuseSolve(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const auto spec = jmh::api::SolverSpec::parse("backend=inline,ordering=minalpha,m=" +
                                                std::to_string(m) + ",d=2,pipeline=auto");
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanReuseSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PerSolveReconstruction(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const auto spec = jmh::api::SolverSpec::parse("backend=inline,ordering=minalpha,m=" +
                                                std::to_string(m) + ",d=2,pipeline=auto");
  for (auto _ : state) benchmark::DoNotOptimize(jmh::api::Solver::solve(spec, a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PerSolveReconstruction)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SpecRoundTrip(benchmark::State& state) {
  const jmh::api::SolverSpec spec = jmh::api::SolverSpec::parse(
      "backend=sim,ordering=minalpha,m=4096,d=5,pipeline=auto,stop=offdiag");
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::api::SolverSpec::parse(spec.to_string()));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpecRoundTrip);

void BM_BlockSerializeRoundtrip(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const jmh::solve::BlockLayout layout(m, 2);
  const jmh::solve::ColumnBlock blk = jmh::solve::extract_block(a, layout, 0);
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::solve::ColumnBlock::deserialize(blk.serialize()));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(blk.serialize().size() * 8));
}
BENCHMARK(BM_BlockSerializeRoundtrip)->Arg(64)->Arg(256)->Arg(1024);

void BM_BlockSerializeInto(benchmark::State& state) {
  // The allocation-free round trip the steady-state exchange loop runs:
  // serialize into a reused payload, parse back into a reused block.
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const jmh::solve::BlockLayout layout(m, 2);
  const jmh::solve::ColumnBlock blk = jmh::solve::extract_block(a, layout, 0);
  jmh::net::Payload buf;
  jmh::solve::ColumnBlock back;
  for (auto _ : state) {
    blk.serialize_into(buf);
    back.assign_from(buf);
    benchmark::DoNotOptimize(back.b.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(buf.size() * 8));
}
BENCHMARK(BM_BlockSerializeInto)->Arg(64)->Arg(256)->Arg(1024);

void BM_SweepCancelCheck(benchmark::State& state) {
  // The per-sweep-boundary cancellation cost the solve engines pay: one
  // CancelToken::poll(). Arg 0 = flag-only armed token (an atomic load up
  // the one-link parent chain); Arg 1 = deadline token (adds the
  // steady_clock read). PERF.md quotes these as the overhead ceiling.
  const jmh::common::CancelToken token =
      state.range(0) == 0
          ? jmh::common::CancelToken::source()
          : jmh::common::CancelToken::source().with_timeout(std::chrono::hours(24));
  for (auto _ : state) benchmark::DoNotOptimize(token.poll());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SweepCancelCheck)->Arg(0)->Arg(1);

// --- obs: tracing overhead ---------------------------------------------------
// The observability contract, priced. Arg 0: a DISARMED span site -- one
// relaxed load plus a branch, the cost every sweep pays for carrying the
// instrumentation (the "few ns" ceiling BENCH_obs.json gates). Arg 1: an
// ARMED span -- two clock reads plus a locked ring store.
void BM_TraceSpan(benchmark::State& state) {
  {
    const jmh::obs::ArmScope arm(state.range(0) == 1);
    for (auto _ : state) {
      const jmh::obs::SpanScope span("bench.span", jmh::obs::Category::kExec,
                                     static_cast<std::uint64_t>(state.range(0)));
      benchmark::DoNotOptimize(&span);
    }
  }
  jmh::obs::reset_tracing();  // drop the bench's ring events (arm already ended)
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan)->Arg(0)->Arg(1);

// BM_PlanReuseSolve's traced twin: the identical reused-plan solve with
// trace=1, so fresh/baseline ratios AND the traced/untraced pair in one run
// price the armed-mode overhead (sweep/comm/assembly spans + PhaseTimings
// accumulation). PERF.md quotes the pair.
void BM_SolveTraced(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  const auto spec = jmh::api::SolverSpec::parse(
      "backend=inline,ordering=minalpha,m=" + std::to_string(m) +
      ",d=2,pipeline=auto,trace=1");
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  jmh::obs::reset_tracing();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SolveTraced)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// --- svc: service throughput vs worker count ---------------------------------
// The serving-layer headline: a same-spec inline workload (the cache-hot,
// compute-bound case) pushed through the SolverService at 1/2/4 workers.
// Real time is the metric -- the work happens on the pool, not the bench
// thread. Per-iteration cost includes service construction + teardown, so
// kJobs is large enough that steady-state solving dominates.

void BM_ServiceThroughput(benchmark::State& state) {
  constexpr std::size_t kJobs = 32;
  const std::string spec = "backend=inline,ordering=d4,m=32,d=2";
  std::vector<jmh::la::Matrix> matrices;
  for (std::uint64_t seed = 1; seed <= kJobs; ++seed) {
    jmh::Xoshiro256 rng(seed);
    matrices.push_back(jmh::la::random_uniform_symmetric(32, rng));
  }
  for (auto _ : state) {
    jmh::svc::ServiceConfig cfg;
    cfg.workers = static_cast<std::size_t>(state.range(0));
    cfg.queue_capacity = kJobs;
    cfg.cache_capacity = 4;
    jmh::svc::SolverService service(cfg);
    std::vector<std::future<jmh::api::SolveReport>> futures;
    futures.reserve(kJobs);
    for (const auto& a : matrices) futures.push_back(service.submit(spec, a));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ServiceThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Deliberate oversubscription: mpi-backend jobs (a gang of 2^d rank tasks
// each) through `workers` concurrent dispatchers, so jobs x ranks well
// exceeds the host's hardware threads. This is the case the shared
// exec::ThreadPool exists for -- rank gangs from concurrent jobs interleave
// on one fixed worker set instead of multiplying threads. The same binary
// run with JMH_EXEC_POOL=off measures the legacy thread-per-rank baseline
// (PERF.md records the A/B).
void BM_ServiceOversub(benchmark::State& state) {
  constexpr std::size_t kJobs = 8;
  const std::string spec = "backend=mpi,ordering=d4,m=32,d=2";  // 4 ranks per job
  std::vector<jmh::la::Matrix> matrices;
  for (std::uint64_t seed = 1; seed <= kJobs; ++seed) {
    jmh::Xoshiro256 rng(seed);
    matrices.push_back(jmh::la::random_uniform_symmetric(32, rng));
  }
  for (auto _ : state) {
    jmh::svc::ServiceConfig cfg;
    cfg.workers = static_cast<std::size_t>(state.range(0));
    cfg.queue_capacity = kJobs;
    cfg.cache_capacity = 4;
    jmh::svc::SolverService service(cfg);
    std::vector<std::future<jmh::api::SolveReport>> futures;
    futures.reserve(kJobs);
    for (const auto& a : matrices) futures.push_back(service.submit(spec, a));
    for (auto& f : futures) benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_ServiceOversub)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Truncated solves: topk=k of a m=64 eigenproblem through a reused plan.
// k = m is the full-extraction degenerate case (identical numerics, the
// bigger per-sweep vote), so the spread across args isolates what
// truncation saves. Gated against BENCH_exec.json.
void BM_TopkSolve(benchmark::State& state) {
  const auto k = static_cast<int>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(64, rng);
  const auto spec = jmh::api::SolverSpec::parse(
      "backend=inline,ordering=d4,m=64,d=2,topk=" + std::to_string(k));
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TopkSolve)->Arg(8)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// --- the SVD workload --------------------------------------------------------
// task=svd through a reused plan on the inline backend: a tall 3:2
// rectangular input factored by the same sweep machinery as the
// eigenproblem. Gated against BENCH_svd.json.

void BM_SvdSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n + n / 2;
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform(rows, n, rng);
  const auto spec = jmh::api::SolverSpec::parse(
      "task=svd,backend=inline,ordering=d4,m=" + std::to_string(n) +
      ",rows=" + std::to_string(rows) + ",d=2");
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SvdSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

// --- the task-adapter workloads ----------------------------------------------
// task=pca and wide task=svd through reused plans on the inline backend:
// pca adds the prepare (column centering) and assemble (variance ratios)
// adapter stages on top of the svd core; wide svd measures the transpose
// trick (core solves the n x n/2 transpose, assemble swaps U/V). Gated
// against BENCH_tasks.json.

void BM_PcaSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n + n / 2;
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform(rows, n, rng);
  const auto spec = jmh::api::SolverSpec::parse(
      "task=pca,backend=inline,ordering=d4,m=" + std::to_string(n) +
      ",rows=" + std::to_string(rows) + ",d=2,stop=offdiag_abs");
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PcaSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_WideSvdSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t rows = n / 2;
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform(rows, n, rng);
  const auto spec = jmh::api::SolverSpec::parse(
      "task=svd,backend=inline,ordering=d4,m=" + std::to_string(n) +
      ",rows=" + std::to_string(rows) + ",d=2");
  const jmh::api::SolvePlan plan = jmh::api::Solver::plan(spec);
  for (auto _ : state) benchmark::DoNotOptimize(plan.solve(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WideSvdSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SequentialCyclicSolve(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  jmh::Xoshiro256 rng(7);
  const jmh::la::Matrix a = jmh::la::random_uniform_symmetric(m, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(jmh::la::onesided_jacobi_cyclic(a));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequentialCyclicSolve)->Arg(16)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace
