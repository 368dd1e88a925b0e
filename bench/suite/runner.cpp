// End-to-end benchmark runner: runs ONE workload per process and prints
// one JSON object with its end-to-end metrics, and with --layers the layer
// cost ladder (counts, calibration rungs, a traced run).
//
//   runner --workload inline_kernel|mpi_exchange|svc_open|sim_orderings
//          --seed N --seconds S [--layers] [--mix FILE] [--out-dir DIR]
//          [--capacity]
//
// bench/suite/run_suite.py builds this against the library and is the
// intended entry point; see bench/suite/README.md for the metric
// definitions. --capacity measures svc_open's closed-loop service capacity,
// from which the rate ladder in the workload file is derived.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "suite.hpp"

namespace jmh::suite {
namespace {

// ---- a flat JSON object writer ------------------------------------------------

class JsonObject {
 public:
  void num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    raw(key, buf);
  }
  void str(const std::string& key, const std::string& value) { raw(key, "\"" + value + "\""); }
  void raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ",") << "\"" << key << "\":" << json;
    first_ = false;
  }
  std::string done() const { return first_ ? "{}" : out_.str() + "}"; }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

// ---- closed-loop workloads -----------------------------------------------------

/// The ops a closed-loop workload cycles through, and how it is sized.
/// Counts are taken over the first count_ops ops, so they repeat exactly
/// for a seed however many ops the time budget allows.
struct ClosedWorkload {
  std::string name;
  std::vector<std::string> specs;
  std::size_t chunk;        ///< inputs generated (untimed) per batch of timed ops
  std::size_t warmup_ops;   ///< untimed ops inside each set-up
  std::size_t count_ops;
  std::size_t traced_ops;
  RungShape shape;
};

// Every evd spec carries shift=1: without the Gershgorin shift, +/-lambda
// ties leave some random inputs with eigenpair residuals near 1e-8, above
// the correctness gate's tolerance.

/// The four plans of sim_orderings, also the model-fidelity probe of
/// every traced run.
const std::vector<std::string> kOrderings = {"br", "pbr", "d4", "minalpha"};
std::string sim_spec(const std::string& ordering) {
  return "backend=sim,ordering=" + ordering + ",m=64,d=4,pipeline=auto,shift=1";
}

std::vector<ClosedWorkload> closed_workloads() {
  const std::string inline_spec = "backend=inline,ordering=d4,m=96,d=2,shift=1";
  const std::string mpi_spec = "backend=mpi,ordering=d4,m=32,d=2,shift=1";
  std::vector<std::string> sim_specs;
  for (const std::string& o : kOrderings) sim_specs.push_back(sim_spec(o));
  return {
      {"inline_kernel", {inline_spec}, 16, 8, 256, 64, {96, 96, 2, {inline_spec}}},
      {"mpi_exchange", {mpi_spec}, 64, 64, 1024, 256, {32, 32, 2, {mpi_spec}}},
      {"sim_orderings", sim_specs, 16, 16, 256, 64, {64, 64, 4, sim_specs}},
  };
}

/// One batch of timed ops (ops are stored in order, batch after batch).
struct Chunk {
  std::size_t ops = 0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  double ok = 0.0;
};

struct ClosedRun {
  double setup_s = 0.0;
  std::vector<OpRecord> ops;
  std::vector<Chunk> chunks;
  double timed_s = 0.0;
  double pool_busy_s = 0.0;
  double pool_queue_high_water = 0.0;  ///< read when the timed ops end
  std::uint64_t failed = 0;
  std::uint64_t twins_checked = 0;
  std::vector<double> model_ms;  ///< sim latency minus its inline twin's, per sampled op
  double worst_residual = 0.0;
  double worst_orthogonality = 0.0;
};

/// Traced ops draw inputs far from the timed ones, so the two never share one.
constexpr std::uint64_t kTracedIndexBase = std::uint64_t{1} << 40;

/// Batches of timed ops until @p seconds of op time or @p max_ops ops.
/// Inputs are built and results checked between batches, outside the timed
/// windows. Set-up (plan compilation plus untimed warm-up ops) runs
/// @p setup_repeats times, spread evenly over the run so the reported
/// median samples the host at several moments instead of in one burst; the
/// first set-up's plans serve the timed ops. With @p log, specs carry
/// trace=1 and the rings are drained after every op.
ClosedRun run_closed(const ClosedWorkload& w, std::uint64_t seed, double seconds,
                     std::uint64_t max_ops, std::size_t setup_repeats, TraceLog* log) {
  const std::uint64_t base = log != nullptr ? kTracedIndexBase : 0;
  ClosedRun run;
  const std::string suffix = log != nullptr ? ",trace=1" : "";
  const auto set_up = [&](std::vector<api::SolvePlan>& plans) {
    const auto t0 = Clock::now();
    plans.clear();
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      const obs::SpanScope span("api.plan", obs::Category::kPlan, i);
      plans.push_back(api::Solver::plan(api::SolverSpec::parse(w.specs[i] + suffix)));
    }
    for (std::size_t i = 0; i < w.warmup_ops; ++i) {
      const api::SolvePlan& plan = plans[i % plans.size()];
      Xoshiro256 rng = job_rng(seed, Stream::kWarmup, i);
      (void)plan.solve(make_input(plan.spec(), rng));
    }
    return seconds_between(t0, Clock::now());
  };
  std::vector<double> setups;
  const auto set_up_again_until = [&](double progress) {
    while (setups.size() < setup_repeats &&
           progress >= static_cast<double>(setups.size()) / static_cast<double>(setup_repeats)) {
      std::vector<api::SolvePlan> spare;
      setups.push_back(set_up(spare));
    }
  };

  if (log != nullptr) log->begin();
  std::vector<api::SolvePlan> plans;
  setups.push_back(set_up(plans));
  if (log != nullptr) log->collect();

  std::vector<std::optional<api::SolvePlan>> twins;
  for (const api::SolvePlan& plan : plans)
    twins.push_back(plan.spec().backend == api::Backend::Inline
                        ? std::nullopt
                        : std::optional(api::Solver::plan(inline_twin(plan.spec()))));

  Checker checker;
  std::vector<la::Matrix> inputs;
  std::vector<api::SolveReport> reports;
  std::vector<double> latencies;
  for (std::uint64_t next = 0; run.timed_s < seconds && next < max_ops; next += w.chunk) {
    inputs.clear();
    for (std::uint64_t i = next; i < next + w.chunk; ++i) {
      const obs::SpanScope span("bench.input", obs::Category::kExec, i);
      Xoshiro256 rng = job_rng(seed, Stream::kTimed, base + i);
      inputs.push_back(make_input(plans[i % plans.size()].spec(), rng));
    }
    reports.clear();
    latencies.clear();
    const double cpu0 = process_cpu_seconds();
    const double busy0 = pool_busy_seconds();
    const auto chunk_t0 = Clock::now();
    for (std::uint64_t j = 0; j < w.chunk; ++j) {
      const api::SolvePlan& plan = plans[(next + j) % plans.size()];
      const auto t0 = Clock::now();
      {
        const obs::SpanScope span("api.solve", obs::Category::kSweep, next + j);
        reports.push_back(plan.solve(inputs[j]));
      }
      latencies.push_back(seconds_between(t0, Clock::now()));
      if (log != nullptr) log->collect();
    }
    Chunk chunk{w.chunk, seconds_between(chunk_t0, Clock::now()), process_cpu_seconds() - cpu0,
                0.0};
    run.timed_s += chunk.timed_s;
    run.pool_busy_s += pool_busy_seconds() - busy0;
    set_up_again_until(run.timed_s / seconds);

    for (std::uint64_t j = 0; j < w.chunk; ++j) {
      const std::uint64_t index = next + j;
      const std::size_t p = index % plans.size();
      bool ok = false;
      {
        const obs::SpanScope span("la.check", obs::Category::kExec, index);
        ok = checker.check(plans[p].spec(), inputs[j], reports[j]);
      }
      if (ok && twins[p] && index % 16 == 0) {
        const auto t0 = Clock::now();
        const api::SolveReport twin = twins[p]->solve(inputs[j]);
        const double twin_s = seconds_between(t0, Clock::now());
        ok = bit_identical(reports[j], twin);
        ++run.twins_checked;
        if (plans[p].spec().backend == api::Backend::Sim)
          run.model_ms.push_back(1e3 * (latencies[j] - twin_s));
      }
      OpRecord op = record_of(plans[p], reports[j], index, latencies[j]);
      op.ok = ok;
      if (!ok) ++run.failed;
      chunk.ok += ok ? 1.0 : 0.0;
      run.ops.push_back(op);
    }
    run.chunks.push_back(chunk);
  }
  run.pool_queue_high_water = pool_queue_high_water();
  if (log != nullptr) log->end();
  set_up_again_until(1.0);
  run.setup_s = quantile(setups, 0.5);
  run.worst_residual = checker.worst_residual();
  run.worst_orthogonality = checker.worst_orthogonality();
  return run;
}

// ---- metric assembly --------------------------------------------------------

/// Consecutive runs of whole batches, about equal in ops.
std::vector<Segment> segments_of(const ClosedRun& run) {
  const std::size_t n = run.ops.size();
  std::vector<Segment> segments(segment_count(n));
  std::size_t first = 0;
  for (const Chunk& chunk : run.chunks) {
    Segment& seg = segments[std::min(segments.size() - 1, first * segments.size() / n)];
    for (std::size_t i = first; i < first + chunk.ops; ++i)
      seg.latency_ms.push_back(1e3 * run.ops[i].latency_s);
    seg.ok += chunk.ok;
    seg.seconds += chunk.timed_s;
    seg.cpu_s += chunk.cpu_s;
    seg.ops += static_cast<double>(chunk.ops);
    first += chunk.ops;
  }
  return segments;
}

void timing_metrics(const Timings& t, JsonObject& e2e) {
  e2e.num("latency_p50_ms", t.p50_ms);
  e2e.num("latency_p99_ms", t.p99_ms);
  e2e.num("throughput_ops_s", t.throughput_ops_s);
  e2e.num("cpu_ms_per_op", t.cpu_ms_per_op);
}

std::vector<double> latencies_ms(const std::vector<OpRecord>& ops) {
  std::vector<double> out;
  for (const OpRecord& op : ops) out.push_back(1e3 * op.latency_s);
  return out;
}

double mean_assembly_ms(const std::vector<OpRecord>& ops) {
  std::vector<double> ms;
  for (const OpRecord& op : ops) ms.push_back(1e-6 * static_cast<double>(op.assembly_ns));
  return mean(ms);
}

/// Exact per-op counts over the first @p n ops by index.
void count_metrics(std::vector<OpRecord> ops, std::size_t n, JsonObject& layer) {
  std::sort(ops.begin(), ops.end(),
            [](const OpRecord& x, const OpRecord& y) { return x.index < y.index; });
  ops.resize(std::min(n, ops.size()));
  double sweeps = 0.0, rotations = 0.0, messages = 0.0, elements = 0.0;
  for (const OpRecord& op : ops) {
    sweeps += op.sweeps;
    rotations += static_cast<double>(op.rotations);
    messages += static_cast<double>(op.messages);
    elements += static_cast<double>(op.elements);
  }
  const double k = std::max<double>(1.0, static_cast<double>(ops.size()));
  layer.num("solve.sweeps_per_op", sweeps / k);
  layer.num("la.rotations_per_op", rotations / k);
  layer.num("net.messages_per_op", messages / k);
  layer.num("net.bytes_per_op", 8.0 * elements / k);
}

void rung_metrics(const Rungs& r, JsonObject& layer) {
  layer.num("la.gram3_gbs", r.gram3_gbs);
  layer.num("la.fused_rotate_gbs", r.rotate_gbs);
  layer.num("la.seq_solve_ms", r.seq_solve_ms);
  layer.num("solve.block_roundtrip_us", r.roundtrip_us);
  layer.num("solve.checksum_us", r.checksum_us);
  layer.num("net.universe_run_us", r.universe_run_us);
  layer.num("net.sendrecv_us", r.sendrecv_us);
  layer.num("net.allreduce_us", r.allreduce_us);
  layer.num("exec.run_gang_us", r.run_gang_us);
  layer.num("exec.task_us", r.task_us);
  layer.num("api.plan_us", r.plan_us);
}

/// Traced-run rows: PhaseTimings means, tracing overhead, drops.
void traced_metrics(const std::vector<OpRecord>& traced, const TraceLog& log,
                    double untraced_p50_ms, JsonObject& layer) {
  std::vector<double> sweep, comm;
  for (const OpRecord& op : traced) {
    sweep.push_back(1e-6 * static_cast<double>(op.sweep_ns));
    comm.push_back(1e-6 * static_cast<double>(op.comm_ns));
  }
  layer.num("solve.sweep_cpu_ms", mean(sweep));
  layer.num("solve.comm_cpu_ms", mean(comm));
  layer.num("solve.assembly_ms", mean_assembly_ms(traced));
  const double traced_p50 = quantile(latencies_ms(traced), 0.5);
  layer.num("obs.trace_overhead_frac",
            untraced_p50_ms > 0.0 ? traced_p50 / untraced_p50_ms - 1.0 : 0.0);
  layer.num("obs.dropped_events", static_cast<double>(log.dropped()));
}

/// la.kernel_share and ladder.unexplained_frac over @p ops.
void ladder_metrics(const std::vector<OpRecord>& ops, const Rungs& rungs, const LadderMeans& means,
                    JsonObject& layer) {
  double latency = 0.0, kernel = 0.0, explained = 0.0;
  for (const OpRecord& op : ops) {
    const LadderTerms t = ladder_terms(op, rungs, means);
    latency += 1e3 * op.latency_s;
    kernel += t.kernel_ms;
    explained += t.explained_ms;
  }
  layer.num("la.kernel_share", latency > 0.0 ? kernel / latency : 0.0);
  layer.num("ladder.unexplained_frac", latency > 0.0 ? 1.0 - explained / latency : 0.0);
}

/// Model fidelity of the four sim_orderings plans on a fixed probe sample:
/// exact, host-independent values, so every workload reports them.
void fidelity_metrics(std::uint64_t seed, JsonObject& layer) {
  constexpr std::uint64_t kProbeOps = 8;
  for (const std::string& ordering : kOrderings) {
    const api::SolvePlan plan = api::Solver::plan(api::SolverSpec::parse(sim_spec(ordering)));
    double comm_per_sweep = 0.0, util = 0.0;
    for (std::uint64_t i = 0; i < kProbeOps; ++i) {
      Xoshiro256 rng = job_rng(seed, Stream::kProbe, 1000 + i);
      const api::SolveReport r = plan.solve(make_input(plan.spec(), rng));
      comm_per_sweep += (r.modeled_time - r.vote_time) / std::max(1, r.modeled_sweeps);
      util += r.mean_link_utilization();
    }
    comm_per_sweep /= kProbeOps;
    layer.num("sim.modeled_comm_per_sweep." + ordering, comm_per_sweep);
    layer.num("sim.link_util." + ordering, util / kProbeOps);
    layer.num("pipe.q." + ordering, static_cast<double>(plan.pipelining_q()));
    layer.num("pipe.model_vs_sim." + ordering,
              comm_per_sweep > 0.0 ? plan.planned_sweep_comm_cost() / comm_per_sweep : 0.0);
  }
}

void selftime_json(const TraceLog& log, JsonObject& out) {
  std::ostringstream rows;
  rows << "[";
  bool first = true;
  for (const TraceLog::SelfTime& row : log.self_times()) {
    JsonObject o;
    o.str("name", row.name);
    o.num("count", static_cast<double>(row.count));
    o.num("total_ms", row.total_ms);
    o.num("self_ms", row.self_ms);
    rows << (first ? "" : ",") << o.done();
    first = false;
  }
  rows << "]";
  out.raw("selftime", rows.str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool layers = false;
  bool capacity = false;
  std::string mix = "bench/suite/workloads/svc_open.txt";
  std::string out_dir = ".";
};

constexpr std::size_t kSetupRepeats = 5;

int run_closed_workload(const ClosedWorkload& w, const Args& args) {
  const ClosedRun run =
      run_closed(w, args.seed, args.seconds, ~std::uint64_t{0}, kSetupRepeats, nullptr);
  const std::vector<double> lat = latencies_ms(run.ops);
  const double n = static_cast<double>(run.ops.size());

  JsonObject e2e;
  e2e.num("setup_s", run.setup_s);
  timing_metrics(median_over_segments(segments_of(run)), e2e);
  e2e.num("peak_rss_mb", peak_rss_mb());

  // Every failure of a closed loop is a failed check; a solve that throws
  // ends the run without a result.
  std::uint64_t attempted = run.ops.size(), failed = run.failed;
  JsonObject out;
  out.str("workload", w.name);
  out.raw("valid", "true");

  JsonObject ctx;
  ctx.num("latency_samples", n);
  ctx.num("timed_s", run.timed_s);
  ctx.num("twins_checked", static_cast<double>(run.twins_checked));
  ctx.num("worst_residual", run.worst_residual);
  ctx.num("worst_orthogonality", run.worst_orthogonality);

  if (args.layers) {
    JsonObject layer;
    count_metrics(run.ops, w.count_ops, layer);
    const Rungs rungs = calibrate(w.shape, args.seed);
    rung_metrics(rungs, layer);
    TraceLog log;
    const ClosedRun traced = run_closed(w, args.seed, 1e9, w.traced_ops, 1, &log);
    traced_metrics(traced.ops, log, quantile(lat, 0.5), layer);
    ladder_metrics(run.ops, rungs, {mean_assembly_ms(traced.ops), mean(run.model_ms)}, layer);
    const int workers =
        exec::ThreadPool::enabled() ? static_cast<int>(exec::ThreadPool::global().workers()) : 0;
    layer.num("exec.pool_busy_frac", workers > 0 ? run.pool_busy_s / (workers * run.timed_s) : 0.0);
    layer.num("exec.queue_high_water", run.pool_queue_high_water);
    for (const char* key : {"svc.queue_wait_ms_p50", "svc.queue_wait_ms_p99",
                            "svc.cache_hit_ratio", "svc.batches_per_job",
                            "svc.dispatcher_busy_frac", "svc.max_rate_ops_s", "svc.slo_miss_frac",
                            "bench.gen_lag_p99_ms"})
      layer.num(key, 0.0);  // no service in a closed loop of direct plan.solve calls
    layer.num("sim.model_ms_per_op", mean(run.model_ms));
    fidelity_metrics(args.seed, layer);
    layer.num("bench.latency_samples", n);
    out.raw("layer", layer.done());
    selftime_json(log, out);
    log.write_chrome(args.out_dir + "/trace_" + w.name + ".json", 200000);
    attempted += traced.ops.size();
    failed += traced.failed;
  }
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(failed));
  out.num("errors", static_cast<double>(failed));
  out.raw("e2e", e2e.done());
  out.raw("context", ctx.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

std::string step_json(const StepResult& s) {
  JsonObject o;
  o.num("rate", s.rate);
  o.num("sent", static_cast<double>(s.sent));
  o.num("ok", static_cast<double>(s.ok));
  o.num("errors", static_cast<double>(s.errors));
  o.num("sheds", static_cast<double>(s.sheds));
  o.num("over_limit", static_cast<double>(s.over_limit));
  o.num("backlog_end", static_cast<double>(s.backlog_end));
  o.num("p50_ms", s.p50_ms);
  o.num("p99_ms", s.p99_ms);
  o.num("gen_lag_p99_ms", s.gen_lag_p99_ms);
  o.raw("sustained", s.sustained ? "true" : "false");
  return o.done();
}

int run_svc_open(const Args& args) {
  const OpenLoopConfig cfg = load_open_loop_config(args.mix);
  if (args.capacity) {
    std::printf("{\"capacity_jobs_s\":%.17g}\n", measure_capacity(cfg, args.seed, args.seconds));
    return 0;
  }
  const OpenLoopResult res = run_open_loop(cfg, args.seed, args.seconds);
  const StepResult& measured = res.steps[cfg.measured_step];

  // failed: failed futures and failed checks. Only the steps above the
  // measured rate can shed, and there shedding is the service's designed
  // answer to overload while they probe for the highest sustainable rate.
  std::uint64_t attempted = res.settle.sent;
  std::uint64_t errors = res.settle.errors;
  double max_rate = 0.0, gen_lag = 0.0;
  std::ostringstream steps;
  steps << "[";
  for (std::size_t s = 0; s < res.steps.size(); ++s) {
    const StepResult& st = res.steps[s];
    attempted += st.sent;
    errors += st.errors;
    if (st.rate <= measured.rate) gen_lag = std::max(gen_lag, st.gen_lag_p99_ms);
    if (st.sustained) max_rate = std::max(max_rate, st.rate);
    steps << (s == 0 ? "" : ",") << step_json(st);
  }
  steps << "]";
  const double completed = static_cast<double>(measured.ops.size());

  JsonObject e2e;
  e2e.num("setup_s", res.setup_s);
  timing_metrics(median_over_segments(measured.segments), e2e);
  e2e.num("peak_rss_mb", peak_rss_mb());

  JsonObject out;
  out.str("workload", "svc_open");
  out.raw("valid", gen_lag <= 1.0 ? "true" : "false");

  JsonObject ctx;
  ctx.num("latency_samples", completed);
  ctx.num("latency_limit_ms", cfg.latency_limit_ms);
  ctx.num("poll_interval_ms", res.poll_interval_ms);
  ctx.num("dispatchers", static_cast<double>(res.dispatchers));
  ctx.num("pool_workers", static_cast<double>(res.pool_workers));
  ctx.num("twins_checked", static_cast<double>(res.twins_checked));
  ctx.num("worst_residual", res.worst_residual);
  ctx.num("worst_orthogonality", res.worst_orthogonality);
  ctx.raw("steps", steps.str());

  if (args.layers) {
    JsonObject layer;
    std::vector<OpRecord> all;
    for (const StepResult& st : res.steps) all.insert(all.end(), st.ops.begin(), st.ops.end());
    count_metrics(all, 256, layer);
    RungShape shape{48, 48, 2, {}};
    for (const MixEntry& e : cfg.mix) shape.specs.push_back(e.spec_text);
    const Rungs rungs = calibrate(shape, args.seed);
    rung_metrics(rungs, layer);
    TraceLog log;
    const StepResult traced = run_open_loop_traced(cfg, args.seed, 150, log);
    traced_metrics(traced.ops, log, measured.p50_ms, layer);
    std::vector<double> queue_ms;
    for (const OpRecord& op : measured.ops)
      queue_ms.push_back(1e-6 * static_cast<double>(op.queue_ns));
    // Queued jobs have no solve-only time to subtract a twin from, so the
    // mix's few sim jobs leave their model time in the remainder.
    ladder_metrics(measured.ops, rungs, {mean_assembly_ms(traced.ops), 0.0}, layer);
    const double wall = measured.wall_s;
    layer.num("exec.pool_busy_frac",
              res.pool_workers > 0
                  ? measured.pool_busy_s / (static_cast<double>(res.pool_workers) * wall)
                  : 0.0);
    layer.num("exec.queue_high_water", res.pool_queue_high_water);
    layer.num("svc.queue_wait_ms_p50", quantile(queue_ms, 0.5));
    layer.num("svc.queue_wait_ms_p99", quantile(queue_ms, 0.99));
    double hits = 0.0, lookups = 0.0, batches = 0.0, jobs = 0.0;
    for (const StepResult& st : res.steps) {
      hits += static_cast<double>(st.cache_hits);
      lookups += static_cast<double>(st.cache_hits + st.cache_misses);
      batches += static_cast<double>(st.batches);
      jobs += static_cast<double>(st.ops.size());
    }
    layer.num("svc.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
    layer.num("svc.batches_per_job", jobs > 0.0 ? batches / jobs : 0.0);
    layer.num("svc.dispatcher_busy_frac",
              res.dispatchers > 0
                  ? measured.dispatcher_busy_s / (static_cast<double>(res.dispatchers) * wall)
                  : 0.0);
    layer.num("svc.max_rate_ops_s", max_rate);
    layer.num("svc.slo_miss_frac",
              measured.sent > 0 ? static_cast<double>(measured.sent - measured.ok) /
                                      static_cast<double>(measured.sent)
                                : 0.0);
    layer.num("bench.gen_lag_p99_ms", gen_lag);
    layer.num("sim.model_ms_per_op", 0.0);
    fidelity_metrics(args.seed, layer);
    layer.num("bench.latency_samples", completed);
    out.raw("layer", layer.done());
    selftime_json(log, out);
    log.write_chrome(args.out_dir + "/trace_svc_open.json", 200000);
    attempted += traced.sent;
    errors += traced.errors;
  }
  out.num("attempted", static_cast<double>(attempted));
  out.num("failed", static_cast<double>(errors));
  out.num("errors", static_cast<double>(errors));
  out.raw("e2e", e2e.done());
  out.raw("context", ctx.done());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S [--layers] [--mix FILE] "
               "[--out-dir DIR] [--capacity]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace jmh::suite

int main(int argc, char** argv) {
  using namespace jmh::suite;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (!std::strcmp(argv[i], "--workload") && has_value) {
      args.workload = argv[++i];
    } else if (!std::strcmp(argv[i], "--seed") && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seconds") && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (!std::strcmp(argv[i], "--mix") && has_value) {
      args.mix = argv[++i];
    } else if (!std::strcmp(argv[i], "--out-dir") && has_value) {
      args.out_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--layers")) {
      args.layers = true;
    } else if (!std::strcmp(argv[i], "--capacity")) {
      args.capacity = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (!(args.seconds > 0.0)) return usage(argv[0]);
  try {
    if (args.workload == "svc_open") return run_svc_open(args);
    for (const ClosedWorkload& w : closed_workloads())
      if (w.name == args.workload) return run_closed_workload(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "runner: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
