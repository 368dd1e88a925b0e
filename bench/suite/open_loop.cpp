// The svc_open workload: Poisson arrivals into svc::SolverService over a
// ladder of fixed absolute rates.
//
// One generator thread sends each job at its scheduled time (the input is
// built before that time, outside every measurement); a collector thread
// polls the outstanding futures and timestamps each one as it becomes
// ready. A job's latency runs from its SCHEDULED send time, so a stalled
// generator or a full queue shows up as latency rather than as a slower
// offered load. Up to the measured rate the generator sends with the
// blocking submit, so a stall of the host queues jobs instead of shedding
// them; the probe steps above it send with try_submit and count sheds.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "suite.hpp"
#include "svc/service.hpp"

namespace jmh::suite {

namespace {

// The service under test: two dispatchers over the shared pool, a
// bounded queue that sheds when full, same-spec coalescing.
svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 256;
  config.cache_capacity = 32;
  config.max_coalesce = 4;
  return config;
}

constexpr int kWarmupPerSpec = 4;
constexpr auto kPollInterval = std::chrono::microseconds(20);
/// Untimed traffic at the measured rate before the ladder. Without it the
/// first step's first second or two run below capacity (the host's idle
/// cores take that long to come up to speed) and its p99 is 10-50x worse.
constexpr double kSettleSeconds = 2.0;
/// Settle and traced jobs draw inputs far from the timed ones, so no two
/// jobs share one.
constexpr std::uint64_t kSettleIndexBase = std::uint64_t{1} << 39;
constexpr std::uint64_t kTracedIndexBase = std::uint64_t{1} << 40;
/// A step's backlog "grows" when more than this share of its jobs is still
/// outstanding as its sending window closes.
constexpr double kBacklogShare = 0.05;

struct Pending {
  std::uint64_t index = 0;
  std::size_t entry = 0;
  Clock::time_point due;
  std::future<api::SolveReport> result;
};

struct Completed {
  std::uint64_t index = 0;
  std::size_t entry = 0;
  double due_s = 0.0;  ///< scheduled send, from the step's start
  double latency_s = 0.0;
  std::optional<api::SolveReport> report;  ///< empty: the future held an error
};

/// The traffic itself -- arrival times and each job's spec -- follows one
/// fixed schedule, so every run offers the identical load and --seed varies
/// only the matrices. With per-seed schedules the measured p99 moved 19%
/// (IQR / median) between seeds, from burst structure alone.
constexpr std::uint64_t kScheduleSeed = 1;

/// The spec of job @p index, drawn by weight from the schedule.
std::size_t pick_entry(const std::vector<MixEntry>& mix, std::uint64_t index) {
  Xoshiro256 rng = job_rng(kScheduleSeed, Stream::kSchedule, index);
  double total = 0.0;
  for (const MixEntry& e : mix) total += e.weight;
  double u = rng.uniform01() * total;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    u -= mix[i].weight;
    if (u < 0.0) return i;
  }
  return mix.size() - 1;
}

/// False when the step's backlog grew: too many jobs still outstanding as
/// its sending window closed.
bool backlog_held(const StepResult& step) {
  return static_cast<double>(step.backlog_end) <= kBacklogShare * static_cast<double>(step.sent);
}

double sum(const std::vector<double>& values) {
  double s = 0.0;
  for (double v : values) s += v;
  return s;
}

/// The service plus everything the runner keeps beside it: one plan per
/// mix entry for op metadata, inline twins for the parity sample, and the
/// correctness gate.
class OpenLoop {
 public:
  OpenLoop(const OpenLoopConfig& cfg, std::uint64_t seed, bool traced)
      : cfg_(cfg), seed_(seed), suffix_(traced ? ",trace=1" : "") {
    for (const MixEntry& e : cfg_.mix) {
      plans_.push_back(api::Solver::plan(e.spec));
      twins_.push_back(e.spec.backend == api::Backend::Inline
                           ? std::nullopt
                           : std::optional(api::Solver::plan(inline_twin(e.spec))));
    }
  }

  /// Builds the service the steps run on and warms every spec; returns
  /// the seconds taken.
  double set_up() { return build_service(service_); }

  /// The same set-up on a throwaway service (a further set-up sample).
  double set_up_spare() {
    std::unique_ptr<svc::SolverService> spare;
    return build_service(spare);
  }

  svc::SolverService& service() { return *service_; }

  /// Sends jobs at @p rate for @p seconds (or until @p max_jobs are sent),
  /// waits for all of them, then checks every report. With @p shed a job
  /// goes through try_submit and a full queue refuses it; without, submit
  /// waits for room.
  StepResult run_step(double rate, double seconds, std::size_t max_jobs, std::uint64_t stream_id,
                      std::uint64_t first_index, bool shed) {
    StepResult step;
    step.rate = rate;
    std::mutex inbox_mu;
    std::vector<Pending> inbox;
    std::atomic<bool> sending_done{false};
    std::vector<double> lags;  // written by the generator, read after join
    std::uint64_t sheds = 0;

    const svc::Metrics m0 = service_->metrics();
    const double pool0 = pool_busy_seconds();
    const double cpu0 = process_cpu_seconds();
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
    const auto at = [&](double t) {
      return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
    };
    const Clock::time_point window_end = at(seconds);
    // Segment k covers jobs due in [k, k+1) * seconds / K; the collector
    // samples process CPU and completions as each boundary passes.
    const std::size_t segments = segment_count(static_cast<std::size_t>(
        std::min(static_cast<double>(max_jobs), rate * seconds)));
    std::vector<double> cpu_at(segments + 1, cpu0), done_at(segments + 1, 0.0);
    std::size_t boundary = 1;

    // jthread: joined on every path out of this scope, exceptions included.
    std::jthread generator([&] {
      Xoshiro256 arrivals = job_rng(kScheduleSeed, Stream::kArrivals, stream_id);
      double t = 0.0;
      for (std::uint64_t k = 0; k < max_jobs; ++k) {
        t += -std::log1p(-arrivals.uniform01()) / rate;
        if (t >= seconds) break;
        const std::uint64_t index = first_index + k;
        const std::size_t entry = pick_entry(cfg_.mix, index);
        Xoshiro256 rng = job_rng(seed_, Stream::kTimed, index);
        la::Matrix a = make_input(cfg_.mix[entry].spec, rng);
        std::string text = cfg_.mix[entry].spec_text + suffix_;
        const Clock::time_point due = at(t);
        std::this_thread::sleep_until(due);
        lags.push_back(seconds_between(due, Clock::now()));
        std::optional<std::future<api::SolveReport>> f;
        if (shed) {
          const obs::SpanScope span("svc.try_submit", obs::Category::kSvc, index);
          f = service_->try_submit(std::move(text), std::move(a));
        } else {
          const obs::SpanScope span("svc.submit", obs::Category::kSvc, index);
          f = service_->submit(std::move(text), std::move(a));
        }
        if (!f) {
          ++sheds;
          continue;
        }
        const std::lock_guard lock(inbox_mu);
        inbox.push_back({index, entry, due, std::move(*f)});
      }
      sending_done.store(true);
    });

    // Collector (this thread): timestamp each future as it becomes ready.
    std::vector<Pending> outstanding;
    std::vector<Completed> completed;
    bool window_closed = false;
    std::uint64_t polls = 0;
    const auto collect_start = Clock::now();
    for (;;) {
      const bool done_sending = sending_done.load();
      {
        const std::lock_guard lock(inbox_mu);
        for (Pending& p : inbox) outstanding.push_back(std::move(p));
        inbox.clear();
      }
      const Clock::time_point now = Clock::now();
      for (; boundary <= segments &&
             now >= at(seconds * static_cast<double>(boundary) / static_cast<double>(segments));
           ++boundary) {
        cpu_at[boundary] = process_cpu_seconds();
        done_at[boundary] = static_cast<double>(completed.size());
      }
      if (!window_closed && now >= window_end) {
        window_closed = true;
        step.backlog_end = outstanding.size();
      }
      for (std::size_t i = 0; i < outstanding.size();) {
        Pending& p = outstanding[i];
        if (p.result.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        Completed c{p.index, p.entry, seconds_between(start, p.due), seconds_between(p.due, now),
                    std::nullopt};
        try {
          c.report = p.result.get();
        } catch (const std::exception&) {
          c.report.reset();
        }
        if (obs::trace_armed())
          obs::trace_record("bench.job", obs::Category::kSvc, obs::trace_time_ns(p.due),
                            static_cast<std::uint64_t>(1e9 * c.latency_s), p.index);
        completed.push_back(std::move(c));
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      ++polls;
      if (done_sending && outstanding.empty()) {
        const std::lock_guard lock(inbox_mu);
        if (inbox.empty()) break;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
    generator.join();
    step.wall_s = seconds_between(start, Clock::now());
    poll_interval_s_ = seconds_between(collect_start, Clock::now()) / static_cast<double>(polls);

    const double cpu_end = process_cpu_seconds();
    for (; boundary <= segments; ++boundary) {  // a step cut short by max_jobs
      cpu_at[boundary] = cpu_end;
      done_at[boundary] = static_cast<double>(completed.size());
    }
    const auto segment_start = [&](std::size_t k) {
      return seconds * static_cast<double>(k) / static_cast<double>(segments);
    };
    step.segments.resize(segments);
    for (std::size_t k = 0; k < segments; ++k) {
      step.segments[k].cpu_s = cpu_at[k + 1] - cpu_at[k];
      step.segments[k].ops = done_at[k + 1] - done_at[k];
    }
    const svc::Metrics m1 = service_->metrics();
    step.dispatcher_busy_s = sum(m1.worker_busy_s) - sum(m0.worker_busy_s);
    step.pool_busy_s = pool_busy_seconds() - pool0;
    step.cache_hits = m1.cache_hits - m0.cache_hits;
    step.cache_misses = m1.cache_misses - m0.cache_misses;
    step.batches = m1.batches - m0.batches;
    step.sheds = sheds;
    step.sent = completed.size() + sheds;

    // Correctness gate, after the step: regenerate each input from its
    // index, check the report, and hold an inline twin to a sample.
    const double limit_s = 1e-3 * cfg_.latency_limit_ms;
    std::vector<double> latencies;
    for (Completed& c : completed) {
      latencies.push_back(c.latency_s);
      const MixEntry& e = cfg_.mix[c.entry];
      Xoshiro256 rng = job_rng(seed_, Stream::kTimed, c.index);
      const la::Matrix a = make_input(e.spec, rng);
      bool ok = c.report.has_value() && checker_.check(e.spec, a, *c.report);
      if (ok && twins_[c.entry] && c.index % 8 == 0) {
        ok = bit_identical(*c.report, twins_[c.entry]->solve(a));
        ++twins_checked_;
      }
      const auto k = std::min(segments - 1, static_cast<std::size_t>(
                                                c.due_s / seconds * static_cast<double>(segments)));
      Segment& seg = step.segments[k];
      seg.latency_ms.push_back(1e3 * c.latency_s);
      // Throughput runs from the segment's start to its last completion.
      seg.seconds = std::max(seg.seconds, c.due_s + c.latency_s - segment_start(k));
      if (!ok) {
        ++step.errors;
      } else if (c.latency_s > limit_s) {
        ++step.over_limit;
      } else {
        ++step.ok;
        seg.ok += 1.0;
      }
      if (c.report) {
        OpRecord op = record_of(plans_[c.entry], *c.report, c.index, c.latency_s);
        op.ok = ok;
        step.ops.push_back(op);
      }
    }
    step.p50_ms = 1e3 * quantile(latencies, 0.5);
    step.p99_ms = 1e3 * quantile(latencies, 0.99);
    step.gen_lag_p99_ms = 1e3 * quantile(lags, 0.99);
    step.sustained = step.errors == 0 && step.sheds == 0 &&
                     step.p99_ms <= cfg_.latency_limit_ms && backlog_held(step);
    return step;
  }

  /// The measured step as independent windows, one per segment: each sends
  /// at @p rate for its share of @p seconds and drains before the next one
  /// starts, so a slow spell of the host spoils the windows it falls in,
  /// not every window after it through the backlog it leaves.
  StepResult run_windows(double rate, double seconds, std::uint64_t stream_id,
                         std::uint64_t first_index) {
    const std::size_t windows = segment_count(static_cast<std::size_t>(rate * seconds));
    StepResult all;
    all.rate = rate;
    bool every_backlog_held = true;
    std::vector<double> latencies_ms;
    for (std::size_t w = 0; w < windows; ++w) {
      StepResult step = run_step(rate, seconds / static_cast<double>(windows), ~std::size_t{0},
                                 ((stream_id + 1) << 16) + w, first_index + all.sent,
                                 /*shed=*/false);
      all.wall_s += step.wall_s;
      all.sent += step.sent;
      all.ok += step.ok;
      all.errors += step.errors;
      all.sheds += step.sheds;
      all.over_limit += step.over_limit;
      all.backlog_end = std::max(all.backlog_end, step.backlog_end);
      all.gen_lag_p99_ms = std::max(all.gen_lag_p99_ms, step.gen_lag_p99_ms);
      all.dispatcher_busy_s += step.dispatcher_busy_s;
      all.pool_busy_s += step.pool_busy_s;
      all.cache_hits += step.cache_hits;
      all.cache_misses += step.cache_misses;
      all.batches += step.batches;
      every_backlog_held = every_backlog_held && backlog_held(step);
      for (Segment& seg : step.segments) {
        latencies_ms.insert(latencies_ms.end(), seg.latency_ms.begin(), seg.latency_ms.end());
        all.segments.push_back(std::move(seg));
      }
      all.ops.insert(all.ops.end(), step.ops.begin(), step.ops.end());
    }
    all.p50_ms = quantile(latencies_ms, 0.5);
    all.p99_ms = quantile(latencies_ms, 0.99);
    all.sustained = all.errors == 0 && all.sheds == 0 &&
                    all.p99_ms <= cfg_.latency_limit_ms && every_backlog_held;
    return all;
  }

  double poll_interval_s() const noexcept { return poll_interval_s_; }
  std::uint64_t twins_checked() const noexcept { return twins_checked_; }
  const Checker& checker() const noexcept { return checker_; }

 private:
  double build_service(std::unique_ptr<svc::SolverService>& service) {
    const auto t0 = Clock::now();
    service = std::make_unique<svc::SolverService>(service_config());
    std::vector<std::future<api::SolveReport>> warm;
    for (std::size_t e = 0; e < cfg_.mix.size(); ++e) {
      for (int i = 0; i < kWarmupPerSpec; ++i) {
        Xoshiro256 rng = job_rng(seed_, Stream::kWarmup, e * 1000 + static_cast<std::size_t>(i));
        warm.push_back(
            service->submit(cfg_.mix[e].spec_text + suffix_, make_input(cfg_.mix[e].spec, rng)));
      }
    }
    for (auto& f : warm) f.get();
    return seconds_between(t0, Clock::now());
  }

  const OpenLoopConfig& cfg_;
  std::uint64_t seed_;
  std::string suffix_;
  std::vector<api::SolvePlan> plans_;
  std::vector<std::optional<api::SolvePlan>> twins_;
  Checker checker_;
  std::unique_ptr<svc::SolverService> service_;
  double poll_interval_s_ = 0.0;
  std::uint64_t twins_checked_ = 0;
};

}  // namespace

OpenLoopConfig load_open_loop_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read workload file " + path);
  OpenLoopConfig cfg;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string head;
    if (!(words >> head) || head[0] == '#') continue;
    if (head == "rates") {
      for (double r; words >> r;) cfg.rates.push_back(r);
    } else if (head == "measured_step") {
      words >> cfg.measured_step;
    } else if (head == "latency_limit_ms") {
      words >> cfg.latency_limit_ms;
    } else {
      MixEntry e;
      e.weight = std::stod(head);
      words >> e.spec_text;
      e.spec = api::SolverSpec::parse(e.spec_text);
      cfg.mix.push_back(std::move(e));
    }
  }
  if (cfg.mix.empty() || cfg.rates.empty() || cfg.measured_step >= cfg.rates.size())
    throw std::runtime_error(path + ": needs a spec mix, rates, and a measured_step among them");
  return cfg;
}

OpenLoopResult run_open_loop(const OpenLoopConfig& cfg, std::uint64_t seed, double seconds) {
  OpenLoop loop(cfg, seed, /*traced=*/false);
  OpenLoopResult out;
  // Set-up is sampled before the ladder and again on a throwaway service
  // after the settle and after every step but the last, so the median
  // spans the run rather than one moment of it.
  std::vector<double> setups{loop.set_up()};
  const double measured_rate = cfg.rates[cfg.measured_step];
  out.settle = loop.run_step(measured_rate, kSettleSeconds, ~std::size_t{0}, cfg.rates.size(),
                             kSettleIndexBase, /*shed=*/false);
  setups.push_back(loop.set_up_spare());
  // The measured step gets two thirds of the time, the others share the
  // rest.
  const double others = static_cast<double>(cfg.rates.size() - 1);
  std::uint64_t next_index = 0;
  for (std::size_t s = 0; s < cfg.rates.size(); ++s) {
    StepResult step =
        s == cfg.measured_step
            ? loop.run_windows(cfg.rates[s], seconds * 2 / 3, s, next_index)
            : loop.run_step(cfg.rates[s], others > 0 ? seconds / 3 / others : 0.0,
                            ~std::size_t{0}, s, next_index, /*shed=*/cfg.rates[s] > measured_rate);
    next_index += step.sent;
    out.steps.push_back(std::move(step));
    if (s + 1 < cfg.rates.size()) setups.push_back(loop.set_up_spare());
  }
  out.setup_s = quantile(setups, 0.5);
  out.pool_queue_high_water = pool_queue_high_water();
  const svc::Metrics m = loop.service().metrics();
  out.dispatchers = m.workers;
  out.pool_workers = m.pool_workers;
  out.poll_interval_ms = 1e3 * loop.poll_interval_s();
  out.worst_residual = loop.checker().worst_residual();
  out.worst_orthogonality = loop.checker().worst_orthogonality();
  out.twins_checked = loop.twins_checked();
  return out;
}

StepResult run_open_loop_traced(const OpenLoopConfig& cfg, std::uint64_t seed, std::size_t jobs,
                                TraceLog& log) {
  OpenLoop loop(cfg, seed, /*traced=*/true);
  loop.set_up();
  // Rings are cleared once while the service is idle and drained once at
  // the end: the job count is small enough that no ring wraps, and
  // obs.dropped_events proves it.
  log.begin();
  StepResult step = loop.run_step(cfg.rates[cfg.measured_step], 1e9, jobs, 1000,
                                  kTracedIndexBase, /*shed=*/false);
  // Lets the dispatchers leave their traced groups (and ArmScopes) before
  // the rings are drained and reset.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  log.end();
  return step;
}

double measure_capacity(const OpenLoopConfig& cfg, std::uint64_t seed, double seconds) {
  OpenLoop loop(cfg, seed, /*traced=*/false);
  loop.set_up();
  // A window of outstanding jobs keeps both dispatchers busy: the service
  // runs flat out, so completions per second is its capacity.
  constexpr std::size_t kWindow = 64;
  std::vector<std::future<api::SolveReport>> window;
  std::uint64_t index = 0, done = 0;
  const auto t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < seconds) {
    while (window.size() < kWindow) {
      const std::size_t entry = pick_entry(cfg.mix, index);
      Xoshiro256 rng = job_rng(seed, Stream::kTimed, index++);
      window.push_back(
          loop.service().submit(cfg.mix[entry].spec_text, make_input(cfg.mix[entry].spec, rng)));
    }
    window.front().get();
    window.erase(window.begin());
    ++done;
  }
  const double elapsed = seconds_between(t0, Clock::now());
  for (auto& f : window) f.get();
  return static_cast<double>(done) / elapsed;
}

}  // namespace jmh::suite
