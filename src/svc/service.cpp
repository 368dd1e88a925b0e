#include "svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace jmh::svc {

namespace {

std::size_t pick_workers(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 2;
}

bool all_finite(const la::Matrix& a) {
  for (double v : a.data())
    if (!std::isfinite(v)) return false;
  return true;
}

// Chaos draws mirror the transport-layer fault schedule's stateless-hash
// construction (solve/fault_injection.cpp) without svc depending on solve/:
// one splitmix64 step over (seed, salt, job index) gives a replayable
// per-job uniform, identical across runs and worker interleavings.
constexpr std::uint64_t kStallSalt = 0x7374616c6c212121ull;  // "stall!!!"
constexpr std::uint64_t kStormSalt = 0x73746f726d212121ull;  // "storm!!!"

double chaos_uniform(std::uint64_t seed, std::uint64_t salt, std::uint64_t index) {
  std::uint64_t state = seed ^ salt;
  state += index * 0xbf58476d1ce4e5b9ull;
  return static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
}

}  // namespace

std::string Metrics::summary() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof line,
                "service  : %zu workers, queue %zu/%zu (high water %zu)\n", workers,
                queue_depth, queue_capacity, queue_high_water);
  out += line;
  std::snprintf(line, sizeof line,
                "jobs     : %llu submitted, %llu done, %llu failed, %llu coalesced batches\n",
                static_cast<unsigned long long>(jobs_submitted),
                static_cast<unsigned long long>(jobs_done),
                static_cast<unsigned long long>(jobs_failed),
                static_cast<unsigned long long>(batches));
  out += line;
  if (jobs_deadline + jobs_cancelled + jobs_corrupt + jobs_invalid + jobs_shed + retries > 0) {
    std::snprintf(line, sizeof line,
                  "faults   : %llu deadline, %llu cancelled, %llu corrupt, %llu invalid, "
                  "%llu shed, %llu retries\n",
                  static_cast<unsigned long long>(jobs_deadline),
                  static_cast<unsigned long long>(jobs_cancelled),
                  static_cast<unsigned long long>(jobs_corrupt),
                  static_cast<unsigned long long>(jobs_invalid),
                  static_cast<unsigned long long>(jobs_shed),
                  static_cast<unsigned long long>(retries));
    out += line;
  }
  if (chaos_stalls + chaos_storms > 0) {
    std::snprintf(line, sizeof line, "chaos    : %llu stalls, %llu deadline storms\n",
                  static_cast<unsigned long long>(chaos_stalls),
                  static_cast<unsigned long long>(chaos_storms));
    out += line;
  }
  std::snprintf(line, sizeof line, "plans    : %llu cache hits, %llu misses\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses));
  out += line;
  std::snprintf(line, sizeof line,
                "latency  : mean %.3fms  p50 %.3fms  p90 %.3fms  p99 %.3fms  max %.3fms "
                "(%llu jobs)\n",
                1e3 * latency_mean_s, 1e3 * latency_p50_s, 1e3 * latency_p90_s,
                1e3 * latency_p99_s, 1e3 * latency_max_s,
                static_cast<unsigned long long>(latency_count));
  out += line;
  if (!worker_busy_s.empty()) {
    double total = 0.0, peak = 0.0;
    for (double s : worker_busy_s) {
      total += s;
      peak = std::max(peak, s);
    }
    std::snprintf(line, sizeof line,
                  "dispatch : %zu dispatchers busy %.3fs total (max %.3fs)\n",
                  worker_busy_s.size(), total, peak);
    out += line;
  }
  if (pool_workers > 0) {
    double total = 0.0, peak = 0.0;
    for (double s : pool_busy_s) {
      total += s;
      peak = std::max(peak, s);
    }
    std::snprintf(line, sizeof line,
                  "exec pool: %zu workers, queue high water %zu, busy %.3fs total (max %.3fs)\n",
                  pool_workers, pool_queue_high_water, total, peak);
    out += line;
  }
  return out;
}

SolverService::SolverService(ServiceConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      queue_(config.queue_capacity),
      obs_submitted_(obs::Registry::global().counter("svc.jobs_submitted")),
      obs_done_(obs::Registry::global().counter("svc.jobs_done")),
      obs_failed_(obs::Registry::global().counter("svc.jobs_failed")),
      obs_deadline_(obs::Registry::global().counter("svc.jobs_deadline")),
      obs_cancelled_(obs::Registry::global().counter("svc.jobs_cancelled")),
      obs_corrupt_(obs::Registry::global().counter("svc.jobs_corrupt")),
      obs_invalid_(obs::Registry::global().counter("svc.jobs_invalid")),
      obs_shed_(obs::Registry::global().counter("svc.jobs_shed")),
      obs_retries_(obs::Registry::global().counter("svc.retries")),
      obs_chaos_stalls_(obs::Registry::global().counter("svc.chaos_stalls")),
      obs_chaos_storms_(obs::Registry::global().counter("svc.chaos_storms")),
      obs_latency_ns_(obs::Registry::global().histogram("svc.latency_ns")) {
  config_.workers = pick_workers(config.workers);
  config_.max_coalesce = std::max<std::size_t>(1, config_.max_coalesce);
  if (config_.pool_threads > 0 && exec::ThreadPool::enabled())
    exec::ThreadPool::global().ensure_workers(config_.pool_threads);
  workers_.reserve(config_.workers);
  worker_busy_ns_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i)
    worker_busy_ns_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  for (std::size_t i = 0; i < config_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

SolverService::~SolverService() { shutdown(); }

std::future<api::SolveReport> SolverService::submit(std::string spec_text, la::Matrix a,
                                                    SubmitOptions opts) {
  Job job{std::move(spec_text), std::move(a), {}, {}, {}, false};
  if (opts.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(opts.deadline_ms);
  }
  std::future<api::SolveReport> future = job.result.get_future();
  // No lock: a submitted_ increment only makes the drain predicate HARDER,
  // so it cannot be the update a sleeping drain() missed.
  submitted_.fetch_add(1);
  obs_submitted_.add(1);
  // Garbage in is rejected at the door, not after a full solve churned on
  // it: NaN/Inf anywhere in the input can never produce a meaningful
  // spectrum (every quantity funnels through sums that NaN poisons).
  if (!all_finite(job.matrix)) {
    fail_job(job, api::SolveStatus::InvalidInput, "input matrix has non-finite entries");
    return future;
  }
  if (!queue_.push(job)) {
    // Closed: the job never entered the queue; fail it here. Fulfill the
    // promise BEFORE counting the failure (the worker's order too), so
    // drain() returning implies every future is ready.
    fail_job(job, api::SolveStatus::Shed, "SolverService is shut down");
  }
  return future;
}

std::optional<std::future<api::SolveReport>> SolverService::try_submit(std::string spec_text,
                                                                       la::Matrix a,
                                                                       SubmitOptions opts) {
  Job job{std::move(spec_text), std::move(a), {}, {}, {}, false};
  if (opts.deadline_ms > 0) {
    job.has_deadline = true;
    job.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(opts.deadline_ms);
  }
  std::future<api::SolveReport> future = job.result.get_future();
  submitted_.fetch_add(1);
  if (!all_finite(job.matrix)) {
    obs_submitted_.add(1);
    fail_job(job, api::SolveStatus::InvalidInput, "input matrix has non-finite entries");
    return future;
  }
  if (!queue_.try_push(job)) {
    shed_.fetch_add(1);
    obs_shed_.add(1);
    submitted_.fetch_sub(1);  // shed before admission: not part of the drain set
    // The decrement can SATISFY drain()'s predicate, so pair it with the
    // empty-lock handshake (see state_mu_ doc) before notifying.
    { std::lock_guard lock(state_mu_); }
    idle_cv_.notify_all();  // the drain predicate just got easier to meet
    return std::nullopt;
  }
  obs_submitted_.add(1);  // mirror counts only jobs that entered the drain set
  return future;
}

void SolverService::drain() {
  std::unique_lock lock(state_mu_);
  idle_cv_.wait(lock, [&] { return done_ + failed_ >= submitted_; });
}

void SolverService::shutdown() {
  {
    std::lock_guard lock(state_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  queue_.close();  // workers drain the remainder, then exit
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void SolverService::shutdown_now() {
  // Order matters: killed_ first (workers popping after this point fail
  // their group instead of solving), then the token (in-flight solves stop
  // at their next sweep boundary), then the drain/join machinery.
  killed_.store(true, std::memory_order_relaxed);
  run_token_.cancel(common::CancelReason::Cancelled);
  shutdown();
}

void SolverService::record_done(double latency_s) {
  done_.fetch_add(1);
  obs_done_.add(1);
  obs_latency_ns_.observe(static_cast<std::uint64_t>(latency_s * 1e9));
  {
    std::lock_guard lock(state_mu_);
    latency_stats_.add(latency_s);
    // Quantiles come from a bounded ring of recent completions, so a
    // long-running service neither grows without bound nor sorts its whole
    // history per metrics() call.
    if (latency_window_.size() < kLatencyWindow) {
      latency_window_.push_back(latency_s);
    } else {
      latency_window_[latency_next_] = latency_s;
      latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    }
  }
  idle_cv_.notify_all();
}

void SolverService::record_failed(api::SolveStatus status) {
  // failed_ BEFORE the taxonomy bucket -- metrics() reads the buckets
  // first, so sum(buckets) <= failed_ holds in every snapshot.
  failed_.fetch_add(1);
  obs_failed_.add(1);
  switch (status) {
    case api::SolveStatus::DeadlineExceeded:
      deadline_.fetch_add(1);
      obs_deadline_.add(1);
      break;
    case api::SolveStatus::Cancelled:
      cancelled_.fetch_add(1);
      obs_cancelled_.add(1);
      break;
    case api::SolveStatus::TransportCorrupt:
      corrupt_.fetch_add(1);
      obs_corrupt_.add(1);
      break;
    case api::SolveStatus::InvalidInput:
      invalid_.fetch_add(1);
      obs_invalid_.add(1);
      break;
    case api::SolveStatus::Shed:
      shed_.fetch_add(1);
      obs_shed_.add(1);
      break;
    case api::SolveStatus::Ok:
    case api::SolveStatus::Internal: break;
  }
  // Empty-lock handshake: drain() checks its predicate under state_mu_, so
  // acquiring-and-releasing it here orders this increment before the notify
  // reaches any sleeper (no lost wakeup).
  { std::lock_guard lock(state_mu_); }
  idle_cv_.notify_all();
}

void SolverService::fail_job(Job& job, api::SolveStatus status, const std::string& what) {
  job.result.set_exception(std::make_exception_ptr(api::SolveError(status, what)));
  record_failed(status);
}

void SolverService::worker_loop(std::size_t index) {
  std::vector<Job> group;
  std::vector<Job> expired;
  for (;;) {
    const std::size_t taken = queue_.pop_group(group, config_.max_coalesce, &expired);
    if (taken == 0 && expired.empty()) break;  // closed and drained
    const auto group_start = std::chrono::steady_clock::now();
    struct BusyRecorder {
      std::atomic<std::uint64_t>& ns;
      std::chrono::steady_clock::time_point start;
      ~BusyRecorder() {
        ns.fetch_add(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count()),
                     std::memory_order_relaxed);
      }
    } busy{*worker_busy_ns_[index], group_start};
    // Jobs whose deadline lapsed while queued are shed, never solved:
    // under overload the queue sheds instead of compounding the backlog
    // with answers nobody is waiting for anymore.
    for (Job& job : expired)
      fail_job(job, api::SolveStatus::DeadlineExceeded, "deadline expired while queued");
    if (group.empty()) continue;
    if (killed_.load(std::memory_order_relaxed)) {
      // shutdown_now: admitted-but-unstarted jobs fail fast.
      for (Job& job : group)
        fail_job(job, api::SolveStatus::Cancelled, "SolverService::shutdown_now");
      continue;
    }
    std::shared_ptr<const api::SolvePlan> plan;
    try {
      plan = cache_.get(group.front().spec);  // one resolution per group
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (Job& job : group) {
        job.result.set_exception(error);
        record_failed(api::SolveStatus::InvalidInput);
      }
      continue;
    }
    if (group.size() > 1) batches_.fetch_add(1);
    solve_group(group, *plan, chaos_index_.fetch_add(group.size(), std::memory_order_relaxed));
  }
}

void SolverService::solve_group(std::vector<Job>& group, const api::SolvePlan& plan,
                                std::uint64_t first_chaos_index) {
  // The coalesced run executes as a sequential batch on this worker --
  // the pool provides the parallelism; per-matrix numerics are exactly
  // plan.solve, so results are bit-identical to direct calls.
  //
  // trace=1 specs arm the recorder for the whole group so the serving-plane
  // spans below (queue wait, coalescing, the solve envelope, retries) land
  // next to the solve's own sweep/comm spans; trace=0 leaves everything at
  // one relaxed load per gate.
  const obs::ArmScope arm(plan.spec().trace);
  if (obs::trace_armed() && group.size() > 1)
    obs::trace_record("svc.coalesce", obs::Category::kSvc, obs::trace_now_ns(), 0,
                      group.size());
  const ChaosConfig& chaos = config_.chaos;
  for (std::size_t i = 0; i < group.size(); ++i) {
    Job& job = group[i];
    const std::uint64_t chaos_idx = first_chaos_index + i;
    // Queue wait ends here, as solving starts; the span's start is the
    // admission timestamp, so traces show the job's full queue residency.
    const auto solve_start = std::chrono::steady_clock::now();
    const std::uint64_t queue_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(solve_start - job.enqueued_at)
            .count());
    if (obs::trace_armed())
      obs::trace_record("svc.queue_wait", obs::Category::kQueue,
                        obs::trace_time_ns(job.enqueued_at), queue_ns, chaos_idx);
    // The token stays INERT unless something can actually fire it: an armed
    // token widens every convergence vote by a flag slot, and plain service
    // jobs must stay bit-identical to direct plan.solve calls (comm
    // counters included). Armed jobs chain under run_token_, so
    // shutdown_now() also aborts them mid-solve.
    common::CancelToken token;
    if (job.has_deadline) token = run_token_.with_deadline(job.deadline);
    if (chaos.seed != 0) {
      if (chaos_uniform(chaos.seed, kStallSalt, chaos_idx) < chaos.stall_rate) {
        chaos_stalls_.fetch_add(1);
        obs_chaos_stalls_.add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(chaos.stall_ms));
      }
      if (chaos_uniform(chaos.seed, kStormSalt, chaos_idx) < chaos.storm_rate) {
        chaos_storms_.fetch_add(1);
        obs_chaos_storms_.add(1);
        token = (token.armed() ? token : run_token_)
                    .with_timeout(std::chrono::milliseconds(chaos.storm_deadline_ms));
      }
    }
    // Retry loop: only RETRYABLE statuses (transport corruption) re-run;
    // each attempt re-keys the fault schedule so an injected corruption is
    // not deterministically re-hit.
    for (std::uint64_t attempt = 0;; ++attempt) {
      try {
        api::SolveReport report = [&] {
          // The serving-plane envelope around one attempt (arg = attempt):
          // the gap between svc.solve and the sweep spans inside it is
          // plan-cache + dispatch overhead, visible at a glance in a trace.
          const obs::SpanScope solve_span("svc.solve", obs::Category::kSvc, attempt);
          return plan.solve(job.matrix, {.cancel = token, .fault_attempt = attempt});
        }();
        report.timings.queue_ns = queue_ns;
        report.timings.retries = attempt;
        const double latency_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - job.enqueued_at)
                .count();
        job.result.set_value(std::move(report));
        record_done(latency_s);
        break;
      } catch (const api::SolveError& e) {
        if (e.retryable() && attempt < config_.max_retries) {
          retries_.fetch_add(1);
          obs_retries_.add(1);
          if (obs::trace_armed())
            obs::trace_record("svc.retry", obs::Category::kSvc, obs::trace_now_ns(), 0,
                              attempt + 1);
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.retry_backoff_ms << attempt));
          continue;
        }
        job.result.set_exception(std::current_exception());
        record_failed(e.status());
        break;
      } catch (const std::invalid_argument&) {
        // Spec/shape validation errors pass through verbatim (the submit
        // contract); counted as invalid input.
        job.result.set_exception(std::current_exception());
        record_failed(api::SolveStatus::InvalidInput);
        break;
      } catch (const std::exception& e) {
        // The no-untyped-escapes boundary: anything else is a bug in the
        // layers below, surfaced as INTERNAL rather than a raw type the
        // caller cannot classify.
        job.result.set_exception(
            std::make_exception_ptr(api::SolveError(api::SolveStatus::Internal, e.what())));
        record_failed(api::SolveStatus::Internal);
        break;
      }
    }
  }
}

Metrics SolverService::metrics() const {
  Metrics m;
  // Read order carries the snapshot invariants (see the Metrics doc):
  // taxonomy buckets first (each bumped AFTER failed_, so buckets here can
  // only undercount failed_), then failed_, then done_, then submitted_
  // last (bumped BEFORE any completion, so it can only overcount them).
  m.jobs_deadline = deadline_;
  m.jobs_cancelled = cancelled_;
  m.jobs_corrupt = corrupt_;
  m.jobs_invalid = invalid_;
  m.jobs_shed = shed_;
  m.retries = retries_;
  m.chaos_stalls = chaos_stalls_;
  m.chaos_storms = chaos_storms_;
  m.batches = batches_;
  m.jobs_failed = failed_;
  m.jobs_done = done_;
  m.jobs_submitted = submitted_;
  std::vector<double> window;
  {
    std::lock_guard lock(state_mu_);
    m.latency_count = latency_stats_.count();
    m.latency_mean_s = latency_stats_.count() > 0 ? latency_stats_.mean() : 0.0;
    m.latency_max_s = latency_stats_.count() > 0 ? latency_stats_.max() : 0.0;
    window = latency_window_;  // bounded copy; sort outside the lock
  }
  m.latency_p50_s = quantile_of(window, 0.50);
  m.latency_p90_s = quantile_of(window, 0.90);
  m.latency_p99_s = quantile_of(window, 0.99);
  m.cache_hits = cache_.hits();
  m.cache_misses = cache_.misses();
  m.queue_depth = queue_.size();
  m.queue_high_water = queue_.high_water();
  m.queue_capacity = queue_.capacity();
  m.workers = config_.workers;
  m.worker_busy_s.reserve(worker_busy_ns_.size());
  for (const auto& ns : worker_busy_ns_)
    m.worker_busy_s.push_back(1e-9 * static_cast<double>(ns->load(std::memory_order_relaxed)));
  if (exec::ThreadPool::enabled()) {
    const exec::ThreadPool& pool = exec::ThreadPool::global();
    m.pool_workers = pool.workers();
    m.pool_queue_high_water = pool.queue_high_water();
    m.pool_busy_s = pool.worker_busy_seconds();
  }
  return m;
}

}  // namespace jmh::svc
