#include "api/spec.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "cube/hypercube.hpp"

namespace jmh::api {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("SolverSpec::parse: " + what);
}

std::string lower(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

// %.17g round-trips any double exactly through strtod.
std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t parse_uint(std::string_view key, const std::string& value) {
  // The first character must be a digit: strtoull itself accepts a leading
  // '+' (and leading whitespace), which would let "m=+5" and "m=5" name the
  // same scenario and break parse(to_string(spec)) as the canonical fixed
  // point.
  if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])))
    fail("key '" + std::string(key) + "' needs a non-negative integer, got '" + value + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size())
    fail("key '" + std::string(key) + "' needs a non-negative integer, got '" + value + "'");
  return v;
}

/// parse_uint with an inclusive upper bound, for values narrowed into int
/// fields: without the check, d=4294967297 would silently truncate to d=1.
std::uint64_t parse_uint_bounded(std::string_view key, const std::string& value,
                                 std::uint64_t max) {
  const std::uint64_t v = parse_uint(key, value);
  if (v > max)
    fail("key '" + std::string(key) + "' value " + value + " exceeds the maximum " +
         std::to_string(max));
  return v;
}

double parse_double(std::string_view key, const std::string& value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size() || value.empty())
    fail("key '" + std::string(key) + "' needs a number, got '" + value + "'");
  return v;
}

bool parse_bool(std::string_view key, const std::string& value) {
  if (value == "1" || value == "true" || value == "yes" || value == "on") return true;
  if (value == "0" || value == "false" || value == "no" || value == "off") return false;
  fail("key '" + std::string(key) + "' needs 0|1, got '" + value + "'");
}

[[noreturn]] void reject(std::string_view key, const std::string& rule) {
  throw std::invalid_argument("SolverSpec::validate: key '" + std::string(key) + "' " + rule);
}

/// A double parse_double reads back from its canonical form: 0 or a normal
/// number. False for NaN and Inf, and for subnormals, which strtod reports
/// as out of range.
bool parsable(double v) { return v == 0.0 || std::isnormal(v); }

}  // namespace

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::Inline: return "inline";
    case Backend::MpiLite: return "mpi";
    case Backend::Sim: return "sim";
  }
  return "?";
}

std::string to_string(Task task) {
  switch (task) {
    case Task::Evd: return "evd";
    case Task::Svd: return "svd";
    case Task::Pca: return "pca";
    case Task::Gevd: return "gevd";
  }
  return "?";
}

bool parse_task(std::string_view text, Task& out) {
  const std::string norm = lower(text);
  if (norm == "evd" || norm == "eig" || norm == "eigen") out = Task::Evd;
  else if (norm == "svd") out = Task::Svd;
  else if (norm == "pca") out = Task::Pca;
  else if (norm == "gevd") out = Task::Gevd;
  else return false;
  return true;
}

bool parse_backend(std::string_view text, Backend& out) {
  const std::string norm = lower(text);
  if (norm == "inline") out = Backend::Inline;
  else if (norm == "mpi" || norm == "mpilite" || norm == "mpi_lite" || norm == "mpi-lite")
    out = Backend::MpiLite;
  else if (norm == "sim") out = Backend::Sim;
  else return false;
  return true;
}

solve::SolveOptions SolverSpec::solve_options() const {
  solve::SolveOptions opts;
  opts.threshold = threshold;
  opts.max_sweeps = max_sweeps;
  opts.stop_rule = stop_rule;
  opts.off_tol = off_tol;
  opts.topk = topk;
  opts.faults = faults;
  // deadline_ms is NOT resolved here: a deadline is relative to solve()
  // entry, so SolvePlan::solve derives the cancel token per call.
  return opts;
}

void SolverSpec::validate() const {
  // Value ranges. Each test is written as what a legal value satisfies, so
  // a NaN (false against every comparison) fails it.
  if (!(m >= 1)) reject("m", "must be >= 1");
  if (!(d >= 1 && d <= cube::Hypercube::kMaxDimension))
    reject("d", "must be in [1, " + std::to_string(cube::Hypercube::kMaxDimension) + "], got " +
                std::to_string(d));
  if (pipelining == PipeliningPolicy::Fixed && !(q >= 1))
    reject("pipeline", "needs q >= 1 (or off|auto)");
  if (!(parsable(machine.ts) && machine.ts >= 0.0))
    reject("ts", "needs a finite number >= 0, got " + format_double(machine.ts));
  if (!(parsable(machine.tw) && machine.tw >= 0.0))
    reject("tw", "needs a finite number >= 0, got " + format_double(machine.tw));
  if (!(machine.ports >= 1 || machine.all_port())) reject("ports", "must be >= 1 or 'all'");
  if (!(parsable(threshold) && threshold > 0.0))
    reject("threshold", "needs a finite number > 0, got " + format_double(threshold));
  if (!(max_sweeps >= 1)) reject("max_sweeps", "must be >= 1");
  if (!(parsable(off_tol) && off_tol > 0.0))
    reject("off_tol", "needs a finite number > 0, got " + format_double(off_tol));
  if (!(topk >= 0)) reject("topk", "must be >= 0");
  if (!(threads <= kMaxThreads))
    reject("threads", "exceeds the maximum " + std::to_string(kMaxThreads) + ", got " +
                      std::to_string(threads));
  // Bounded well under steady_clock's representable range so
  // now() + deadline never overflows the time_point arithmetic.
  if (!(deadline_ms <= 1000000000ull)) reject("deadline_ms", "exceeds the maximum 1000000000");
  if (faults.enabled()) {
    for (double rate : {faults.corrupt_rate, faults.delay_rate, faults.vote_fail_rate})
      if (!(parsable(rate) && rate >= 0.0 && rate <= 1.0))
        reject("faults", "rates must be in [0, 1]");
    if (!(faults.delay_us <= 1000000000ull))
      reject("faults", "delay_us exceeds the maximum 1000000000");
  }

  // Cross-key constraints (on final values: key order in a parsed string
  // does not matter).
  if ((task == Task::Evd || task == Task::Gevd) && !(rows == 0 || rows == m))
    reject("rows", "!= m needs task=svd|pca (the eigenproblem input is square m x m), got " +
                   std::to_string(rows));
  if (task != Task::Evd && gershgorin_shift)
    reject("shift", "needs task=evd (a diagonal shift has no SVD/PCA/GEVD meaning)");
  if (task == Task::Gevd && !(bseed >= 1))
    reject("bseed", "must be >= 1 for task=gevd (names the deterministic SPD B-side)");
  if (task != Task::Gevd && bseed != 0)
    reject("bseed", "needs task=gevd (no other task has a B-side matrix)");
  if (topk > 0) {
    if (task != Task::Evd && task != Task::Svd)
      reject("topk", "needs task=evd|svd (pca/gevd assemble over the full spectrum)");
    // The core partitions min(rows, m) columns (a wide input is solved as
    // its transpose), so that is the truncation ceiling.
    const std::size_t core_cols = rows != 0 && rows < m ? rows : m;
    if (static_cast<std::size_t>(topk) > core_cols)
      reject("topk", "exceeds the core column count " + std::to_string(core_cols) +
                     " (min(rows, m)), got " + std::to_string(topk));
    if (stop_rule != solve::StopRule::NoRotations)
      reject("topk", "needs stop=norot (per-column activity has no off(A) analogue)");
    if (gershgorin_shift)
      reject("topk", "needs shift=0 (the shift reorders the spectrum the ranking tracks)");
  }
}

std::string SolverSpec::to_string() const {
  std::string out;
  out += "task=" + api::to_string(task);
  out += ",backend=" + api::to_string(backend);
  out += ",ordering=" + ord::spec_token(ordering);
  out += ",m=" + std::to_string(m);
  // rows == m means "square", which 0 already names: render the normalized
  // form so one scenario has exactly one canonical string (the plan-cache
  // key).
  out += ",rows=" + std::to_string(rows == m ? std::size_t{0} : rows);
  out += ",d=" + std::to_string(d);
  out += ",pipeline=";
  switch (pipelining) {
    case PipeliningPolicy::Off: out += "off"; break;
    case PipeliningPolicy::Auto: out += "auto"; break;
    case PipeliningPolicy::Fixed: out += std::to_string(q); break;
  }
  out += ",ts=" + format_double(machine.ts);
  out += ",tw=" + format_double(machine.tw);
  out += ",ports=" + (machine.all_port() ? std::string("all") : std::to_string(machine.ports));
  out += ",overlap=" + std::string(overlap_startup ? "1" : "0");
  out += ",threshold=" + format_double(threshold);
  out += ",max_sweeps=" + std::to_string(max_sweeps);
  out += ",stop=";
  switch (stop_rule) {
    case solve::StopRule::NoRotations: out += "norot"; break;
    case solve::StopRule::OffDiagonal: out += "offdiag"; break;
    case solve::StopRule::OffDiagonalAbsolute: out += "offdiag_abs"; break;
  }
  out += ",off_tol=" + format_double(off_tol);
  out += ",shift=" + std::string(gershgorin_shift ? "1" : "0");
  out += ",bseed=" + std::to_string(bseed);
  out += ",topk=" + std::to_string(topk);
  out += ",threads=" + std::to_string(threads);
  out += ",deadline_ms=" + std::to_string(deadline_ms);
  out += ",trace=" + std::string(trace ? "1" : "0");
  out += ",faults=";
  if (!faults.enabled()) {
    out += "off";
  } else {
    out += std::to_string(faults.seed);
    out += ':' + format_double(faults.corrupt_rate);
    out += ':' + format_double(faults.delay_rate);
    out += ':' + std::to_string(faults.delay_us);
    out += ':' + format_double(faults.vote_fail_rate);
  }
  return out;
}

SolverSpec SolverSpec::parse(const std::string& text) {
  SolverSpec spec;
  // A spec is a scenario NAME: silently letting a later duplicate win would
  // give two canonical-looking strings different meanings, so duplicates
  // are an error. One bit per known key keeps the check allocation-free
  // (BM_SpecRoundTrip is a gated hot case).
  enum KeyBit : std::uint32_t {
    kBackend, kOrdering, kM, kD, kPipeline, kTs, kTw, kPorts, kOverlap,
    kThreshold, kMaxSweeps, kStop, kOffTol, kShift, kTask, kRows, kTopk,
    kThreads, kDeadlineMs, kTrace, kFaults, kBseed,
  };
  std::uint32_t seen_keys = 0;
  const auto mark_seen = [&](std::string_view key, KeyBit bit) {
    const std::uint32_t mask = std::uint32_t{1} << bit;
    if (seen_keys & mask) fail("duplicate key '" + std::string(key) + "'");
    seen_keys |= mask;
  };
  std::string_view rest = trim(text);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token =
        trim(comma == std::string_view::npos ? rest : rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
    if (token.empty()) continue;

    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos)
      fail("token '" + std::string(token) + "' is not key=value");
    const std::string_view key = trim(token.substr(0, eq));
    const std::string value = lower(trim(token.substr(eq + 1)));
    if (key.empty() || value.empty())
      fail("token '" + std::string(token) + "' has an empty key or value");

    if (key == "task") {
      mark_seen(key, kTask);
      if (!parse_task(value, spec.task)) fail("unknown task '" + value + "' (evd|svd|pca|gevd)");
    } else if (key == "backend") {
      mark_seen(key, kBackend);
      if (!parse_backend(value, spec.backend))
        fail("unknown backend '" + value + "' (inline|mpi|sim)");
    } else if (key == "rows") {
      mark_seen(key, kRows);
      spec.rows = static_cast<std::size_t>(
          parse_uint_bounded(key, value, std::numeric_limits<std::size_t>::max()));
    } else if (key == "ordering") {
      mark_seen(key, kOrdering);
      if (!ord::parse_ordering_kind(value, spec.ordering))
        fail("unknown ordering '" + value + "' (br|pbr|d4|minalpha)");
      if (spec.ordering == ord::OrderingKind::Custom)
        fail("ordering=custom needs programmatic sequences; use Solver::plan(spec, ordering)");
    } else if (key == "m") {
      mark_seen(key, kM);
      spec.m = static_cast<std::size_t>(
          parse_uint_bounded(key, value, std::numeric_limits<std::size_t>::max()));
    } else if (key == "d") {
      mark_seen(key, kD);
      spec.d = static_cast<int>(
          parse_uint_bounded(key, value, std::numeric_limits<int>::max()));
    } else if (key == "pipeline") {
      mark_seen(key, kPipeline);
      if (value == "off") {
        spec.pipelining = PipeliningPolicy::Off;
      } else if (value == "auto") {
        spec.pipelining = PipeliningPolicy::Auto;
      } else {
        spec.pipelining = PipeliningPolicy::Fixed;
        spec.q = parse_uint(key, value);
      }
    } else if (key == "ts") {
      mark_seen(key, kTs);
      spec.machine.ts = parse_double(key, value);
    } else if (key == "tw") {
      mark_seen(key, kTw);
      spec.machine.tw = parse_double(key, value);
    } else if (key == "ports") {
      mark_seen(key, kPorts);
      if (value == "all") {
        spec.machine.ports = pipe::MachineParams::kAllPort;
      } else {
        spec.machine.ports = static_cast<int>(
            parse_uint_bounded(key, value, std::numeric_limits<int>::max()));
      }
    } else if (key == "overlap") {
      mark_seen(key, kOverlap);
      spec.overlap_startup = parse_bool(key, value);
    } else if (key == "threshold") {
      mark_seen(key, kThreshold);
      spec.threshold = parse_double(key, value);
    } else if (key == "max_sweeps") {
      mark_seen(key, kMaxSweeps);
      spec.max_sweeps = static_cast<int>(
          parse_uint_bounded(key, value, std::numeric_limits<int>::max()));
    } else if (key == "stop") {
      mark_seen(key, kStop);
      if (value == "norot") spec.stop_rule = solve::StopRule::NoRotations;
      else if (value == "offdiag") spec.stop_rule = solve::StopRule::OffDiagonal;
      else if (value == "offdiag_abs") spec.stop_rule = solve::StopRule::OffDiagonalAbsolute;
      else fail("unknown stop rule '" + value + "' (norot|offdiag|offdiag_abs)");
    } else if (key == "off_tol") {
      mark_seen(key, kOffTol);
      spec.off_tol = parse_double(key, value);
    } else if (key == "shift") {
      mark_seen(key, kShift);
      spec.gershgorin_shift = parse_bool(key, value);
    } else if (key == "bseed") {
      mark_seen(key, kBseed);
      spec.bseed = parse_uint(key, value);
    } else if (key == "topk") {
      mark_seen(key, kTopk);
      spec.topk = static_cast<int>(
          parse_uint_bounded(key, value, std::numeric_limits<int>::max()));
    } else if (key == "threads") {
      mark_seen(key, kThreads);
      spec.threads = static_cast<std::size_t>(
          parse_uint_bounded(key, value, std::numeric_limits<std::size_t>::max()));
    } else if (key == "deadline_ms") {
      mark_seen(key, kDeadlineMs);
      spec.deadline_ms = parse_uint(key, value);
    } else if (key == "trace") {
      mark_seen(key, kTrace);
      spec.trace = parse_bool(key, value);
    } else if (key == "faults") {
      mark_seen(key, kFaults);
      if (value == "off") {
        spec.faults = solve::FaultPlan{};
      } else {
        // <seed>:<corrupt>:<delay>:<delay_us>:<vote>, exactly five fields.
        std::string parts[5];
        std::size_t n = 0, start = 0;
        while (true) {
          const std::size_t colon = value.find(':', start);
          const std::string part = value.substr(
              start, colon == std::string::npos ? colon : colon - start);
          if (n < 5) parts[n] = part;
          ++n;
          if (colon == std::string::npos) break;
          start = colon + 1;
        }
        if (n != 5)
          fail("key 'faults' needs off or <seed>:<corrupt>:<delay>:<delay_us>:<vote>, got '" +
               value + "'");
        spec.faults.seed = parse_uint(key, parts[0]);
        if (spec.faults.seed == 0) fail("key 'faults' seed must be >= 1 (use faults=off to disable)");
        spec.faults.corrupt_rate = parse_double(key, parts[1]);
        spec.faults.delay_rate = parse_double(key, parts[2]);
        spec.faults.delay_us = parse_uint(key, parts[3]);
        spec.faults.vote_fail_rate = parse_double(key, parts[4]);
      }
    } else {
      fail("unknown key '" + std::string(key) + "'");
    }
  }
  // "rows=m" and "rows=0" name the same square scenario: normalize, so the
  // two spellings parse to EQUAL specs with one canonical string (otherwise
  // the plan cache would compile duplicate plans for one scenario -- the
  // same aliasing the leading-'+' rejection exists to prevent).
  if (spec.rows == spec.m) spec.rows = 0;
  spec.validate();
  return spec;
}

}  // namespace jmh::api
