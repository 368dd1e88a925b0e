#!/usr/bin/env python3
"""End-to-end benchmark of the Jacobi solver stack, with a layer cost ladder.

Builds the library (Release, into .bench_build/lib) and the runner in this
directory against it, runs the workloads named in BENCHMARK.json, checks
every output, and prints each metric with its unit.

  python3 bench/suite/run_suite.py [--seed N] [--seconds S]
      Every workload once: the end-to-end metrics of the untraced run, the
      per-layer table (counts, calibration rungs, a traced run) and each
      traced run's span self-time table. Exits 1 if any op failed.
  --workload NAME       only that workload
  --repeat N            N runs per workload (seeds seed, seed+1000, ...);
                        prints each metric's median and quartiles
  --stability           two sets of --repeat runs (default 5) of the same
                        seeds: end-to-end medians must agree within their
                        BENCHMARK.json bound, count metrics exactly
  --smoke               every workload for 2 s, same checks
  --workload NAME --trace 0|1
                        one run in the calling convention BENCHMARK.json
                        declares: the last stdout line is one JSON object with
                        the end-to-end (--trace 0) or per-layer (--trace 1)
                        metrics

Seed 2 is held out for performance claims; tune on seed 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BUILD = ROOT / ".bench_build"
LIB_BUILD = BUILD / "lib"
OUT = BUILD / "bench_suite"
MIX = SUITE / "workloads" / "svc_open.txt"
RUNNER_TIMEOUT_S = 170

# Per-layer metrics that are exact for a seed: two runs of one seed must
# report them bit for bit.
EXACT = ("solve.sweeps_per_op", "la.rotations_per_op", "net.messages_per_op",
         "net.bytes_per_op", "pipe.q.", "sim.modeled_comm_per_sweep.",
         "sim.link_util.", "pipe.model_vs_sim.")


class SuiteError(Exception):
    pass


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


# ---- build -----------------------------------------------------------------

def run_quiet(cmd: list[str]) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SuiteError(f"command failed ({proc.returncode}): {shlex.join(cmd)}")


def library_flags(compile_commands: Path) -> tuple[str, list[str]]:
    """Compiler and flags of a library TU: optimization, -march, -ffp-contract,
    defines (JMH_TRACE_ENABLED), the warning wall and include paths."""
    for entry in json.loads(compile_commands.read_text(encoding="utf-8")):
        if entry["file"].endswith("src/api/solver.cpp"):
            words = shlex.split(entry["command"])
            flags, skip = [], False
            for w in words[1:]:
                if skip:
                    skip = False
                elif w in ("-o", "-c"):
                    skip = True
                else:
                    flags.append(w)
            return words[0], flags
    raise SuiteError(f"no library TU in {compile_commands}")


def build() -> Path:
    """Configures and builds the library, then the runner (both incremental)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SuiteError(f"no library sources under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (LIB_BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        log("bench: configuring the library build")
        run_quiet(["cmake", "-S", str(ROOT), "-B", str(LIB_BUILD), *generator,
                   "-DCMAKE_BUILD_TYPE=Release", "-DJMH_BUILD_TESTS=OFF",
                   "-DJMH_BUILD_BENCHES=OFF", "-DJMH_BUILD_EXAMPLES=OFF"])
    run_quiet(["cmake", "--build", str(LIB_BUILD), "--target", "jmh", "-j", jobs])
    library = LIB_BUILD / "libjmh.a"
    compile_commands = LIB_BUILD / "compile_commands.json"
    compiler, flags = library_flags(compile_commands)

    runner = OUT / "runner"
    sources = sorted(SUITE.glob("*.cpp"))
    inputs = [*sources, *SUITE.glob("*.hpp"), library, compile_commands]
    if runner.is_file() and runner.stat().st_mtime >= max(p.stat().st_mtime for p in inputs):
        return runner
    log("bench: compiling the runner")
    objects = OUT / "obj"
    objects.mkdir(parents=True, exist_ok=True)
    procs = []
    for src in sources:
        obj = objects / (src.stem + ".o")
        cmd = [compiler, *flags, "-Werror", "-c", str(src), "-o", str(obj)]
        procs.append((cmd, subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                            stderr=subprocess.STDOUT, text=True)))
    failed = []
    for cmd, proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            sys.stderr.write(out)
            failed.append(shlex.join(cmd))
    if failed:
        raise SuiteError("runner compile failed: " + "; ".join(failed))
    run_quiet([compiler, *[f for f in flags if not f.startswith("-W")], "-pthread",
               *[str(objects / (s.stem + ".o")) for s in sources], str(library),
               "-o", str(runner)])
    return runner


# ---- environment -------------------------------------------------------------

def environment() -> dict:
    def read(path: Path) -> str | None:
        try:
            return path.read_text(encoding="utf-8").strip()
        except OSError:
            return None

    cache = {}
    for line in (read(LIB_BUILD / "CMakeCache.txt") or "").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                             capture_output=True).stdout.strip() or None
    except OSError:
        sha = None
    load = os.getloadavg()
    compile_commands = LIB_BUILD / "compile_commands.json"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "governor": read(Path("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")),
        "load_avg": list(load),
        "noisy": load[0] > 1.0,
        "git_sha": sha,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "jmh_trace_option": cache.get("JMH_TRACE"),
        "library_flags": (shlex.join(library_flags(compile_commands)[1])
                          if compile_commands.is_file() else None),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("JMH_EXEC_") or k == "JMH_TRACE"},
    }


# ---- one runner process ------------------------------------------------------

def run_workload(runner: Path, workload: str, seed: int, seconds: float, layers: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(runner), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--mix", str(MIX), "--out-dir", str(OUT)]
    if layers:
        cmd.append("--layers")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SuiteError(f"{workload}: runner timed out after {RUNNER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise SuiteError(f"{workload}: runner exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_values(result: dict, specs: list[dict], section: str) -> dict[str, float]:
    values = result.get(section, {})
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise SuiteError(f"{result['workload']}: runner reported no {', '.join(missing)}")
    return {m["name"]: values[m["name"]] for m in specs}


# ---- printing -------------------------------------------------------------------

def print_metrics(title: str, specs: list[dict], values: dict[str, float]) -> None:
    print(f"  {title}")
    for m in specs:
        print(f"    {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")


def print_run(bench: dict, result: dict) -> None:
    ctx = result["context"]
    attempted, failed = int(result["attempted"]), int(result["failed"])
    print(f"== {result['workload']}: {attempted} ops attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.3g}), latency N = {int(ctx['latency_samples'])}, "
          f"worst residual {ctx['worst_residual']:.2g}")
    if not result.get("valid", True):
        print("  INVALID: the open-loop generator ran more than 1 ms late (p99)")
    print_metrics("end to end (untraced)", bench["end_to_end"],
                  metric_values(result, bench["end_to_end"], "e2e"))
    for step in ctx.get("steps", []):
        print(f"    step {step['rate']:>7.0f} jobs/s: sent {int(step['sent'])}, "
              f"p50 {step['p50_ms']:.3f} ms, p99 {step['p99_ms']:.3f} ms, "
              f"over limit {int(step['over_limit'])}, shed {int(step['sheds'])}, "
              f"backlog {int(step['backlog_end'])}, "
              f"{'sustained' if step['sustained'] else 'not sustained'}")
    if "layer" in result:
        print_metrics("per layer", bench["per_layer"],
                      metric_values(result, bench["per_layer"], "layer"))
        print("  traced span self time (ms)        count      total       self")
        for row in result["selftime"][:14]:
            print(f"    {row['name']:<28} {int(row['count']):>9} {row['total_ms']:>10.2f} "
                  f"{row['self_ms']:>10.2f}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- modes ---------------------------------------------------------------------

def declared_run(bench: dict, runner: Path, args) -> int:
    """One run as BENCHMARK.json declares it; the last stdout line is the result."""
    result = run_workload(runner, args.workload, args.seed, args.seconds, args.trace == 1)
    specs = bench["per_layer"] if args.trace == 1 else bench["end_to_end"]
    values = metric_values(result, specs, "layer" if args.trace == 1 else "e2e")
    print_run(bench, result)
    print(json.dumps({
        "correct": int(result["errors"]) == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }))
    return 0


def repeated(bench: dict, runner: Path, workloads: list[str], seeds: list[int],
             seconds: float) -> tuple[dict, int]:
    """({workload: {metric: [value per seed]}}, total failed ops)."""
    table: dict = {w: {} for w in workloads}
    failed = 0
    for seed in seeds:
        for w in workloads:
            result = run_workload(runner, w, seed, seconds, layers=True)
            failed += int(result["failed"])
            for section, specs in (("e2e", bench["end_to_end"]), ("layer", bench["per_layer"])):
                for name, value in metric_values(result, specs, section).items():
                    table[w].setdefault(name, []).append(value)
            log(f"bench: {w} seed {seed} done ({int(result['failed'])} failed)")
    return table, failed


def print_repeated(bench: dict, table: dict, workloads: list[str]) -> None:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for w in workloads:
        print(f"== {w}: median [q1, q3] (IQR / median) over {len(table[w]['setup_s'])} runs")
        for name, values in table[w].items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"    {name:<36} {q2:>14.6g} [{q1:.6g}, {q3:.6g}] ({spread:.2%}) {units[name]}")


def stability(bench: dict, runner: Path, workloads: list[str], seeds: list[int],
              seconds: float) -> int:
    first, failed_first = repeated(bench, runner, workloads, seeds, seconds)
    second, failed_second = repeated(bench, runner, workloads, seeds, seconds)
    print_repeated(bench, first, workloads)
    ok = failed_first == 0 and failed_second == 0
    print("== stability: second set against the first")
    for w in workloads:
        for m in bench["end_to_end"]:
            a = statistics.median(first[w][m["name"]])
            b = statistics.median(second[w][m["name"]])
            delta = (b - a) / a if a else 0.0
            within = abs(delta) <= m["bound"]
            ok &= within
            print(f"    {w:<14} {m['name']:<20} {a:>12.6g} -> {b:<12.6g} {delta:+.2%} "
                  f"(bound {m['bound']:.0%}) {'ok' if within else 'OUTSIDE'}")
        for name, values in first[w].items():
            if name.startswith(EXACT) and values != second[w][name]:
                ok = False
                print(f"    {w:<14} {name}: count differs {values} vs {second[w][name]}")
    print(f"== stability {'PASSED' if ok else 'FAILED'}")
    return 0 if ok else 1


def suite(bench: dict, runner: Path, workloads: list[str], seed: int, seconds: float) -> int:
    env = environment()
    print(f"== environment: nproc {env['nproc']}, load {env['load_avg'][0]:.2f}"
          f"{' (NOISY: 1-minute load above 1)' if env['noisy'] else ''}, "
          f"build {env['build_type']}, git {env['git_sha'] or 'unknown'}")
    results = []
    for w in workloads:
        result = run_workload(runner, w, seed, seconds, layers=True)
        print_run(bench, result)
        results.append(result)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"results-seed{seed}.json"
    path.write_text(json.dumps({"environment": env, "seed": seed, "seconds": seconds,
                                "results": results}, indent=1), encoding="utf-8")
    failed = sum(int(r["failed"]) for r in results)
    invalid = [r["workload"] for r in results if not r.get("valid", True)]
    print(f"== results in {path.relative_to(ROOT)}; traces in {OUT.relative_to(ROOT)}/trace_*.json")
    if invalid:
        print(f"== invalid runs: {', '.join(invalid)}")
    print(f"== {'FAILED' if failed else 'OK'}: {failed} failed ops")
    return 1 if failed else 0


def main() -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(bench["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--stability", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    if args.smoke:
        args.seconds = 2.0
    workloads = [args.workload] if args.workload else names

    try:
        runner = build()
        if args.trace is not None:
            return declared_run(bench, runner, args)
        if args.stability:
            n = args.repeat or 5
            return stability(bench, runner, workloads,
                             [args.seed + 1000 * i for i in range(n)], args.seconds)
        if args.repeat > 1:
            table, failed = repeated(bench, runner, workloads,
                                     [args.seed + 1000 * i for i in range(args.repeat)],
                                     args.seconds)
            print_repeated(bench, table, workloads)
            return 1 if failed else 0
        return suite(bench, runner, workloads, args.seed, args.seconds)
    except SuiteError as e:
        log(f"bench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
