"""bornsolve benchmark: closed-loop workloads, end-to-end metrics, traced layer run.

Run from the repository root:

    python3 perfbench/run.py --workload deep_dag --seed 1 --seconds 20 --trace 0

Workloads: deep_dag, cli_spec, diamond_stream, resolvent_truncation (see
workloads.py for why each is here).  Every workload is a closed loop with
one caller and no worker threads; at most one child process runs at a
time.  Inputs come from --seed alone and every output is checked by
checks.py, which shares no code with bornsolve.

--trace 0 runs the named workload untraced for --seconds and reports the
end-to-end metrics.  --trace 1 runs all four workloads, each for a
quarter of --seconds, alternating untraced and traced requests, and
reports every per-layer metric as `<workload>.<layer metric>` together
with `<workload>.trace.overhead_s`; spans go to perfbench/out/.

End-to-end times are scaled to the host's reference speed (speed.py):
each stretch of requests, each import and each warm-up is bracketed by a
fixed calibration loop.  Raw wall times go to the result file beside them.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The code under test is the
checkout's src/bornsolve; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import spans
import speed
from spans import untraced

BLAS_THREADS = 1  # 2 threads made a 300 x 300 LU 50x slower on a 2-core machine
TAIL_BEYOND = 10
# Beyond p99 a run's tail is set by a handful of host and garbage-collector
# stalls that do not repeat from run to run (diamond_stream's p99.99 moved
# 0.6 -> 2.9 ms between seeds), so the tail percentile stops rising at p99.
TAIL_CAP = 0.99
BLOCK_S = 0.2  # requests timed between two calibration loops
WARM_KEY = 1 << 40  # request keys of warm-ups, disjoint from the timed requests 0, 1, ...
SETUP_PROBES = 3  # set-up repeated in fresh processes, besides the run's own
OUT_DIR = Path("perfbench") / "out"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "req/s",
    "peak_rss_mb": "MB",
}

# ROADMAP "Baseline" row, dim 1000, density 0.05 (single runs, +-2x noise).
ROADMAP_DIM1000 = {
    "operators.build_s": 0.11,
    "graph.certify_s": 0.035 + 0.006,
    "solver.solve_exact_s": 0.79,
    "solver.dense_oracle_s": 0.34,
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # spelled out: workloads.py imports bornsolve, whose import is timed later
    p.add_argument("--workload", required=True,
                   choices=["deep_dag", "cli_spec", "diamond_stream", "resolvent_truncation"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import plus warm-up in this fresh process and exit")
    return p.parse_args(argv)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_bornsolve() -> tuple[float, float]:
    """Import the checkout's bornsolve (cold); returns (wall, scaled) seconds."""
    src = Path("src").resolve()
    if not (src / "bornsolve" / "__init__.py").is_file():
        fail("src/bornsolve not found; run from the root of a bornsolve checkout")
    sys.path.insert(0, str(src))
    before = speed.calibrate()
    start = time.perf_counter()
    import bornsolve
    elapsed = time.perf_counter() - start
    if not Path(bornsolve.__file__).resolve().is_relative_to(src):
        fail(f"imported bornsolve from {bornsolve.__file__}, not from {src}")
    return elapsed, elapsed * speed.factor(before, speed.calibrate())


def calibrated(run_one, more) -> tuple[list[float], list[float]]:
    """Call run_one(i), which returns wall seconds, while more(i) holds.

    Calls are grouped in blocks of about BLOCK_S, each bracketed by the
    calibration loop.  Returns the (wall, scaled) seconds of every call.
    """
    wall, scaled = array("d"), array("d")  # no float objects: peak RSS stays the program's
    before = speed.calibrate()
    while more(len(wall)):
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while more(len(wall) + len(block)) and (not block or time.perf_counter() < block_end):
            block.append(run_one(len(wall) + len(block)))
        after = speed.calibrate()
        f = speed.factor(before, after)
        wall.extend(block)
        scaled.extend(t * f for t in block)
        before = after
    return wall, scaled


def warm_up(w, call, failures: dict) -> tuple[list[float], list[float]]:
    """Run the workload's warm-up requests; returns their (wall, scaled) seconds."""

    def one(i: int) -> float:
        k = WARM_KEY + i
        start = time.perf_counter()
        try:
            args, out = w.warm(call, k)
        except Exception as exc:  # a failed request is counted, not fatal
            failures[f"warm-up {i}"] = f"{type(exc).__name__}: {exc}"
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if reason := w.check(k, args, out):
            failures[f"warm-up {i}"] = reason
        return elapsed

    return calibrated(one, lambda i: i < w.warmup)


def timed(w, call, k: int, failures: dict, tag: str = ""):
    """Prepare, time and check request k; returns (seconds, args, out or None)."""
    args = w.prepare(k)
    start = time.perf_counter()
    try:
        out = w.request(call, args)
    except Exception as exc:  # a failed request is counted, not fatal
        failures[f"{tag}{k}"] = f"{type(exc).__name__}: {exc}"
        return time.perf_counter() - start, args, None
    elapsed = time.perf_counter() - start
    if reason := w.check(k, args, out):
        failures[f"{tag}{k}"] = reason
    return elapsed, args, out


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Never above TAIL_CAP and never below the median.  Returns (value, percentile).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(min(n - 1 - TAIL_BEYOND, int(TAIL_CAP * n) - 1), n // 2)
    return ordered[index], 100.0 * (index + 1) / n


def run_untraced(w, seconds: float, failures: dict) -> tuple[list[float], list[float]]:
    """Requests for `seconds` (at least one); returns their (wall, scaled) latencies."""
    deadline = time.perf_counter() + seconds
    return calibrated(lambda k: timed(w, untraced, k, failures)[0],
                      lambda k: k == 0 or time.perf_counter() < deadline)


def run_traced(w, seconds: float, tracer, failures: dict) -> dict:
    """Alternate untraced and traced runs of the same requests; traced ones add the extras.

    Returns the layer metrics plus trace.overhead_s.
    """
    plain, counts = [], {}
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        plain.append(timed(w, untraced, k, failures)[0])
        tracer.request = k
        index = tracer.open("request")
        _, args, out = timed(w, tracer, k, failures, "traced ")
        tracer.close(index)
        if out is not None:
            index = tracer.open("extras")
            try:
                counts[k] = w.extras(tracer, args, out)
            except Exception as exc:  # a failed request is counted, not fatal
                failures.setdefault(f"traced {k}", f"extras: {type(exc).__name__}: {exc}")
            finally:
                tracer.close(index)
        k += 1
    metrics = w.layer_metrics(tracer, counts)
    if set(metrics) != set(w.layers):
        raise RuntimeError(f"{w.name}: layer metrics {sorted(metrics)} != {sorted(w.layers)}")
    metrics["trace.overhead_s"] = (tracer.median("request", self_time=False)
                                   - statistics.median(plain))
    return metrics


def environment(seed: int) -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    commit = None
    if Path(".git").exists():  # a plain source tree must not report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted(Path("src/bornsolve").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "cpu": cpu,
        "caches": caches,
        "load_model": "closed loop, one caller, no worker threads, <= 1 child at a time",
    }


def setup_probe(args) -> None:
    """Fresh-process set-up: cold import plus warm-up requests, printed as JSON."""
    imported = import_bornsolve()
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    failures: dict = {}
    warm = warm_up(w, untraced, failures)
    print(json.dumps({"wall": imported[0] + sum(warm[0]), "scaled": imported[1] + sum(warm[1]),
                      "failures": list(failures.values())}))


def probe_setups(args) -> tuple[list[float], list[float], list[str]]:
    """Set-up repeated in SETUP_PROBES fresh processes, one at a time."""
    wall, scaled, failures = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        wall.append(result["wall"])
        scaled.append(result["scaled"])
        failures += result["failures"]
    return wall, scaled, failures


def timing_metrics(latencies: list[float], setup: list[float]) -> tuple[dict, float]:
    """End-to-end timing metrics from per-request latencies; returns (metrics, tail pct)."""
    value, pct = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "throughput_rps": len(latencies) / sum(latencies),
    }, pct


def measure(args, workloads, imported: tuple[float, float]) -> dict:
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    failures: dict = {}
    warm_wall, warm_scaled = warm_up(w, untraced, failures)
    attempted = w.warmup
    if w.name == "cli_spec":
        # each warm-up is a first `analyze` child: the set-up a CLI user pays
        setup_wall, setup_scaled = warm_wall, warm_scaled
    else:
        setup_wall, setup_scaled, probe_failures = probe_setups(args)
        setup_wall.append(imported[0] + sum(warm_wall))
        setup_scaled.append(imported[1] + sum(warm_scaled))
        failures.update((f"set-up probe {i}", r) for i, r in enumerate(probe_failures))
        attempted += SETUP_PROBES * w.warmup
    wall, scaled = run_untraced(w, args.seconds, failures)
    # read before the statistics below allocate a float per request
    who = resource.RUSAGE_CHILDREN if w.name == "cli_spec" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    attempted += len(wall)
    metrics, pct = timing_metrics(scaled, setup_scaled)
    raw, _ = timing_metrics(wall, setup_wall)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb
    notes = {
        "setup_s": f"median of {len(setup_scaled)} set-ups",
        "latency_p50_s": f"{len(wall)} requests",
        "latency_tail_s": f"p{pct:.1f}, {len(wall) - round(pct * len(wall) / 100)}"
                          f" of {len(wall)} samples beyond",
        "peak_rss_mb": "children" if w.name == "cli_spec" else "this process",
    }
    print(f"workload {w.name}: realised {json.dumps(w.realised())}")
    print(f"  {'metric':<16} {'value':<14} {'unit':<6} {'wall clock':<14} note")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:<14.6g} {unit:<6} {raw[name]:<14.6g} "
              f"{notes.get(name, '')}")
    print(f"  {'failed_frac':<16} {len(failures) / attempted:<14.6g} {'ratio':<6} {'':<14} "
          f"{len(failures)} of {attempted} requests")
    report_failures(failures)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items()},
        "wall_clock": raw,
        "realised": w.realised(),
        "failures": {str(k): v for k, v in failures.items()},
        "latencies_s": {"wall": list(wall), "scaled": list(scaled)},
        "setup_s": {"wall": list(setup_wall), "scaled": list(setup_scaled)},
    }


def trace_all(args, workloads) -> dict:
    """Traced run over every workload, the named one first."""
    names = [args.workload] + [n for n in workloads.WORKLOADS if n != args.workload]
    metrics, attempted, failed, all_failures = {}, 0, 0, {}
    for name in names:
        w = workloads.WORKLOADS[name](args.seed, OUT_DIR)
        failures: dict = {}
        warm_up(w, untraced, failures)
        tracer = spans.Tracer()
        layer = run_traced(w, args.seconds / len(names), tracer, failures)
        tracer.dump(OUT_DIR / f"spans-{name}-seed{args.seed}.json")
        requests = 1 + max(s.request for s in tracer.spans)
        attempted += w.warmup + 2 * requests
        failed += len(failures)
        all_failures.update((f"{name} {k}", v) for k, v in failures.items())
        units = workloads.layer_units(w)
        print(f"workload {name}: realised {json.dumps(w.realised())}")
        print(f"  {requests} requests untraced and the same {requests} traced; "
              f"failed {len(failures)}")
        for metric, value in layer.items():
            metrics[f"{name}.{metric}"] = {"value": value, "unit": units[metric]}
            print(f"  {metric:<32} {value:<14.6g} {units[metric]}")
        if name == "deep_dag":
            print("  ROADMAP dim-1000 baseline cross-check (stated noise +-2x):")
            for metric, reference in ROADMAP_DIM1000.items():
                ratio = layer[metric] / reference
                verdict = "within" if 0.5 <= ratio <= 2.0 else "OUTSIDE"
                print(f"    {metric:<28} {layer[metric]:.4g} s vs {reference:.4g} s: "
                      f"x{ratio:.2f}, {verdict} +-2x")
    report_failures(all_failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": all_failures,
    }


def report_failures(failures: dict) -> None:
    for k, reason in list(failures.items())[:10]:
        print(f"  failure {k}: {reason}")


def main(argv=None) -> None:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # One core for the benchmark and its children, so the calibration loop
    # measures the core the requests run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return

    imported = import_bornsolve()
    import workloads

    env = environment(args.seed)
    print("environment:", json.dumps(env))
    if args.trace:
        result = trace_all(args, workloads)
    else:
        result = measure(args, workloads, imported)
    result_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"environment": env, **result}, handle)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
