"""pimbounds benchmark: one workload, measured end to end or traced by layer.

Usage, from the repository root::

    python3 bench/run.py --workload {sweep,oneshot,verify} --seed N \\
        --seconds S --trace {0,1}

A run is a sequence of passes.  Each pass starts one fresh single-threaded
worker (``worker.py``), so caches start cold as they do for a user, and runs
every item of the workload once.  Passes repeat while the next one is
expected to end within ``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics.  Set-up time is also taken from
extra workers that stop once ready, and is reported as a median.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of the traced ones, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the item counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(workload: str, seed: int, trace: bool):
    """Start a worker and wait until it is ready; return (process, set-up s)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {workload!r} did not start "
                         f"(exit code {proc.returncode})")
    return proc, setup


def _finish(proc, command: str, timeout: float) -> str:
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    proc, setup = _spawn(workload, seed, trace)
    out = _finish(proc, "go", timeout)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup
    return result


def probe_setup(workload: str, seed: int) -> float:
    proc, setup = _spawn(workload, seed, False)
    _finish(proc, "stop", 30)
    return setup


def _metric(value, unit):
    return {"value": value, "unit": unit}


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics, so
    the estimate moves smoothly when item times sit on both sides of a gap
    near the quantile, where a single order statistic would jump across it.
    The weight of the i-th order statistic is the Beta mass on
    [(i-1)/n, i/n], integrated with the midpoint rule.
    """
    steps = 8
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = []
    for k in range(n * steps):
        x = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(passes, setups) -> dict:
    item_ms = [t * 1000 for p in passes for t in p["item_s"]]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "item_p50_ms": _metric(harrell_davis(item_ms, 0.5), "ms"),
        "item_p90_ms": _metric(harrell_davis(item_ms, 0.9), "ms"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(
            statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "1"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "points": "count",
               "weights": "count", "repeats": "count", "repeat_ratio": "1"}


def per_layer(untraced, traced) -> dict:
    names = traced[0]["layers"]
    metrics = {
        name: _metric(statistics.median(p["layers"][name] for p in traced),
                      LAYER_UNITS[name.rsplit(".", 1)[1]])
        for name in names
    }
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.overhead"] = _metric(overhead, "1")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pimbounds" / "__init__.py").is_file():
        print(f"error: no pimbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setups = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    measure_start = time.perf_counter()
    while True:
        # Trace mode alternates, starting untraced; otherwise never traced.
        trace = bool(args.trace) and len(untraced) > len(traced)
        remaining = RUN_BUDGET_S - (time.perf_counter() - started)
        t0 = time.perf_counter()
        result = run_pass(args.workload, args.seed, trace, remaining)
        duration = time.perf_counter() - t0
        (traced if trace else untraced).append(result)
        setups.append(result["setup_s"])
        elapsed = time.perf_counter() - measure_start
        if args.trace and not traced:
            continue
        if elapsed + duration > args.seconds:
            break

    passes = untraced + traced
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    info = {
        "workload": args.workload, "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "passes": len(passes), "traced_passes": len(traced),
        "items_per_pass": passes[0]["items"],
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "kernel_ms": statistics.median(p["kernel_s"] for p in passes) * 1000,
        "timeouts": sum(p["timeouts"] for p in passes),
        "wrong": wrong,
        "examples": [e for p in passes for e in p["examples"]][:5],
    }
    print(json.dumps(info), flush=True)
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(untraced, setups))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
