"""One benchmark pass in a fresh, single-threaded process.

Protocol on stdin/stdout with ``run.py``: after imports and input generation
the worker prints ``ready``; it then reads one line.  ``go`` runs every item
of the workload once and prints one JSON line with the timings and the
check results; anything else exits at once (a set-up probe).

Each item runs under a deadline armed with ``setitimer``, so no extra thread
or process is started.  An item cut at its deadline counts as failed, and
its time up to the deadline counts in the pass's wall time.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

ITEM_DEADLINE_S = 10.0

# On a shared machine the same code runs up to 1.5 times slower for minutes
# at a time.  A fixed kernel, timed between items at least every
# KERNEL_INTERVAL_S, measures that speed.  Each item's time is also reported
# scaled to the speed at which the kernel takes KERNEL_REFERENCE_S, using the
# mean of the kernel times just before and just after the item.
KERNEL_INTERVAL_S = 0.05
KERNEL_REFERENCE_S = 0.002


class ItemDeadline(BaseException):
    """Raised by SIGALRM.  A BaseException, so program code that catches
    Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise ItemDeadline


def _kernel() -> float:
    """Seconds for a fixed orbit-like search: tuples, sums mod 7, a set."""
    t0 = time.perf_counter()
    start = (1, 2, 3, 4)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for a, b, c, d in frontier:
            for w in ((b, a, c, d), ((a + b) % 7, b, c, (d + c) % 7),
                      (a, c, d, b)):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return time.perf_counter() - t0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_items(items) -> dict:
    """Time each item; the kernel runs between items, outside the timings.

    The peak RSS is the one reached by the time the last item that finished
    did so.  Memory a call grows until its deadline depends only on how fast
    it ran, so it is left out.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    times, outcomes, kernel_before = [], [], []
    kernel = [_kernel()]
    kernel_s = 0.0
    maxrss_kb = _maxrss_kb()
    start = last_kernel = time.perf_counter()
    for item in items:
        kernel_before.append(len(kernel) - 1)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ITEM_DEADLINE_S)
        try:
            outcome = ("ok", item.call())
        except ItemDeadline:
            outcome = ("timeout", None)
        except Exception as exc:  # an item failing must not end the pass
            outcome = ("error", f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if outcome[0] != "timeout":
            maxrss_kb = _maxrss_kb()
        if time.perf_counter() - last_kernel >= KERNEL_INTERVAL_S:
            kernel.append(_kernel())
            kernel_s += kernel[-1]
            last_kernel = time.perf_counter()
    wall = time.perf_counter() - start - kernel_s
    kernel.append(_kernel())
    # A deadline is wall-clock time, so a timed-out item is not scaled.
    scaled = [t if outcome[0] == "timeout"
              else t * 2 * KERNEL_REFERENCE_S / (kernel[k] + kernel[k + 1])
              for t, k, outcome in zip(times, kernel_before, outcomes)]
    return {"raw_wall_s": wall, "raw_item_s": times,
            "wall_s": wall * sum(scaled) / sum(times), "item_s": scaled,
            "kernel_s": statistics.median(kernel), "outcomes": outcomes,
            "maxrss_kb": maxrss_kb}


def check(items, outcomes, reference) -> dict:
    """Compare each finished item with its recorded value.

    An item fails when it times out, raises, or gives another value (exit
    code included) than the reference; only the last two are wrong answers.
    A reference of None accepts any answer given with exit code 0.
    """
    timeouts, examples = 0, []
    for item, (status, result) in zip(items, outcomes):
        if status == "timeout":
            timeouts += 1
        elif status == "error":
            examples.append({"item": item.label, "error": result})
        else:
            value = item.summarize(result)
            expected = reference[item.label]
            if value != expected and (expected is not None or value[0] != 0):
                examples.append({"item": item.label, "got": value,
                                 "expected": expected})
    return {"timeouts": timeouts, "wrong": len(examples),
            "failed": timeouts + len(examples), "examples": examples[:5]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    items = workloads.build(args.workload, args.seed)
    reference = workloads.load_reference(args.workload)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    result = run_items(items)
    result.update(check(items, result.pop("outcomes"), reference))
    result["items"] = len(items)
    result["layers"] = tracer.layer_metrics() if tracer else None
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
