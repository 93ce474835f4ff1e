"""Determinism tests for the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/test_bench.py``.
The traced-count test runs two traced passes of every workload, which takes
a few minutes.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".points", ".weights", ".repeats", ".repeat_ratio")


def _labels(name, seed):
    return [item.label for item in workloads.build(name, seed)]


def test_seed_changes_oneshot_inputs_only():
    assert _labels("oneshot", 1) == _labels("oneshot", 1)
    assert _labels("oneshot", 1) != _labels("oneshot", 2)
    for name in ("sweep", "verify"):
        assert _labels(name, 1) == _labels(name, 2)


def test_every_item_has_a_recorded_value():
    for name in workloads.NAMES:
        assert sorted(_labels(name, 0)) == sorted(workloads.load_reference(name))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_exactly(name):
    counts = []
    for _ in range(2):
        result = run.run_pass(name, 7, trace=True, timeout=run.RUN_BUDGET_S)
        assert result["wrong"] == 0, result["examples"]
        counts.append({key: value for key, value in result["layers"].items()
                       if key.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
