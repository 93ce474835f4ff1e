"""The benchmark's tracer looks up its functions by name in ``pimbounds``.

``bench/tracing.py`` wraps each function that ``SPANS`` names, through
``getattr`` on the module, in every ``--trace 1`` run.  A function renamed or
deleted here would break those runs, not any test of the library itself.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402


def test_every_traced_function_exists():
    missing = []
    for _, module, functions, _ in tracing.SPANS:
        home = importlib.import_module(f"pimbounds.{module}")
        missing += [f"pimbounds.{module}.{name}" for name in functions
                    if not callable(getattr(home, name, None))]
    assert missing == []
