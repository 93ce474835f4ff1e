"""Tests for ``tools/op_counts.py``, the machine-independent operation counts
of the benchmark's workloads.

The tool counts by wrapping library functions, and the library's caches are
process-global, so each workload runs in a new interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "op_counts.py"

# The counts of one fresh pass.  The descent counts are the reads of the
# descendants' tables and the values computed into them: a fresh sweep
# computes every weight of A3(8), A2(8) and A1(8), 584 values.
COUNTS = {
    "sweep": {
        "items": 8192,
        "descent_memo": {"lookups": 21623, "misses": 584},
        "torus_orbit_misses": 4802,
        "reflections": {"orbit_size": 11547, "omega_probes": 38},
        "alcove_plans": 2, "levi_piece_builds": 9, "group_plans": 5,
    },
    "oneshot": {
        "items": 117,
        "descent_memo": {"lookups": 3123, "misses": 1202},
        "torus_orbit_misses": 69,
        "reflections": {"orbit_size": 1503, "omega_probes": 212},
        "alcove_plans": 11, "levi_piece_builds": 165, "group_plans": 89,
    },
    "verify": {
        "items": 176,
        "descent_memo": {"lookups": 0, "misses": 0},
        "torus_orbit_misses": 0,
        "reflections": {"orbit_size": 0, "omega_probes": 161},
        "alcove_plans": 13, "levi_piece_builds": 0, "group_plans": 0,
    },
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_op_counts_are_pinned(workload):
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--seed", "1"],
        check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == {"workload": workload, "seed": 1,
                               **COUNTS[workload]}
