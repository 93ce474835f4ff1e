"""Record the expected value of every item into reference.json.

Run from the repository root as ``python3 bench/record_reference.py``.  It
runs each item once, in one process, at the current commit.  The E8(16)
items are stored as null: no run at the commit that recorded them finished
one, so a run accepts any answer they give with exit code 0.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src")]

import workloads  # noqa: E402


def record(items) -> dict:
    values = {}
    for item in items:
        if item.label.startswith(workloads.HANG_LABEL_PREFIX):
            values[item.label] = None
            continue
        t0 = time.perf_counter()
        values[item.label] = item.summarize(item.call())
        print(f"{time.perf_counter() - t0:8.3f}s  {item.label}", file=sys.stderr)
    return values


def main() -> int:
    reference = {
        "sweep": record(workloads.sweep_items()),
        "oneshot": record(workloads.oneshot_items(0)),
        "verify": record(workloads.verify_items()),
    }
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
