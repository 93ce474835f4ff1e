"""Operation counts of one benchmark workload, which do not depend on the
machine.

Builds the items of ``bench/workloads.py`` (imported, never changed), calls
each once in this process, in run order, and prints one JSON line:

* ``descent_memo``: the reads of descendants' descent tables and the values
  computed into them (``bounds.DescentMemo``);
* ``torus_orbit_misses``: the characters whose orbit length was computed,
  the sum of ``len(TorusOrbits.sizes)`` over every orbit cache;
* ``reflections``: the steps of the alcove walks, for those characters
  (``orbit_size``) and for the Ω probes of the alcove plans (``omega_probes``);
* ``alcove_plans``, ``levi_piece_builds`` and ``group_plans``: the alcove
  plans, Levi pieces and group plans built.

Standard library only, and deterministic: a seed changes the order of the
items, not the counts.  From the repository root::

    python tools/op_counts.py --workload oneshot
    python tools/op_counts.py --workload sweep --seed 3
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import mul
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from pimbounds import bounds, charlattice, weights  # noqa: E402


def _count_walks(reflections: dict) -> None:
    """Count the steps of every alcove walk into ``reflections``.  A plan
    still without Ω is being built, so its walks are the Ω probes."""
    walk = charlattice._alcove_kac

    def counted(plan, x, m):
        y, steps = list(x), 0
        while True:
            low = min(y)
            if low < 0:
                for j, c in plan.columns[y.index(low)]:
                    y[j] -= low * c
            else:
                h = sum(map(mul, plan.theta_form, y)) - m
                if h <= 0:
                    break
                for j, t in plan.theta_column:
                    y[j] -= h * t
            steps += 1
        reflections["orbit_size" if plan.omega else "omega_probes"] += steps
        return walk(plan, x, m)

    charlattice._alcove_kac = counted


def _track_orbit_caches() -> list:
    """Every :class:`charlattice.TorusOrbits` made from now on."""
    made = []
    init = charlattice.TorusOrbits.__init__

    def tracked(self, *args):
        init(self, *args)
        made.append(self)

    charlattice.TorusOrbits.__init__ = tracked
    return made


def op_counts(workload: str, seed: int) -> dict:
    items = workloads.build(workload, seed)
    reflections = {"orbit_size": 0, "omega_probes": 0}
    _count_walks(reflections)
    orbit_caches = _track_orbit_caches()
    memo = bounds._reset_descent_memo()
    for item in items:
        item.call()
    return {
        "workload": workload,
        "seed": seed,
        "items": len(items),
        "descent_memo": {"lookups": memo.lookups, "misses": memo.misses},
        "torus_orbit_misses": sum(len(o.sizes) for o in orbit_caches),
        "reflections": reflections,
        "alcove_plans": charlattice._alcove_plan.cache_info().currsize,
        "levi_piece_builds": weights._levi_piece.cache_info().currsize,
        "group_plans": bounds._group_plan.cache_info().currsize,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(op_counts(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
