"""Outside tracing of the seven layers, installed only in traced runs.

Each traced function is replaced by a wrapper in every ``pimbounds`` module
namespace that holds it, so a call through ``bounds.descend_weight`` and one
through ``weights.descend_weight`` are both seen.  Nothing under ``src/``
changes.  A wrapper records one span (name, parent span, start, end) per
call, in flat arrays kept in memory.  A span's self time is its duration
minus the durations of its direct children, which keeps the recursive
``bounds.descent_bound`` correct.  Counters are kept at the same boundaries.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

from pimbounds import weights

_MODULE_PREFIX = "pimbounds"


def _orbit_points(tracer, args, result):
    tracer.count("charlattice.orbit.points", len(result))


def _scan_points(tracer, args, result):
    tracer.count("charlattice.orbit_scan.points", result.total_points)


def _closure_points(tracer, args, result):
    tracer.count("rootdata.weyl_order_by_bfs.points", result)


def _sieve_weights(tracer, args, result):
    tracer.count("weights.minimal_pim_candidates.weights",
                 weights.restricted_weight_count(args[0]))


def _descent_repeat(tracer, args, result):
    spec, weight = args
    key = (spec.describe(), weight.coeffs)
    if key in tracer.descent_keys:
        tracer.count("bounds.descent_bound.repeats", 1)
    else:
        tracer.descent_keys.add(key)


# (span name, module, functions, counter run on each normal return)
SPANS = (
    ("charlattice.orbit", "charlattice", ("orbit",), _orbit_points),
    ("charlattice.orbit_scan", "charlattice", ("orbit_scan",), _scan_points),
    ("charlattice.is_irreducible_mod_ell", "charlattice",
     ("is_irreducible_mod_ell",), None),
    ("rootdata.weyl_order_by_bfs", "rootdata", ("weyl_order_by_bfs",),
     _closure_points),
    ("rootdata.build_root_datum", "rootdata", ("build_root_datum",), None),
    ("weights.descend_weight", "weights", ("descend_weight",), None),
    ("weights.independent_violating_set", "weights",
     ("independent_violating_set",), None),
    ("weights.minimal_pim_candidates", "weights", ("minimal_pim_candidates",),
     _sieve_weights),
    ("bounds.best_bound", "bounds", ("best_bound",), None),
    ("bounds.descent_bound", "bounds", ("descent_bound",), _descent_repeat),
    ("degrees.verify", "degrees",
     ("verify_induced_identity", "verify_regular_degree_identities",
      "cyclotomic_residue_report"), None),
    ("caseanalysis.verify", "caseanalysis",
     ("u4_verify", "d4_verify", "ree_verify"), None),
    ("caseanalysis.enumerate_decompositions", "caseanalysis",
     ("enumerate_decompositions",), None),
    ("cli.main", "cli", ("main",), None),
)
COUNTERS = ("charlattice.orbit.points", "charlattice.orbit_scan.points",
            "rootdata.weyl_order_by_bfs.points",
            "weights.minimal_pim_candidates.weights",
            "bounds.descent_bound.repeats")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.descent_keys: set = set()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def wrap(self, name: str, fn, on_return):
        index = len(self.names)
        self.names.append(name)
        open_spans = self._open
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(index)
            span_parent.append(open_spans[-1])
            span_end.append(0.0)
            open_spans.append(span)
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = perf_counter()
                open_spans.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in SPANS wherever a pimbounds module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == _MODULE_PREFIX or key.startswith(_MODULE_PREFIX + ".")]
        for name, module, functions, on_return in SPANS:
            home = sys.modules[f"{_MODULE_PREFIX}.{module}"]
            for function in functions:
                original = getattr(home, function)
                wrapper = self.wrap(name, original, on_return)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per span name, plus the counters."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        self_time = list(duration)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_time[parent] -= duration[i]
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time[i]
        out.update(self.counters)
        calls = out["bounds.descent_bound.calls"]
        out["bounds.descent_bound.repeat_ratio"] = (
            self.counters["bounds.descent_bound.repeats"] / calls if calls else 0.0)
        return out
