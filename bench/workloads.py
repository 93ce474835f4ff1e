"""The benchmark's workloads: which items each one runs and how each is checked.

An item is one certificate, one CLI call or one check.  Its ``call`` is the
timed part.  Its ``summarize`` runs after the timed phase and maps the result
to the mathematical value that is compared with ``reference.json``, so that
extra certificate text never counts as a difference.

Every call looks its function up on the module at call time, so the wrappers
that ``tracing`` installs in a traced run see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pimbounds import (
    bounds,
    caseanalysis,
    charlattice,
    cli,
    degrees,
    rootdata,
    weights,
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

NAMES = ("sweep", "oneshot", "verify")


@dataclass(frozen=True)
class Item:
    label: str
    call: Callable[[], object]
    summarize: Callable[[object], object]


def build(name: str, seed: int) -> list[Item]:
    """The items of one workload, in run order.  Only ``oneshot`` uses the seed."""
    if name == "sweep":
        return sweep_items()
    if name == "oneshot":
        return oneshot_items(seed)
    if name == "verify":
        return verify_items()
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[name]


def _normalize(value):
    """JSON round trip, so computed values compare equal to recorded ones."""
    return json.loads(json.dumps(value, sort_keys=True))


# ---------------------------------------------------------------------------
# sweep: best_bound on every restricted weight of D4(8) and A4(8)
# ---------------------------------------------------------------------------

SWEEP_GROUPS = (("D", 4, 8), ("A", 4, 8))


def sweep_items() -> list[Item]:
    items = []
    for family, rank, q in SWEEP_GROUPS:
        spec = rootdata.group(family, rank, q=q)
        for weight in weights.enumerate_restricted_weights(spec):
            items.append(Item(
                f"{spec.describe()} {','.join(map(str, weight.coeffs))}",
                lambda spec=spec, weight=weight: bounds.best_bound(spec, weight),
                lambda cert: cert.bound))
    return items


# ---------------------------------------------------------------------------
# oneshot: independent CLI questions
# ---------------------------------------------------------------------------

# CLI group arguments of the questions: nine split, four twisted, and the
# Suzuki and Ree groups.
ONESHOT_GROUPS = (
    ("E8", "8", "--q", "5"), ("E7", "7", "--q", "8"), ("E6", "6", "--q", "8"),
    ("A", "7", "--q", "8"), ("D", "6", "--q", "8"), ("B", "5", "--q", "9"),
    ("C", "5", "--q", "9"), ("F4", "4", "--q", "9"), ("G2", "2", "--q", "49"),
    ("A", "4", "--q", "16", "--twist", "2"),
    ("D", "4", "--q", "9", "--twist", "3"),
    ("E6", "6", "--q", "4", "--twist", "2"),
    ("D", "5", "--q", "4", "--twist", "2"),
    ("B", "2", "--suzuki-ree-e", "2"), ("G2", "2", "--suzuki-ree-e", "1"),
    ("F4", "4", "--suzuki-ree-e", "1"),
)
ONESHOT_CANDIDATES = (
    ("E8", "8", "--q", "3"), ("E7", "7", "--q", "4"),
    ("E6", "6", "--q", "4", "--twist", "2"),
)
# Generic weights of E8 over F_16.  Their torus orbits approach |W(E8)|, and
# no run of the recorded version finishes them; each ends at the item
# deadline.
ONESHOT_HANGS = ("1,2,3,4,5,6,7,8", "3,1,4,1,5,9,2,6")
HANG_GROUP = ("E8", "8", "--q", "16")
HANG_LABEL_PREFIX = " ".join(("bound", *HANG_GROUP)) + " "

# The questions are drawn once with this seed, and their values are recorded
# in reference.json.  A run's seed sets the order in which they are asked.
# A new set per seed would change the work of a pass by seconds, because one
# E7(8) question alone takes between 0.2 and 2 s.
POOL_SEED = 20120207
POOL_PER_GROUP = 7


def _spec_from_args(group_args) -> rootdata.GroupSpec:
    """The group the CLI builds from these arguments."""
    args = cli.build_parser().parse_args(["info", *group_args])
    return rootdata.group(args.family, args.rank, q=args.q,
                          twist_order=args.twist,
                          suzuki_ree_e=args.suzuki_ree_e)


def oneshot_pool() -> dict[tuple[str, ...], list[str]]:
    """For each group, POOL_PER_GROUP distinct restricted weights (CLI text)."""
    rng = random.Random(POOL_SEED)
    pool = {}
    for group_args in ONESHOT_GROUPS:
        spec = _spec_from_args(group_args)
        ranges = weights.coefficient_ranges(spec)
        chosen: list[str] = []
        while len(chosen) < POOL_PER_GROUP:
            text = ",".join(str(rng.randrange(r)) for r in ranges)
            if text not in chosen:
                chosen.append(text)
        pool[group_args] = chosen
    return pool


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _bound_value(outcome):
    code, text = outcome
    return [code, json.loads(text)["bound"] if code == 0 else None]


def _candidates_value(outcome):
    code, text = outcome
    return [code, json.loads(text)["candidates"] if code == 0 else None]


def _cli_item(argv: list[str], summarize) -> Item:
    return Item(" ".join(argv[:-1]), lambda: _cli(argv), summarize)


def oneshot_items(seed: int) -> list[Item]:
    """Every pool question, then the fixed E8(16) items.

    The questions come in rounds that each ask one question of every group,
    in a fixed group order; the seed decides which question of a group comes
    in which round, and where the candidates calls go.  Rounds keep the
    share of cold-cache questions the same from seed to seed.

    The hang items run last: a call cut at its deadline can leave the
    program's caches part-written, and nothing checked runs after them.
    """
    rng = random.Random(seed)
    columns = []
    for group_args, texts in oneshot_pool().items():
        argvs = [["bound", *group_args, "--weight", text, "--json"]
                 for text in texts]
        rng.shuffle(argvs)
        columns.append([_cli_item(argv, _bound_value) for argv in argvs])
    items = [item for row in zip(*columns) for item in row]
    for group_args in ONESHOT_CANDIDATES:
        items.insert(rng.randrange(len(items) + 1),
                     _cli_item(["candidates", *group_args, "--json"],
                               _candidates_value))
    for text in ONESHOT_HANGS:
        argv = ["bound", *HANG_GROUP, "--weight", text, "--json"]
        items.append(_cli_item(argv, _bound_value))
    return items


# ---------------------------------------------------------------------------
# verify: the checks of `pimbounds verify all` on reduced data
# ---------------------------------------------------------------------------

# The suite's data are restated here rather than taken from `cli`, so that a
# change to the program cannot change what the benchmark measures.
_SMALL_DATA = (("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
               ("D", range(3, 9)), ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
               ("F4", (4,)), ("G2", (2,)))
CLOSURE_LIMIT = 10 ** 5
IRREDUCIBILITY_MODULI = (2, 3, 5)
IRREDUCIBILITY_MAX_RANK = 6


def _small_data():
    for family, ranks in _SMALL_DATA:
        for rank in ranks:
            yield rootdata.build_root_datum(family, rank)


def _datum_name(d) -> str:
    if d.family in ("E6", "E7", "E8", "F4", "G2"):
        return d.family
    return f"{d.family}{d.rank}"


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _coxeter_relations_hold(datum) -> bool:
    """s_i^2 = 1 and (s_i s_j)^m_ij = 1, as `verify tables` checks them."""
    mats = rootdata.reflection_matrices(datum)
    n = datum.rank
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for i in range(n):
        if _mat_mul(mats[i], mats[i]) != identity:
            return False
        for j in range(i + 1, n):
            prod = _mat_mul(mats[i], mats[j])
            acc = identity
            for _ in range(datum.coxeter_order(i + 1, j + 1)):
                acc = _mat_mul(acc, prod)
            if acc != identity:
                return False
    return True


def _scan_value(report):
    return _normalize({"fixed_points": report.fixed_points,
                       "min_nontrivial_orbit": report.min_nontrivial_orbit,
                       "histogram": report.orbit_size_histogram})


def _verdict_value(verdict):
    return [verdict.outcome, verdict.candidates_considered]


def _scan_specs():
    """The scans of `verify orbits`, each once, then E6(8)."""
    specs = (
        [rootdata.group("C", rank, q=q) for rank in (2, 3, 4) for q in (4, 8)]
        + [rootdata.group("D", 4, q=q) for q in (4, 8)]
        + [rootdata.special_linear(n, q) for n in range(3, 7) for q in (3, 4, 5)]
        + [rootdata.group("G2", 2, q=q) for q in (4, 5, 7)]
        + [rootdata.group("F4", 4, q=q) for q in (3, 5)]
        + [rootdata.group("E6", 6, q=4), rootdata.group("E7", 7, q=3),
           rootdata.group("E8", 8, q=3), rootdata.group("E6", 6, q=8)]
    )
    return specs


def verify_items() -> list[Item]:
    items = []
    data = list(_small_data())
    for d in data:
        if d.weyl_order > CLOSURE_LIMIT:
            continue
        name = _datum_name(d)
        items.append(Item(f"coxeter {name}",
                          lambda d=d: _coxeter_relations_hold(d), bool))
        items.append(Item(f"closure {name}",
                          lambda d=d: rootdata.weyl_order_by_bfs(d), int))
    for tag in ("U4", "D4"):
        items.append(Item(f"degrees induced {tag}",
                          lambda tag=tag: degrees.verify_induced_identity(tag),
                          _normalize))
    items.append(Item("degrees regular U4",
                      lambda: degrees.verify_regular_degree_identities(),
                      _normalize))
    items.append(Item("degrees cyclotomic D4",
                      lambda: degrees.cyclotomic_residue_report(), _normalize))
    for d in data:
        name = _datum_name(d)
        for ell in (2, 3, 5, 7):
            points = (ell ** d.rank - 1) // (ell - 1)
            exhaustive_cell = (d.rank <= IRREDUCIBILITY_MAX_RANK
                               and ell in IRREDUCIBILITY_MODULI)
            if exhaustive_cell or points > charlattice._EXHAUSTIVE_POINT_LIMIT:
                items.append(Item(
                    f"irreducible {name} mod {ell}",
                    lambda d=d, ell=ell: charlattice.is_irreducible_mod_ell(d, ell),
                    bool))
    for spec in _scan_specs():
        items.append(Item(f"orbit-scan {spec.describe()}",
                          lambda spec=spec: charlattice.orbit_scan(spec),
                          _scan_value))
    for p in (3, 5, 7, 11):
        items.append(Item(f"u4 p={p}", lambda p=p: caseanalysis.u4_verify(p),
                          _verdict_value))
    for p in (3, 5, 7, 11, 13):
        items.append(Item(f"d4 p={p}", lambda p=p: caseanalysis.d4_verify(p),
                          _verdict_value))
    for f in (1, 2):
        items.append(Item(f"ree f={f}", lambda f=f: caseanalysis.ree_verify(f),
                          _verdict_value))
    return items
