"""Command-line interface.

Subcommands::

    info          basic data for one group (rank, orders, Steinberg weight)
    orbit         Weyl orbit of one torus character
    orbit-scan    partition all torus characters into Weyl orbits
    bound         certified lower bound for one restricted weight
    candidates    weights surviving the parabolic projectivity sieve
    verify        run one of the verification suites
    export-tables dump the embedded datasets as JSON

Exit codes: 0 on success / verified, 1 when a verification finds a violation
(a JSON counterexample is printed), 2 for usage errors, unsupported input and
exceeded budgets, 3 for an unexpected internal error (a one-line message on
stderr).

Budgets: ``--q`` is factored by trial division up to min(√q, 10^6), once
per q, so a q of (10^6 + 1)^2 or more with no prime factor up to 10^6 is
refused with exit 2.  The orbit commands stop at ``charlattice.ORBIT_BUDGET``
points.  Integers are printed in full, however many digits they have; the
inputs are parsed under the interpreter's digit limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import (
    bounds,
    caseanalysis,
    charlattice,
    degrees,
    rootdata,
    weights,
)
from .rootdata import GroupSpec, UnsupportedGroupError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class VerificationFailure(Exception):
    """A verify suite found a counterexample."""

    def __init__(self, payload: dict):
        super().__init__(json.dumps(payload, sort_keys=True))
        self.payload = payload


def _add_group_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("family", choices=list(rootdata.FAMILIES),
                        help="root-system family")
    parser.add_argument("rank", type=int, help="rank of the root system")
    parser.add_argument("--q", type=int, default=None,
                        help="integer field size (a prime power)")
    parser.add_argument("--twist", type=int, default=1, choices=(1, 2, 3),
                        help="order of the diagram twist (default 1)")
    parser.add_argument("--suzuki-ree-e", type=int, default=None,
                        help="Suzuki-Ree parameter e with q^2 = p^(2e+1)")


def _build_spec(args) -> GroupSpec:
    return rootdata.group(
        args.family, args.rank, q=args.q, twist_order=args.twist,
        suzuki_ree_e=args.suzuki_ree_e)


def _parse_coordinates(text: str, rank: int) -> tuple[int, ...]:
    coeffs = tuple(int(p) for p in text.replace(",", " ").split())
    if len(coeffs) != rank:
        raise ValueError(f"expected {rank} coefficients, got {len(coeffs)}")
    return coeffs


def _parse_weight(text: str, rank: int) -> weights.Weight:
    return weights.Weight(_parse_coordinates(text, rank))


def _emit(payload: dict, as_json: bool, lines=None) -> None:
    # Exact integers print in full: the interpreter's limit on the digits of
    # an int turned into text is lifted for the output only, and input
    # parsing keeps it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if as_json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            for line in lines or _default_lines(payload):
                print(line)
    finally:
        sys.set_int_max_str_digits(limit)


def _default_lines(payload: dict):
    for key in sorted(payload):
        yield f"{key}: {payload[key]}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_info(args) -> int:
    spec = _build_spec(args)
    d = spec.datum
    payload = {
        "group": spec.describe(),
        "family": d.family,
        "rank": d.rank,
        "twist_order": d.twist_order,
        "cartan_matrix": [list(row) for row in d.cartan],
        "diagram_symmetry": list(d.diagram_perm),
        "positive_roots": d.positive_root_count,
        "weyl_order": d.weyl_order,
        "min_nonlinear_weyl_degree": d.min_nonlinear_degree,
        "steinberg_weight": list(weights.steinberg_weight(spec).coeffs),
        "steinberg_dimension": weights.steinberg_dimension(spec),
        "restricted_weight_count": weights.restricted_weight_count(spec),
    }
    try:
        p_part, pprime = rootdata.group_order_poly(spec)
        payload["order_p_part_coefficients"] = list(p_part.coeffs)
        payload["order_p_prime_part_coefficients"] = list(pprime.coeffs)
        # group_order evaluates the polynomials just built, from their cache.
        payload["group_order"] = rootdata.group_order(spec)
    except rootdata.OrderFormulaError:
        payload["group_order"] = None
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_orbit(args) -> int:
    spec = _build_spec(args)
    beta = _parse_coordinates(args.beta, spec.datum.rank)
    payload = {
        "group": spec.describe(),
        "beta": list(beta),
        "modulus": charlattice.torus_orbits(spec).m,
        "orbit_size": charlattice.orbit_size(spec, beta),
    }
    if args.json:
        orb = charlattice.orbit(spec, beta)
        payload["orbit"] = sorted(list(v) for v in orb)
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_orbit_scan(args) -> int:
    spec = _build_spec(args)
    payload = charlattice.orbit_scan(spec).to_json()
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_bound(args) -> int:
    spec = _build_spec(args)
    weight = _parse_weight(args.weight, spec.datum.rank)
    cert = bounds.best_bound(spec, weight)
    payload = cert.to_json()
    lines = [f"group: {cert.group}", f"weight: {list(cert.weight)}",
             f"bound: {cert.bound}" + (" (exact)" if cert.exact else "")]
    lines += [f"  [{s.rule}] {s.value}: {s.detail}" for s in cert.steps]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_candidates(args) -> int:
    spec = _build_spec(args)
    survivors = weights.minimal_pim_candidates(spec)
    payload = {
        "group": spec.describe(),
        "candidates": [list(w.coeffs) for w in survivors],
        "count": len(survivors),
    }
    _emit(payload, args.json)
    return EXIT_OK


def _cmd_export_tables(args) -> int:
    payload = {
        "datasets": {tag: degrees.dataset(tag).to_json()
                     for tag in degrees.DATASETS},
        "weyl_groups": _weyl_table(),
        "natural_representation_irreducibility": _natural_rep_table(),
    }
    _emit(payload, True)
    return EXIT_OK


def _iter_small_data():
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(2, 9)), ("D", range(3, 9)),
                          ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
                          ("F4", (4,)), ("G2", (2,))):
        for rank in ranks:
            yield rootdata.build_root_datum(family, rank)


def _weyl_table() -> list[dict]:
    return [
        {"family": d.family, "rank": d.rank, "weyl_order": d.weyl_order,
         "positive_roots": d.positive_root_count,
         "min_nonlinear_degree": d.min_nonlinear_degree}
        for d in _iter_small_data()
    ]


def _natural_rep_table() -> list[dict]:
    out = []
    for d in _iter_small_data():
        for ell in (2, 3, 5, 7):
            out.append({
                "family": d.family, "rank": d.rank, "modulus": ell,
                "irreducible": charlattice.natural_rep_irreducibility_table(d, ell),
            })
    return out


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _check(condition: bool, description: str, **context) -> None:
    if not condition:
        raise VerificationFailure({"failed": description, **context})


def _suite_tables(report: dict, args) -> None:
    # Root-data invariants: Coxeter relations and closure orders.
    for datum in _iter_small_data():
        mats = rootdata.reflection_matrices(datum)
        n = datum.rank
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

        def mat_mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n))

        for i in range(n):
            _check(mat_mul(mats[i], mats[i]) == identity,
                   "simple reflection is not an involution",
                   family=datum.family, rank=datum.rank, node=i + 1)
        for i in range(n):
            for j in range(i + 1, n):
                prod = mat_mul(mats[i], mats[j])
                acc = identity
                for _ in range(datum.coxeter_order(i + 1, j + 1)):
                    acc = mat_mul(acc, prod)
                _check(acc == identity, "Coxeter relation fails",
                       family=datum.family, rank=datum.rank, nodes=[i + 1, j + 1])
        closure = rootdata.weyl_order_by_bfs(datum)
        _check(closure == datum.weyl_order,
               "closure cardinality differs from the stored Weyl order",
               family=datum.family, rank=datum.rank,
               closure=closure, stored=datum.weyl_order)
    report["rootdata"] = "ok"

    # Degree identities.
    degrees.verify_induced_identity("U4")
    degrees.verify_induced_identity("D4")
    degrees.verify_regular_degree_identities()
    degrees.cyclotomic_residue_report()
    report["degrees"] = "ok"

    # Mod-l irreducibility of the natural reflection representation.
    for datum in _iter_small_data():
        for ell in (2, 3, 5, 7):
            expected = charlattice.natural_rep_irreducibility_table(datum, ell)
            computed = charlattice.is_irreducible_mod_ell(datum, ell)
            _check(computed == expected,
                   "mod-l irreducibility differs from the embedded table",
                   family=datum.family, rank=datum.rank, modulus=ell,
                   computed=computed, expected=expected)
    report["natural_representation"] = "ok"


def _suite_orbits(report: dict, args) -> None:
    for rank in (2, 3, 4):
        for q in (4, 8):
            spec = rootdata.group("C", rank, q=q)
            scan = charlattice.orbit_scan(spec)
            _check(scan.min_nontrivial_orbit == 2 * rank,
                   "smallest nontrivial orbit is not 2n",
                   group=spec.describe(), found=scan.min_nontrivial_orbit)
    for q in (4, 8):
        spec = rootdata.group("D", 4, q=q)
        scan = charlattice.orbit_scan(spec)
        _check(scan.min_nontrivial_orbit == 8,
               "smallest nontrivial orbit is not 2n",
               group=spec.describe(), found=scan.min_nontrivial_orbit)
    fixed_only_zero = (
        [rootdata.special_linear(n, q) for n in range(3, 7) for q in (3, 4, 5)]
        + [rootdata.group("G2", 2, q=q) for q in (4, 5, 7)]
        + [rootdata.group("F4", 4, q=q) for q in (3, 5)]
        + [rootdata.group("E6", 6, q=4), rootdata.group("E7", 7, q=3),
           rootdata.group("E8", 8, q=3)]
    )
    for spec in fixed_only_zero:
        scan = charlattice.orbit_scan(spec)
        zero = (0,) * spec.datum.rank
        _check(scan.fixed_points == (zero,),
               "Weyl-fixed torus characters beyond the trivial one",
               group=spec.describe(),
               fixed=[list(v) for v in scan.fixed_points])
    minimums = (
        [(rootdata.special_linear(n, q), n)
         for n in (5, 6) for q in (3, 4, 5)]
        + [(rootdata.group("E6", 6, q=4), 27),
           (rootdata.group("E7", 7, q=3), 28),
           (rootdata.group("E8", 8, q=3), 120)]
    )
    for spec, minimum in minimums:
        scan = charlattice.orbit_scan(spec)
        _check(scan.min_nontrivial_orbit is not None
               and scan.min_nontrivial_orbit >= minimum,
               "nontrivial orbit below the required minimum",
               group=spec.describe(), found=scan.min_nontrivial_orbit,
               required=minimum)
    report["orbits"] = "ok"


def _case_suite(report: dict, name: str, title: str, parameter: str,
                values) -> None:
    """Run the case analysis ``caseanalysis.<name>_verify`` on each value
    (a prime, or a Ree exponent); any outcome but NoSolution is a
    counterexample."""
    verify = getattr(caseanalysis, f"{name}_verify")
    results = {}
    for value in values:
        verdict = verify(value)
        _check(verdict.outcome == "NoSolution", f"{title} analysis inconclusive",
               **{parameter: value}, verdict=verdict.to_json())
        results[str(value)] = verdict.outcome
    report[name] = results


# The suites in the order ``verify all`` runs them.
_SUITES = {
    "tables": _suite_tables,
    "orbits": _suite_orbits,
    "u4": lambda report, args: _case_suite(
        report, "u4", "U4", "prime", args.primes or (3, 5, 7, 11)),
    "d4": lambda report, args: _case_suite(
        report, "d4", "D4", "prime", args.primes or (3, 5, 7, 11, 13)),
    "ree": lambda report, args: _case_suite(
        report, "ree", "Ree", "exponent", args.f or (1, 2)),
}


def _cmd_verify(args) -> int:
    report: dict = {}
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    try:
        for name in suites:
            _SUITES[name](report, args)
    except VerificationFailure as failure:
        print(json.dumps({"verified": False, "counterexample": failure.payload,
                          "partial_report": report}, sort_keys=True))
        return EXIT_VIOLATION
    except (caseanalysis.CaseAnalysisError,
            degrees.DatasetCorruptError) as exc:
        print(json.dumps({"verified": False, "error": str(exc),
                          "partial_report": report}, sort_keys=True))
        return EXIT_VIOLATION
    payload = {"verified": True, "suite": args.suite, "report": report}
    _emit(payload, args.json, [f"suite {args.suite}: verified"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :func:`main`, built on its first call; every
    caller shares that one parser."""
    parser = argparse.ArgumentParser(
        prog="pimbounds",
        description="Lower bounds for projective indecomposable modules of "
                    "finite groups of Lie type in defining characteristic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="basic data for one group")
    _add_group_arguments(p_info)
    p_info.add_argument("--json", action="store_true")

    p_orbit = sub.add_parser("orbit", help="Weyl orbit of one torus character")
    _add_group_arguments(p_orbit)
    p_orbit.add_argument("--beta", required=True,
                         help="comma-separated character coordinates; give "
                              "a negative first coordinate as --beta=-1,0, "
                              "since --beta -1,0 reads -1,0 as an option")
    p_orbit.add_argument("--json", action="store_true")

    p_scan = sub.add_parser("orbit-scan", help="scan all torus characters")
    _add_group_arguments(p_scan)
    p_scan.add_argument("--json", action="store_true")

    p_bound = sub.add_parser("bound", help="certified lower bound for a weight")
    _add_group_arguments(p_bound)
    p_bound.add_argument("--weight", required=True,
                         help="comma-separated restricted weight coefficients")
    p_bound.add_argument("--json", action="store_true")

    p_cand = sub.add_parser("candidates",
                            help="weights surviving the projectivity sieve")
    _add_group_arguments(p_cand)
    p_cand.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=[*_SUITES, "all"])
    p_verify.add_argument("--primes", type=int, nargs="+", default=None)
    p_verify.add_argument("--f", type=int, nargs="+", default=None,
                          help="Ree exponents f (with t = 3^f)")
    p_verify.add_argument("--json", action="store_true")

    sub.add_parser("export-tables", help="dump the embedded datasets as JSON")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    # The handler is looked up at call time, so a reused parser holds none.
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (UnsupportedGroupError, ValueError,
            charlattice.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault in the program, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
