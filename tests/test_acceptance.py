"""End-to-end acceptance suite.

Each test certifies one headline computation of the toolkit, exactly and with
the documented time budget where one applies.
"""

import contextlib
import io
import json
import random
import time

import pytest

from pimbounds import (
    bounds as bd,
    caseanalysis as ca,
    cli,
    degrees as dg,
    rootdata as rd,
    weights as wt,
)
from pimbounds.weights import Weight


def run_verify(suite):
    """Run ``verify <suite> --json`` once; return its report and wall time."""
    out = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", suite, "--json"])
    seconds = time.monotonic() - start
    assert code == 0, out.getvalue()
    blob = json.loads(out.getvalue())
    assert blob["verified"]
    return blob["report"], seconds


# The headline checks live in the `verify` suites; each suite runs once per
# module and the tests below read its report.


@pytest.fixture(scope="module")
def tables_run():
    return run_verify("tables")


@pytest.fixture(scope="module")
def orbits_run():
    return run_verify("orbits")


# 1. Coxeter relations and reflection-group cardinalities -------------------


def test_coxeter_relations_and_group_cardinalities(tables_run):
    report, _ = tables_run
    assert report == {
        "rootdata": "ok", "degrees": "ok", "natural_representation": "ok"}


# 2. Mod-l irreducibility of the natural reflection representation ----------


def test_natural_representation_irreducibility_full_sweep(tables_run):
    report, _ = tables_run
    assert report["natural_representation"] == "ok"


# 3. Smallest nontrivial torus-character orbits for C_n and D_4 -------------


def test_min_nontrivial_orbit_is_twice_rank(orbits_run):
    report, seconds = orbits_run
    assert report == {"orbits": "ok"}
    assert seconds < 30


# 4. Only the trivial torus character is fixed by the reflection group ------


def test_fixed_character_set_is_trivial(orbits_run):
    report, _ = orbits_run
    assert report == {"orbits": "ok"}


# 5. Orbit-size lower bounds for large linear and exceptional groups --------


def test_min_nontrivial_orbit_lower_bounds(orbits_run):
    report, _ = orbits_run
    assert report == {"orbits": "ok"}


# 6. Exact polynomial degree identities -------------------------------------


def test_degree_identities():
    assert dg.verify_induced_identity("U4")["identity_holds"]
    assert dg.verify_induced_identity("D4")["identity_holds"]
    reports = dg.verify_regular_degree_identities()
    assert len(reports) == 11
    assert all(r["identity_holds"] for r in reports)


# 7. Unitary degree-4 exhaustive analysis -----------------------------------


def test_unitary4_exhaustive_analysis():
    start = time.monotonic()
    for p in (3, 5, 7, 11):
        verdict = ca.u4_verify(p)
        assert verdict.outcome == "NoSolution", p
        assert verdict.data["case_solution_counts"]["A14"] == 5, p
        # Every candidate is eliminated under every applicable sign
        # convention; candidates touching the globally-signed class value
        # must appear under both conventions.
        signs = {e.sign_convention for e in verdict.eliminations}
        assert {1, -1} <= signs, p
    assert time.monotonic() - start < 10


# 8. Triality D4 divisibility analysis --------------------------------------


def test_triality_d4_divisibility_analysis():
    for p in (3, 5, 7, 11, 13):
        verdict = ca.d4_verify(p)
        assert verdict.outcome == "NoSolution", p
        assert all(verdict.data["divisible_auxiliary_degrees"][n]
                   for n in ("e1", "e2", "e3", "e4", "e5")), p
        modulus = p * p + p + 1
        assert verdict.data["residues"]["f1"] % modulus != 0, p
        assert verdict.data["residues"]["f2"] % modulus != 0, p
        # The degree filter keeps exactly the two expected outer rows; the
        # driver itself raises if the filter result differs, so reaching a
        # verdict already certifies it.  Double-check independently:
        data = dg.dataset("D4")
        T = p ** 12 - data.family("tau").degree_at(p)
        survivors = sorted(
            f"chi{i}" for i in range(9, 16)
            if data.family(f"chi{i}").degree_at(p) <= T)
        assert survivors == ["chi12", "chi15"], p


# 9. Rank-1 Ree group exhaustive analysis -----------------------------------


def test_ree_group_exhaustive_analysis():
    start = time.monotonic()
    replay = ca._ree_symbolic_replay()
    assert all(replay["checks"].values())
    for f in (1, 2):
        verdict = ca.ree_verify(f)
        assert verdict.outcome == "NoSolution", f
        assert all(verdict.data["symbolic_checks"].values()), f
    assert time.monotonic() - start < 60


# 10. Parabolic projectivity sieve ------------------------------------------


def test_minimal_pim_candidate_lists():
    for family in ("A", "C", "G2"):
        for p in (3, 5):
            spec = rd.group(family, 2, q=p)
            got = sorted(w.coeffs for w in wt.minimal_pim_candidates(spec))
            assert got == [(0, p - 1), (p - 1, 0)], (family, p)
    for p in (3, 5):
        got = [w.coeffs for w in wt.minimal_pim_candidates(
            rd.special_unitary(4, p))]
        assert got == [(p - 1, 0, p - 1)], p
    got = [w.coeffs for w in wt.minimal_pim_candidates(
        rd.group("D", 4, q=3, twist_order=3))]
    assert got == [(2, 0, 2, 2)]
    got = [w.coeffs for w in wt.minimal_pim_candidates(
        rd.special_unitary(5, 2))]
    assert got == [(1, 0, 0, 1)]


# 11. Soundness of the certified bounds -------------------------------------


def test_bounds_sound_against_exact_rank_one_values():
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            q = p ** k
            spec = rd.special_linear(2, q)
            for m in range(q):
                cert = bd.best_bound(spec, Weight((m,)))
                exact = bd.rank_one_multiplier(q, m)
                assert cert.bound <= exact, (q, m)
                assert cert.bound == exact  # rank 1 is certified exactly


def test_bounds_sound_against_known_group_minima():
    cases = [
        (rd.special_unitary(4, 2), 4),
        (rd.special_unitary(5, 2), 5),
        (rd.group("G2", 2, q=2), 5),
        (rd.group("C", 2, q=2), 3),
        (rd.group("C", 2, q=3), 2),
    ]
    for spec, minimum in cases:
        steinberg = wt.steinberg_weight(spec)
        certified = [
            bd.best_bound(spec, w).bound
            for w in wt.enumerate_restricted_weights(spec)
            if w != steinberg
        ]
        # Sound: no certificate exceeds the smallest actual multiplier.
        assert min(certified) == minimum, spec.describe()


# 12. Decomposition enumerator against an independent oracle ----------------


def test_decomposition_enumerator_oracle_equivalence():
    rng = random.Random(0xACCE97)
    done = 0
    while done < 1000:
        nparts = rng.randint(1, 5)
        target = rng.randint(0, 10 ** 4)
        sizes = tuple(rng.randint(1, 10 ** 4) for _ in range(nparts))
        # Keep each instance small enough to enumerate quickly.
        estimate = 1
        for s in sizes:
            estimate *= target // s + 1
        if estimate > 2000:
            continue
        ca.enumerate_decompositions(target, sizes)
        done += 1
