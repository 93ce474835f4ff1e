"""Tests for the exhaustive decomposition searches and their eliminations."""

import hashlib
import itertools
import json
import random

import pytest

from pimbounds import caseanalysis as ca
from pimbounds import degrees as dg


# ---------------------------------------------------------------------------
# Decomposition enumeration
# ---------------------------------------------------------------------------


def test_enumerate_small_examples():
    assert ca.enumerate_decompositions(0, (2, 3)) == [(0, 0)]
    assert ca.enumerate_decompositions(1, (2, 3)) == []
    assert ca.enumerate_decompositions(6, (2, 3)) == [(0, 2), (3, 0)]
    assert ca.enumerate_decompositions(5, (1,)) == [(5,)]
    assert ca.enumerate_decompositions(7, (2, 3)) == [
        (2, 1)]


def test_enumerate_is_sorted_and_complete():
    sizes = (3, 5, 7)
    sols = ca.enumerate_decompositions(35, sizes)
    assert sols == sorted(sols)
    for sol in sols:
        assert sum(m * s for m, s in zip(sol, sizes)) == 35
    # Independent count: brute-force over a box.
    count = sum(
        1
        for a in range(12)
        for b in range(8)
        for c in range(6)
        if 3 * a + 5 * b + 7 * c == 35
    )
    assert len(sols) == count


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        ca.enumerate_decompositions(-1, (2,))
    with pytest.raises(ValueError):
        ca.enumerate_decompositions(4, (0, 2))


def test_enumerate_randomized_cross_check():
    rng = random.Random(20260824)
    for _ in range(200):
        nparts = rng.randint(1, 4)
        sizes = tuple(rng.randint(1, 30) for _ in range(nparts))
        target = rng.randint(0, 120)
        ca.enumerate_decompositions(target, sizes)


# ---------------------------------------------------------------------------
# Unitary degree-4 analysis
# ---------------------------------------------------------------------------


def test_u4_verify_structure():
    verdict = ca.u4_verify(3)
    assert verdict.outcome == "NoSolution"
    assert verdict.data["case_solution_counts"] == {"A6": 1, "A12": 2, "A14": 5}
    # 1 (A6 case) + 2 (A12 case) + 5 (A14 case)
    assert verdict.candidates_considered == 8
    probes = {e.probe for e in verdict.eliminations}
    assert probes <= {"table_inspection", "A10A11", "regular_unipotent",
                      "cyclotomic_residue"}
    # Two candidates are disposed of by embedded inspection data.
    inspections = [e for e in verdict.eliminations
                   if e.probe == "table_inspection"]
    assert len(inspections) == 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_u4_inspections_are_exactly_the_dataset_entries(p):
    # Every inspected sum of the dataset is a candidate of the analysis, so
    # no entry is dead, and no other candidate is disposed of by inspection.
    eliminated = {e.candidate for e in ca.u4_verify(p).eliminations
                  if e.probe == "table_inspection"}
    assert eliminated == dg.dataset("U4").inspected


def test_u4_verify_sign_conventions_both_run():
    verdict = ca.u4_verify(5)
    signs = {e.sign_convention for e in verdict.eliminations}
    # Candidates touching the globally-signed value run under both signs.
    assert {1, -1} <= signs


def test_u4_degree_bound_value():
    for p in (3, 7):
        verdict = ca.u4_verify(p)
        assert verdict.data["degree_bound"] == p ** 3 * (p - 1) * (p ** 2 + 1)


def test_u4_rejects_even_or_tiny_p():
    with pytest.raises(ValueError):
        ca.u4_verify(2)
    with pytest.raises(ValueError):
        ca.u4_verify(4)


def test_u4_json_serialization():
    blob = ca.u4_verify(3).to_json()
    assert blob["outcome"] == "NoSolution"
    assert isinstance(blob["eliminations"], list)
    assert all("candidate" in e and "probe" in e for e in blob["eliminations"])


# ---------------------------------------------------------------------------
# Triality D4 analysis
# ---------------------------------------------------------------------------


def test_d4_verify_structure():
    for p in (3, 5):
        verdict = ca.d4_verify(p)
        assert verdict.outcome == "NoSolution"
        assert verdict.candidates_considered == 2
        modulus = p * p + p + 1
        assert verdict.data["residues"]["f1"] == -21 % modulus
        assert verdict.data["residues"]["f2"] == 3 % modulus
        assert all(verdict.data["divisible_auxiliary_degrees"].values())


def test_d4_rejects_even_p():
    with pytest.raises(ValueError):
        ca.d4_verify(2)


@pytest.mark.parametrize("p", [9, 15, 1, 2, 4])
@pytest.mark.parametrize("verify", [ca.u4_verify, ca.d4_verify],
                         ids=["u4", "d4"])
def test_analyses_reject_everything_but_odd_primes(verify, p):
    # Odd composites such as 9 and 15 name no group over F_p.
    with pytest.raises(ValueError, match="odd primes"):
        verify(p)


# ---------------------------------------------------------------------------
# Ree group analysis
# ---------------------------------------------------------------------------


def test_ree_symbolic_replay():
    replay = ca._ree_symbolic_replay()
    assert all(replay["checks"].values())
    assert set(replay["residue_polys"]) == {
        (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}
    # The relation for (b, c) = (1, 1) is 6t^2 + 12t + 6 > 0 for all t >= 1.
    rel = replay["residue_polys"][(1, 1)]
    for t in (3, 9, 27):
        assert rel.evaluate(t) > 0


def test_ree_verify_small_fields():
    for f in (1, 2):
        verdict = ca.ree_verify(f)
        assert verdict.outcome == "NoSolution"
        assert verdict.data["t"] == 3 ** f
        assert verdict.data["solution_count_before_class_filter"] == 2
        assert all(verdict.data["symbolic_checks"].values())
        probes = {e.probe for e in verdict.eliminations}
        assert probes == {"Y", "linear_relation"}


def test_ree_verify_class_filter_eliminates_both_solutions():
    verdict = ca.ree_verify(1)
    by_class = [e for e in verdict.eliminations if e.probe == "Y"]
    assert len(by_class) == 2
    for e in by_class:
        mults = dict(e.candidate)
        assert mults.get("xi5", 0) != mults.get("xi7", 0) + mults.get("xi6", 0)


def test_ree_eliminations_name_candidates_one_way():
    # Every elimination, by class Y or by the linear relation, names the
    # whole candidate tau + gamma + a xi5 + b xi7 + c xi6 by its nonzero
    # multiplicities in that order; the linear relation covers a = b + c
    # for the five (b, c) with 0 < b + c <= 2.
    order = ("tau", "gamma", "xi5", "xi7", "xi6")
    for f in (1, 2):
        linear = set()
        for e in ca.ree_verify(f).eliminations:
            assert e.candidate[:2] == (("tau", 1), ("gamma", 1))
            assert all(mult for _, mult in e.candidate)
            names = [name for name, _ in e.candidate]
            assert names == sorted(names, key=order.index)
            if e.probe == "linear_relation":
                mults = dict(e.candidate)
                linear.add(tuple(mults.get(n, 0) for n in order[2:]))
        assert linear == {(b + c, b, c) for b, c in
                          ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}


@pytest.mark.parametrize("t", [3, 9, 27])
def test_ree_class_y_column_rules_out_exactly_a_not_b_plus_c(t):
    # Oracle: the class-Y values sum to t(b + c - a) on the candidate
    # tau + gamma + a xi5 + b xi7 + c xi6, so it vanishes iff a = b + c.
    data = dg.dataset("REE2G2")
    tau, gamma, xi5, xi7, xi6 = (
        data.family(n) for n in ("tau", "gamma", "xi5", "xi7", "xi6"))
    for a, b, c in itertools.product(range(3), repeat=3):
        fams = ((tau, 1), (gamma, 1), (xi5, a), (xi7, b), (xi6, c))
        assert ca._probe_eliminates(fams, "Y", t, 1) == (a != b + c)


def test_ree_verify_rejects_f0():
    with pytest.raises(ValueError):
        ca.ree_verify(0)


def test_case_verdicts_digest_is_pinned():
    # Every verdict of the three analyses and the residue report, serialised
    # as one JSON document with sorted keys and hashed as UTF-8.
    blob = {
        "u4": [ca.u4_verify(p).to_json() for p in (3, 5, 7, 11, 13)],
        "d4": [ca.d4_verify(p).to_json() for p in (3, 5, 7, 11, 13)],
        "ree": [ca.ree_verify(f).to_json() for f in (1, 2)],
        "residues": dg.cyclotomic_residue_report(),
    }
    digest = hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == (
        "f3cd0e6862ed852e9eb0f65173c59c235e45710a57993c3f02e31d0eb3bb7a3d")
