"""Tests for exact polynomial arithmetic and embedded degree datasets."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pimbounds import degrees as dg
from pimbounds.degrees import ONE, X, DegreePolynomial, poly


# ---------------------------------------------------------------------------
# Polynomial arithmetic
# ---------------------------------------------------------------------------


def test_basic_structure():
    assert poly().is_zero()
    assert poly(0, 0).is_zero()
    assert poly(3).degree == 0
    assert poly(1, 2, 3).degree == 2
    assert DegreePolynomial.monomial(4, 7) == poly(0, 0, 0, 0, 7)
    assert X == poly(0, 1)
    assert ONE == poly(1)


def test_immutability():
    with pytest.raises(AttributeError):
        X.coeffs = (1,)


def test_ring_ops_small_examples():
    assert poly(1, 1) * poly(-1, 1) == poly(-1, 0, 1)
    assert (X + 1) ** 3 == poly(1, 3, 3, 1)
    assert poly(1, 2) - poly(1, 2) == poly()
    assert 2 * X == poly(0, 2)
    assert 5 - X == poly(5, -1)
    assert (-X).coeffs == (0, -1)


coeff_lists = st.lists(st.integers(-50, 50), max_size=6)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(-20, 20))
def test_evaluation_is_a_ring_homomorphism(a, b, x):
    f, g = DegreePolynomial(a), DegreePolynomial(b)
    assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
    assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists)
def test_divmod_roundtrip(a, b):
    f, g = DegreePolynomial(a), DegreePolynomial(b)
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f.divmod(g)
        return
    try:
        q, r = f.divmod(g)
    except dg.InexactDivisionError:
        return
    assert q * g + r == f
    assert r.degree < g.degree


def rational_divmod(f, g):
    """Oracle for divmod: long division over the rationals, raising
    InexactDivisionError unless quotient and remainder are integral."""
    rem = [Fraction(c) for c in f.coeffs]
    dn = g.degree
    lead = Fraction(g.coeffs[-1])
    quot = [Fraction(0)] * max(len(rem) - dn, 0)
    for k in range(len(rem) - dn - 1, -1, -1):
        quot[k] = factor = rem[k + dn] / lead
        for j, dc in enumerate(g.coeffs):
            rem[k + j] -= factor * dc
    rem = rem[:dn]
    if any(c.denominator != 1 for c in quot + rem):
        raise dg.InexactDivisionError("not integral")
    return (DegreePolynomial(int(c) for c in quot),
            DegreePolynomial(int(c) for c in rem))


divisors = st.builds(
    lambda low, lead: DegreePolynomial([*low, lead]),
    st.lists(st.integers(-50, 50), max_size=4),
    st.one_of(st.sampled_from([1, -1]),
              st.integers(-6, 6).filter(lambda c: c not in (-1, 0, 1))))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=9), divisors)
def test_divmod_equals_rational_division(a, g):
    f = DegreePolynomial(a)
    try:
        expected = rational_divmod(f, g)
    except dg.InexactDivisionError:
        message = re.escape(f"inexact division of {f!r} by {g!r}")
        with pytest.raises(dg.InexactDivisionError, match=message):
            f.divmod(g)
        return
    assert f.divmod(g) == expected


def test_divexact_and_failures():
    f = (X + 1) * (X ** 2 + 3)
    assert f.divexact(X + 1) == X ** 2 + 3
    with pytest.raises(dg.InexactDivisionError):
        (f + 1).divexact(X + 1)
    with pytest.raises(dg.InexactDivisionError):
        poly(1, 1).divmod(poly(0, 2))  # quotient 1/2 not integral


def test_shift_p_part():
    k, rest = (X ** 3 * (X + 5)).shift_p_part()
    assert k == 3 and rest == X + 5
    k, rest = (X + 5).shift_p_part()
    assert k == 0 and rest == X + 5
    with pytest.raises(ValueError):
        poly().shift_p_part()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-50, 50), max_size=9))
def test_cyclotomic_residue_two_oracles_agree(a):
    f = DegreePolynomial(a)
    phi3 = X ** 2 + X + 1
    assert f.reduce_mod(phi3) == dg.cyclotomic3_residue(f)


def test_cyclotomic_residue_examples():
    phi3 = X ** 2 + X + 1
    assert dg.cyclotomic3_residue(X ** 3) == ONE
    assert dg.cyclotomic3_residue(X ** 2) == poly(-1, -1)
    assert dg.cyclotomic3_residue(phi3 * (X ** 5 + 7)).is_zero()


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


def test_dataset_lookup():
    assert dg.dataset("U4").tag == "U4"
    assert dg.dataset("D4").variable == "p"
    assert dg.dataset("REE2G2").variable == "t"
    with pytest.raises(KeyError):
        dg.dataset("E8")
    with pytest.raises(KeyError):
        dg.dataset("U4").family("nope")


def test_u4_degrees_at_p3():
    data = dg.dataset("U4")
    p = 3
    # Independent oracle: |SU(4,3)| has p-part 3^6; the Steinberg row.
    assert data.family("chi11").degree_at(p) == p ** 6
    assert data.family("sigma").degree_at(p) == p ** 2 * (p ** 2 + 1)
    assert data.family("chi10").degree_at(p) == (
        (p - 1) ** 2 * (p ** 2 - p + 1) * (p ** 2 + 1))
    assert (("tau", 1), ("chi13", 1)) in data.inspected


def test_half_integral_degrees_are_integral_at_odd_values():
    d4 = dg.dataset("D4")
    for p in (3, 5, 7, 11):
        for name in ("rho2p", "rho2", "e1", "e2"):
            fam = d4.family(name)
            assert fam.degree.evaluate(p) % fam.denominator == 0
            fam.degree_at(p)  # must not raise
    # e1 = p^3 (p^3-1)^2 / 2 at p = 3
    assert d4.family("e1").degree_at(3) == 27 * 26 ** 2 // 2


def test_half_integral_degree_rejects_nonintegral_value():
    fam = dg.CharacterFamily("synthetic", X, denominator=2)
    assert fam.degree_at(4) == 2
    with pytest.raises(dg.InexactDivisionError):
        fam.degree_at(3)


def test_ree_degrees_sum_of_squares_is_group_order():
    # Strong independent check: the sum over all embedded families of
    # (multiplicity * degree^2) need not cover the full character table, so
    # instead verify each degree divides the group order p'-part * p-part
    # and spot-check values at t = 3 (q^2 = 27).
    data = dg.dataset("REE2G2")
    t = 3
    q2 = 3 * t ** 2
    assert data.family("St").degree_at(t) == q2 ** 3
    assert data.family("tau").degree_at(t) == q2 ** 2 - q2 + 1
    assert data.family("xi6").degree_at(t) == t * (q2 - 1) * (q2 - 3 * t + 1) // 2
    assert data.group_order.evaluate(t) == q2 ** 3 * (q2 - 1) * (q2 ** 3 + 1)


def test_probe_value_kinds_validated():
    with pytest.raises(ValueError):
        dg.ProbeValue("sometimes", ONE)
    with pytest.raises(ValueError, match="unknown character family kind"):
        dg.CharacterFamily("synthetic", X, kind="sometimes")


def test_to_json_roundtrip_structure():
    blob = dg.dataset("U4").to_json()
    assert blob["tag"] == "U4"
    names = {fam["name"] for fam in blob["families"]}
    assert {"chi11", "sigma", "tau", "chi16", "chi17", "chi19"} <= names
    chi19 = next(f for f in blob["families"] if f["name"] == "chi19")
    assert chi19["class_values"]["regular_unipotent"]["kind"] == "global_sign"
    d4 = dg.dataset("D4").to_json()
    e2 = next(f for f in d4["families"] if f["name"] == "e2")
    assert e2["degree_denominator"] == 4


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


def test_induced_identities():
    assert dg.verify_induced_identity("U4")["identity_holds"]
    assert dg.verify_induced_identity("D4")["identity_holds"]
    with pytest.raises(KeyError):
        dg.verify_induced_identity("REE2G2")


def test_u4_induced_identity_numeric_oracle():
    # Re-derive the identity numerically at several values.
    data = dg.dataset("U4")
    for p in (2, 3, 5, 7, 11):
        lhs = p ** 2 * (p + 1) * (p ** 3 + 1)
        rhs = (p ** 6 + data.family("sigma").degree_at(p)
               + data.family("tau").degree_at(p))
        assert lhs == rhs


def test_regular_degree_identities_all_rows():
    reports = dg.verify_regular_degree_identities()
    assert len(reports) == 11
    assert all(r["identity_holds"] for r in reports)
    assert {r["class"] for r in reports} == {
        "A1", "A6", "A9", "A12", "A14", "B1", "B3", "C1", "C3", "D1", "E1"}


def test_regular_degree_identity_numeric_oracle():
    # Check one row fully numerically: class A9 at p = 5.
    data = dg.dataset("U4")
    fam = next(f for f in data.families if f.class_label == "A9")
    p = 5
    cent = fam.centralizer_order.evaluate(p)
    order = data.group_order.evaluate(p)
    index = order // cent
    assert order % cent == 0

    def p_part(n):
        out = 1
        while n % p == 0:
            out *= p
            n //= p
        return out

    assert fam.degree_at(p) == p_part(cent) * (index // p_part(index))


def test_cyclotomic_residue_report():
    report = dg.cyclotomic_residue_report((3, 5, 7, 11, 13))
    assert all(report["divisible"][n] for n in ("e1", "e2", "e3", "e4", "e5"))
    # Recomputed residues: f1 = -21 and f2 = 3 modulo x^2+x+1.
    assert report["residues"]["f1"]["residue_coefficients"] == [-21]
    assert report["residues"]["f2"]["residue_coefficients"] == [3]
    for label in ("f1", "f2"):
        for p, value in report["residues"][label]["nonzero_at"].items():
            assert 0 < value < p ** 2 + p + 1
    assert report["claims_are_informational_only"]


def test_cyclotomic_residue_numeric_oracle():
    # Direct residue computation at p = 7 without any polynomial machinery.
    data = dg.dataset("D4")
    p = 7
    modulus = p ** 2 + p + 1
    T = p ** 12 - p ** 11 + p ** 9 - p ** 7
    f1 = T - data.family("chi12").degree_at(p)
    f2 = T - data.family("chi15").degree_at(p)
    assert f1 % modulus == -21 % modulus
    assert f2 % modulus == 3
