"""Tests for restricted weights, descent, and the candidate sieve."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pimbounds
from pimbounds import (
    bounds as bd,
    charlattice as cl,
    cli,
    rootdata as rd,
    weights as wt,
)
from pimbounds.rootdata import GroupSpec, IntegerField, build_root_datum
from pimbounds.weights import UnsupportedSubdiagramError, Weight
from test_bounds import (
    SWEEP,
    largest_independent_set,
    proper_parabolics,
    reference_components,
    reference_descend_weight,
    reference_doubling,
    socle_trivial_on_borel,
)


# ---------------------------------------------------------------------------
# Restricted weights and Steinberg data
# ---------------------------------------------------------------------------


def test_restricted_weight_counts():
    assert wt.restricted_weight_count(rd.special_linear(3, 5)) == 25
    assert wt.restricted_weight_count(rd.special_unitary(4, 3)) == 27
    # Suzuki-Ree: mixed ranges multiply to the torus order q^(2n).
    suz = rd.group("B", 2, suzuki_ree_e=1)  # q^2 = 8
    assert wt.coefficient_ranges(suz) == (2, 4)
    assert wt.restricted_weight_count(suz) == 8
    ree = rd.group("G2", 2, suzuki_ree_e=1)  # q^2 = 27
    assert wt.coefficient_ranges(ree) == (9, 3)
    assert wt.restricted_weight_count(ree) == 27
    big = rd.group("F4", 4, suzuki_ree_e=1)  # q^2 = 8
    assert wt.coefficient_ranges(big) == (2, 2, 4, 4)


def test_steinberg_weights():
    assert wt.steinberg_weight(rd.special_linear(4, 4)).coeffs == (3, 3, 3)
    # Suzuki group of type B2: (q1-1, 2q1-1).
    assert wt.steinberg_weight(rd.group("B", 2, suzuki_ree_e=1)).coeffs == (1, 3)
    # Ree group of type G2: (3q1-1, q1-1) with node 1 short.
    assert wt.steinberg_weight(rd.group("G2", 2, suzuki_ree_e=1)).coeffs == (8, 2)
    # Large Ree group of type F4: (q1-1, q1-1, 2q1-1, 2q1-1).
    assert wt.steinberg_weight(rd.group("F4", 4, suzuki_ree_e=1)).coeffs == (1, 1, 3, 3)


def test_steinberg_dimension():
    assert wt.steinberg_dimension(rd.special_linear(3, 4)) == 4 ** 3
    assert wt.steinberg_dimension(rd.group("E8", 8, q=3)) == 3 ** 120
    # Ree group of type G2 with q^2 = 3^(2e+1): dimension 3^(3(2e+1)).
    assert wt.steinberg_dimension(rd.group("G2", 2, suzuki_ree_e=1)) == 3 ** 9
    assert wt.steinberg_dimension(rd.group("B", 2, suzuki_ree_e=0)) == 4


def test_weight_coefficients_are_nonnegative_integers():
    assert Weight([True, 2, 3]).coeffs == (1, 2, 3)
    assert type(Weight([True]).coeffs[0]) is int
    assert Weight(()).coeffs == ()
    with pytest.raises(ValueError, match="dominant"):
        Weight((1, -1))


@pytest.mark.parametrize("coeffs", [(2.9, 0), ("3", True), (2.0,), (None,)])
def test_weight_refuses_coefficients_that_are_not_integers(coeffs):
    # Coercing with int would turn (2.9, 0) into (2, 0) and certify a bound
    # for a weight nobody asked about.
    with pytest.raises(ValueError, match="must be integers"):
        Weight(coeffs)


def test_weight_iterates_over_its_coefficients():
    # A 1-based ``__getitem__`` alone would iterate from index 0 and give
    # (3, 1, 2, 3); the orbit layer reads a weight by iterating over it.
    assert tuple(Weight((1, 2, 3))) == (1, 2, 3)
    assert tuple(Weight(())) == ()
    spec = rd.group("A", 3, q=5)
    assert (cl.orbit_size(spec, Weight((1, 2, 3)))
            == cl.orbit_size(spec, (1, 2, 3)) == 6)
    assert cl.orbit(spec, Weight((1, 2, 3))) == cl.orbit(spec, (1, 2, 3))


def test_enumeration_order_and_count():
    spec = rd.special_linear(3, 3)
    listed = list(wt.enumerate_restricted_weights(spec))
    assert len(listed) == 9
    assert listed[0].coeffs == (0, 0)
    assert listed[-1].coeffs == (2, 2)
    assert listed == sorted(listed, key=lambda w: w.coeffs)


# ---------------------------------------------------------------------------
# Parabolic subsets and descent
# ---------------------------------------------------------------------------


def test_components_and_stability():
    d4 = rd.build_root_datum("D", 4, 3)
    sub = wt.ParabolicSubset(d4, frozenset({1, 3, 4}))
    assert sub.mask == 0b1101
    assert rd._components(d4._neighbours, sub.mask) == [0b1, 0b100, 0b1000]
    assert sub.is_twist_stable()
    assert not wt.ParabolicSubset(d4, frozenset({1})).is_twist_stable()


def test_components_equal_set_walk_on_every_node_set():
    for datum in cli._iter_small_data():
        for mask in range(1, 1 << datum.rank):
            nodes = frozenset(i + 1 for i in range(datum.rank) if mask >> i & 1)
            assert wt.ParabolicSubset(datum, nodes).mask == mask
            comps = tuple(tuple(i + 1 for i in range(datum.rank) if c >> i & 1)
                          for c in rd._components(datum._neighbours, mask))
            assert comps == reference_components(datum, nodes), (datum, nodes)


def test_twist_stable_subsets_d4_triality():
    d4 = rd.build_root_datum("D", 4, 3)
    subsets = sorted(tuple(sorted(s.nodes)) for s in proper_parabolics(d4))
    assert subsets == [(1, 3, 4), (2,)]
    assert wt.twisted_bn_rank(d4) == 2


def test_descent_su4_merges_swapped_pair():
    spec = rd.special_unitary(4, 3)
    sub = wt.ParabolicSubset(spec.datum, frozenset({1, 3}))
    (desc,) = wt.descend_weight(spec, sub, Weight((2, 1, 0)))
    assert desc.spec.datum.family == "A"
    assert desc.spec.datum.rank == 1
    assert desc.spec.q == 9
    assert desc.weight.coeffs == (2 + 3 * 0,)


def test_descent_su5_adjacent_pair_is_twisted():
    spec = rd.special_unitary(5, 2)
    sub = wt.ParabolicSubset(spec.datum, frozenset({2, 3}))
    (desc,) = wt.descend_weight(spec, sub, Weight((0, 1, 0, 0)))
    assert desc.spec.datum.family == "A"
    assert desc.spec.datum.rank == 2
    assert desc.spec.datum.twist_order == 2
    assert desc.spec.q == 2
    assert desc.weight.coeffs == (1, 0)


def test_descent_triality_three_cycle():
    spec = rd.group("D", 4, q=5, twist_order=3)
    sub = wt.ParabolicSubset(spec.datum, frozenset({1, 3, 4}))
    (desc,) = wt.descend_weight(spec, sub, Weight((1, 0, 2, 3)))
    assert desc.spec.datum.rank == 1
    assert desc.spec.q == 125
    # Orbit 1 -> 3 -> 4: coefficient 1 + 5*2 + 25*3.
    assert desc.weight.coeffs == (1 + 5 * 2 + 25 * 3,)


def test_descent_split_multiple_components():
    spec = rd.special_linear(5, 3)
    sub = wt.ParabolicSubset(spec.datum, frozenset({1, 2, 4}))
    descs = wt.descend_weight(spec, sub, Weight((1, 2, 0, 1)))
    by_nodes = {d.original_nodes: d for d in descs}
    assert set(by_nodes) == {(1, 2), (4,)}
    assert by_nodes[(1, 2)].spec.datum.rank == 2
    assert by_nodes[(1, 2)].weight.coeffs == (1, 2)
    assert by_nodes[(4,)].weight.coeffs == (1,)


def test_descent_b3_tail_keeps_type():
    spec = rd.group("B", 3, q=3)
    sub = wt.ParabolicSubset(spec.datum, frozenset({2, 3}))
    (desc,) = wt.descend_weight(spec, sub, Weight((0, 1, 2)))
    # Nodes 2 (long) and 3 (short) of B3 form a rank-2 double-bond diagram,
    # canonicalised to family C with the short node first.
    assert desc.spec.datum.family == "C"
    assert desc.original_nodes == (3, 2)
    assert desc.weight.coeffs == (2, 1)


def test_descent_e6_subdiagram_classification():
    spec = rd.group("E6", 6, q=2)
    sub = wt.ParabolicSubset(spec.datum, frozenset({2, 3, 4, 5}))
    (desc,) = wt.descend_weight(spec, sub, Weight((0, 1, 0, 1, 0, 0)))
    assert desc.spec.datum.family == "D"
    assert desc.spec.datum.rank == 4
    # Bourbaki D4 order: long arm node, center, two leaves.
    assert desc.original_nodes[1] == 4  # the trivalent node sits second
    assert desc.weight[2] == 1


def test_descent_rejects_bad_subsets():
    spec = rd.special_unitary(4, 3)
    with pytest.raises(ValueError):
        wt.descend_weight(spec, wt.ParabolicSubset(spec.datum, frozenset({1})),
                          Weight((0, 0, 0)))
    with pytest.raises(ValueError):
        wt.descend_weight(spec, wt.ParabolicSubset(spec.datum, frozenset()),
                          Weight((0, 0, 0)))
    with pytest.raises(ValueError):
        wt.descend_weight(
            spec, wt.ParabolicSubset(spec.datum, frozenset({2})),
            Weight((5, 0, 0)))  # not restricted


def test_descent_transitivity_on_split_chain():
    # Descending SL(4, 3) to {1,2} and then to {1} agrees with direct {1}.
    spec = rd.special_linear(4, 3)
    w = Weight((1, 2, 0))
    sub12 = wt.ParabolicSubset(spec.datum, frozenset({1, 2}))
    (mid,) = wt.descend_weight(spec, sub12, w)
    inner = wt.ParabolicSubset(mid.spec.datum, frozenset({1}))
    (leaf,) = wt.descend_weight(mid.spec, inner, mid.weight)
    direct = wt.ParabolicSubset(spec.datum, frozenset({1}))
    (leaf2,) = wt.descend_weight(spec, direct, w)
    assert leaf.weight == leaf2.weight
    assert leaf.spec.q == leaf2.spec.q


def _outcome(descend, spec, parabolic, weight):
    try:
        return descend(spec, parabolic, weight)
    except ValueError as exc:
        return type(exc), str(exc)


_ORACLE_DATA = (
    [build_root_datum("A", n) for n in range(1, 7)]
    + [build_root_datum(f, n) for f in "BC" for n in range(2, 6)]
    + [build_root_datum("D", n) for n in range(4, 7)]
    + [build_root_datum(f, n) for f, n in
       (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))]
    + [build_root_datum("A", n, 2) for n in range(2, 7)]
    + [build_root_datum("D", 4, 2), build_root_datum("D", 5, 2),
       build_root_datum("D", 4, 3), build_root_datum("E6", 6, 2)]
)
_ORACLE_SUZUKI_REE = (("B", 2), ("G2", 2), ("F4", 4))


@st.composite
def _group_and_weight(draw):
    """A group, and a weight that is usually restricted: a coefficient may
    reach its range, and rarely the length is off by one."""
    if draw(st.integers(0, 4)) == 0:
        family, rank = draw(st.sampled_from(_ORACLE_SUZUKI_REE))
        spec = rd.group(family, rank, suzuki_ree_e=draw(st.integers(0, 2)))
    else:
        datum = draw(st.sampled_from(_ORACLE_DATA))
        q = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
        spec = GroupSpec(datum, IntegerField(q))
    ranges = list(wt.coefficient_ranges(spec))
    n = len(ranges)
    length = draw(st.sampled_from((n,) * 8 + (n - 1, n + 1)))
    ranges = (ranges + [2])[:length]
    # Coefficient r (unrestricted) with probability 1/10.
    coeffs = [draw(st.integers(0, r - (draw(st.integers(0, 9)) > 0)))
              for r in ranges]
    return spec, Weight(tuple(coeffs))


@settings(max_examples=400, deadline=None)
@given(_group_and_weight())
def test_descend_weight_equals_reference(case):
    spec, weight = case
    for parabolic in reference_twist_stable_subsets(spec.datum):
        assert (_outcome(wt.descend_weight, spec, parabolic, weight)
                == _outcome(reference_descend_weight, spec, parabolic, weight))


def test_descend_weight_invalid_inputs_match_reference():
    su4 = rd.special_unitary(4, 3)
    d = su4.datum
    f4 = rd.group("F4", 4, suzuki_ree_e=1)
    cases = [
        # Another root datum, checked before the node set.
        (su4, wt.ParabolicSubset(rd.build_root_datum("A", 3), frozenset()),
         Weight((9, 9))),
        (su4, wt.ParabolicSubset(d, frozenset()), Weight((0, 0, 0))),
        (su4, wt.ParabolicSubset(d, frozenset({1, 2, 3})), Weight((0, 0, 0))),
        (su4, wt.ParabolicSubset(d, frozenset({1})), Weight((0, 0, 0))),
        # Node-set checks come before the weight checks.
        (su4, wt.ParabolicSubset(d, frozenset({1})), Weight((5, 0))),
        (su4, wt.ParabolicSubset(d, frozenset({2})), Weight((5, 0, 0))),
        (su4, wt.ParabolicSubset(d, frozenset({2})), Weight((0, 0))),
        # The weight checks come before an unsupported Levi component.
        (f4, wt.ParabolicSubset(f4.datum, frozenset({2, 3})), Weight((0, 0, 4, 0))),
        (f4, wt.ParabolicSubset(f4.datum, frozenset({2, 3})), Weight((0, 0, 0))),
        (f4, wt.ParabolicSubset(f4.datum, frozenset({2, 3})), Weight((0, 0, 0, 0))),
    ]
    expected = [ValueError] * 9 + [UnsupportedSubdiagramError]
    for (spec, parabolic, weight), error in zip(cases, expected):
        got = _outcome(wt.descend_weight, spec, parabolic, weight)
        assert got == _outcome(reference_descend_weight, spec, parabolic, weight)
        assert got[0] is error


def test_unsupported_descent_raises_a_fresh_error_each_time():
    spec = rd.group("E6", 6, q=4, twist_order=2)
    # Nodes 2..5 of 2E6 form a D4 on which the twist acts with order 2.
    parabolic = wt.ParabolicSubset(spec.datum, frozenset({2, 3, 4, 5}))
    errors = []
    for _ in range(3):
        with pytest.raises(UnsupportedSubdiagramError) as info:
            wt.descend_weight(spec, parabolic, Weight((0,) * 6))
        errors.append(info.value)
    # Distinct instances, and no traceback grows from one call to the next.
    assert len({id(e) for e in errors}) == 3
    assert len({_traceback_depth(e) for e in errors}) == 1
    # descent_bound skips the parabolic and still answers.
    assert bd.descent_bound(spec, Weight((1, 0, 0, 0, 0, 1))) >= 1


def _traceback_depth(exc):
    depth, tb = 0, exc.__traceback__
    while tb is not None:
        depth, tb = depth + 1, tb.tb_next
    return depth


def reference_twist_stable_subsets(datum):
    """Every twist-stable node set, the empty and the full one included, by
    a search over all node sets."""
    for r in range(datum.rank + 1):
        for nodes in itertools.combinations(range(1, datum.rank + 1), r):
            parabolic = wt.ParabolicSubset(datum, frozenset(nodes))
            if parabolic.is_twist_stable():
                yield parabolic


def test_proper_parabolics_are_the_twist_stable_subsets():
    # The oracle ``proper_parabolics`` of the tests, built from the orbits,
    # against the search over every node set.
    for datum in _ORACLE_DATA:
        parabolics = proper_parabolics(datum)
        assert len(set(parabolics)) == len(parabolics)
        assert set(parabolics) == {
            p for p in reference_twist_stable_subsets(datum)
            if 0 < len(p.nodes) < datum.rank}


def test_descent_accepts_an_equal_copy_of_the_datum():
    # build_root_datum("A", 2) and build_root_datum("A", 2, 1) are distinct
    # objects; the cached pieces of one serve a group built on the other.
    copy = build_root_datum("A", 2)
    spec = rd.group("A", 2, q=3)
    assert copy == spec.datum and copy is not spec.datum
    parabolic = wt.ParabolicSubset(copy, frozenset({1}))
    same = wt.ParabolicSubset(spec.datum, frozenset({1}))
    assert (wt.descend_weight(spec, parabolic, Weight((2, 1)))
            == reference_descend_weight(spec, same, Weight((2, 1))))
    wt.levi_pieces(copy)
    assert len(wt.minimal_pim_candidates(spec)) == 2


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter."""
    src = Path(pimbounds.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_builds_no_descent_plan():
    code = ("import pimbounds, pimbounds.cli, pimbounds.bounds\n"
            "from pimbounds import bounds, charlattice, cli, weights\n"
            "print(*(f.cache_info().currsize for f in (\n"
            "    weights._levi_piece, weights._node_orbits,\n"
            "    weights.levi_pieces,\n"
            "    weights._deepest_first, bounds._group_plan,\n"
            "    bounds._torus_step, bounds._independent_step,\n"
            "    bounds._descent_step, charlattice.torus_orbits,\n"
            "    charlattice._alcove_plan, cli.build_parser)))")
    assert _fresh_python(code).split() == ["0"] * 11


def test_descendants_build_no_alcove_plan():
    # One E8(5) weight walks the E8 torus orbit and descends through the
    # plans of its 13 descendant groups, which never read a torus orbit.
    # The E8 orbit cache keeps the one alcove plan.
    code = ("from pimbounds import bounds, charlattice, rootdata\n"
            "from pimbounds.weights import Weight\n"
            "spec = rootdata.group('E8', 8, q=5)\n"
            "bounds.best_bound(spec, Weight((1, 0, 2, 0, 3, 0, 4, 1)))\n"
            "print(charlattice._alcove_plan.cache_info().currsize,\n"
            "      bounds._group_plan.cache_info().currsize,\n"
            "      bounds._group_plan(spec).torus.plan\n"
            "      is charlattice._alcove_plan(spec.datum))")
    assert _fresh_python(code).split() == ["1", "14", "True"]


@pytest.mark.parametrize("family, rank, pieces, parabolics", [
    ("E8", 8, 43, 254), ("E7", 7, 33, 126), ("D", 4, 10, 14)])
def test_levi_pieces_plan_only_one_orbit_node_sets(family, rank, pieces,
                                                   parabolics):
    # Counts that do not depend on the machine: every connected node set of
    # these diagrams is supported, so each one-orbit set is planned once and
    # no other proper parabolic is.
    code = ("from pimbounds import rootdata, weights\n"
            f"datum = rootdata.build_root_datum({family!r}, {rank})\n"
            "print(len(weights.levi_pieces(datum)),\n"
            "      weights._levi_piece.cache_info().currsize,\n"
            "      2 ** weights.twisted_bn_rank(datum) - 2)")
    assert _fresh_python(code).split() == [str(pieces), str(pieces),
                                           str(parabolics)]


def test_levi_pieces_grow_from_connected_node_sets():
    # A20 has 2^20 - 2 proper parabolics and 209 pieces, one per connected
    # proper node set; the pieces are found without listing the parabolics.
    pieces = wt.levi_pieces.__wrapped__(build_root_datum("A", 20))
    assert len(pieces) == 20 * 21 // 2 - 1
    assert [len(p.original_nodes) for p in pieces[:3]] == [1, 1, 2]


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------


def test_socle_trivial_on_borel():
    spec = rd.special_linear(3, 4)
    assert socle_trivial_on_borel(spec, Weight((0, 0)))
    assert socle_trivial_on_borel(spec, Weight((3, 3)))
    assert socle_trivial_on_borel(spec, Weight((0, 3)))
    assert not socle_trivial_on_borel(spec, Weight((1, 3)))
    # Twisted: the pattern must be symmetry-stable.
    tw = rd.special_unitary(4, 4)
    assert socle_trivial_on_borel(tw, Weight((0, 3, 0)))
    assert not socle_trivial_on_borel(tw, Weight((0, 3, 3)))


# ---------------------------------------------------------------------------
# Candidate sieve
# ---------------------------------------------------------------------------


def test_candidates_rank2_prime_groups():
    for family in ("A", "C", "G2"):
        for p in (3, 5):
            spec = rd.group(family, 2, q=p)
            got = sorted(w.coeffs for w in wt.minimal_pim_candidates(spec))
            assert got == [(0, p - 1), (p - 1, 0)], (family, p)


def test_candidates_su4():
    for p in (3, 5):
        spec = rd.special_unitary(4, p)
        got = [w.coeffs for w in wt.minimal_pim_candidates(spec)]
        assert got == [(p - 1, 0, p - 1)]


def test_candidates_triality_d4():
    spec = rd.group("D", 4, q=3, twist_order=3)
    got = [w.coeffs for w in wt.minimal_pim_candidates(spec)]
    assert got == [(2, 0, 2, 2)]


def test_candidates_su5_2():
    spec = rd.special_unitary(5, 2)
    got = [w.coeffs for w in wt.minimal_pim_candidates(spec)]
    assert got == [(1, 0, 0, 1)]


def test_candidates_all_have_trivial_borel_socle():
    for spec in (rd.special_linear(3, 3), rd.group("C", 2, q=5),
                 rd.special_unitary(4, 3), rd.special_unitary(5, 2),
                 rd.group("D", 4, q=3, twist_order=3)):
        for w in wt.minimal_pim_candidates(spec):
            assert socle_trivial_on_borel(spec, w)


def reference_trivial_restriction_allowed(dspec):
    """The hand rule of the sieve before it was descent at value 1: the Levi
    factors on which a trivial restriction was allowed, rank-1 groups over
    the prime field and the linear and unitary rank-2 groups over F_2."""
    d = dspec.datum
    if d.family == "A" and d.rank == 1:
        return dspec.field.exponent == 1
    return d.family == "A" and d.rank == 2 and dspec.q == 2


def reference_candidates(spec):
    """The sieve as it stood before it read coefficients directly: every
    weight through ``descend_weight`` on every proper parabolic, with the
    hand rule of ``reference_trivial_restriction_allowed``."""
    if wt.twisted_bn_rank(spec.datum) < 2:
        raise rd.UnsupportedGroupError(
            f"{spec.describe()} has no proper parabolic above a Borel subgroup")
    st = wt.steinberg_weight(spec)
    ranges = wt.coefficient_ranges(spec)
    survivors = []
    for weight in wt.enumerate_restricted_weights(spec):
        if not any(weight.coeffs) or weight == st:
            continue
        ok = True
        for parabolic in proper_parabolics(spec.datum):
            if all(weight[n] == ranges[n - 1] - 1 for n in parabolic.nodes):
                continue
            descendants = wt.descend_weight(spec, parabolic, weight)
            if not all(not any(d.weight.coeffs)
                       and reference_trivial_restriction_allowed(d.spec)
                       for d in descendants):
                ok = False
                break
        if ok:
            survivors.append(weight)
    return survivors


def brute_force_candidates(spec):
    """Descent at value 1 over every restricted weight: the nonzero,
    non-Steinberg weights whose descendant through the node set of every
    Levi piece has ``best_bound`` 1.  The node set of each orbit of the
    diagram symmetry is descended first, so an unsupported one raises."""
    datum = spec.datum
    if wt.twisted_bn_rank(datum) < 2:
        raise rd.UnsupportedGroupError(
            f"{spec.describe()} has no proper parabolic above a Borel subgroup")
    zero = Weight((0,) * datum.rank)
    for i in range(1, datum.rank + 1):
        wt.descend_weight(spec, wt.ParabolicSubset(
            datum, frozenset(datum.perm_orbit(i))), zero)
    node_sets = [wt.ParabolicSubset(datum, frozenset(
        i + 1 for nodes in piece.indices for i in nodes))
        for piece in wt.levi_pieces(datum)]
    st = wt.steinberg_weight(spec)
    return [weight for weight in wt.enumerate_restricted_weights(spec)
            if any(weight.coeffs) and weight != st
            and all(bd.best_bound(d.spec, d.weight).bound == 1
                    for parabolic in node_sets
                    for d in wt.descend_weight(spec, parabolic, weight))]


def _sieve_outcome(sieve, spec):
    try:
        return [w.coeffs for w in sieve(spec)]
    except ValueError as exc:
        return type(exc), str(exc)


def test_candidates_equal_reference_sieve():
    # The reference examines 6,561, 16,384 and 4,096 weights of the last
    # three groups; the sieve examines their orbit patterns: 256, 1 and 1.
    large = [rd.group("E8", 8, q=3), rd.group("E7", 7, q=4),
             rd.group("E6", 6, q=4, twist_order=2)]
    checked = 0
    for spec in SWEEP + large:
        if wt.twisted_bn_rank(spec.datum) < 2:
            continue
        got = _sieve_outcome(wt.minimal_pim_candidates, spec)
        assert got == _sieve_outcome(reference_candidates, spec), spec.describe()
        checked += 1
    assert checked == 65  # the 81 groups less 19 of relative rank 1, and 3
    # Both large Ree groups meet their unsupported {2, 3} Levi.
    for e in (0, 1):
        got = _sieve_outcome(wt.minimal_pim_candidates,
                             rd.group("F4", 4, suzuki_ree_e=e))
        assert got == (UnsupportedSubdiagramError,
                       "induced symmetry of order 2 on a component of type C "
                       "is outside the toolkit")


def test_candidates_equal_descent_at_value_one():
    checked = 0
    for spec in SWEEP:
        if wt.twisted_bn_rank(spec.datum) < 2:
            continue
        got = _sieve_outcome(wt.minimal_pim_candidates, spec)
        assert got == _sieve_outcome(brute_force_candidates, spec), (
            spec.describe())
        checked += 1
    assert checked == 62


def _grown_candidates():
    """The groups whose candidate lists grew when the hand rule went, with
    their lists.  ²A2(q) for q = 4, 8, 9 has no rule that bounds a weight
    above 1, so a ²A_{2n}(q) keeps every block of its middle orbit
    {n, n+1}; ²A3(p) for p an odd prime has bound 1 at (p-1, 0, p-1), so a
    ²A_{2n+1}(p) with n >= 2 keeps p-1 everywhere but 0 at node n+1."""
    grown = {}
    for q, rank in ((4, 4), (8, 4), (9, 4), (4, 6)):
        side = (q - 1,) * (rank // 2 - 1)
        grown[rd.group("A", rank, q=q, twist_order=2)] = [
            side + middle + side
            for middle in itertools.product(range(q), repeat=2)][:-1]
    for p, rank in ((3, 5), (5, 5), (3, 7)):
        side = (p - 1,) * (rank // 2)
        grown[rd.group("A", rank, q=p, twist_order=2)] = [side + (0,) + side]
    return grown


def test_candidates_that_grew_with_descent_at_value_one():
    # The hand rule of the reference let a Levi piece through only at a
    # zero projection on A1(p), A2(2) or ²A2(2), or at a Steinberg one.  No
    # embedded rule proves these weights' multipliers above 1, so descent at
    # value 1 keeps them.
    for spec, want in _grown_candidates().items():
        assert reference_candidates(spec) == [], spec.describe()
        got = _sieve_outcome(wt.minimal_pim_candidates, spec)
        assert got == want, spec.describe()
        assert got == _sieve_outcome(brute_force_candidates, spec)


def test_candidates_and_bound_on_rank_40():
    # The sieve and the independent-set rule on A40 cost polynomially in
    # the rank: neither builds a table over the 2^40 node sets.
    code = ("from pimbounds import cli\n"
            "cli.main(['candidates', 'A', '40', '--q', '2', '--json'])\n"
            "cli.main(['bound', 'A', '40', '--q', '3', '--weight',\n"
            "          ','.join(['1'] * 40), '--json'])\n")
    out = _fresh_python(code)
    decoder = json.JSONDecoder()
    candidates, end = decoder.raw_decode(out)
    bound, end2 = decoder.raw_decode(out[end:].lstrip())
    assert candidates == {"candidates": [], "count": 0, "group": "A40(q=2)"}
    assert bound["group"] == "A40(q=3)"
    steps = {step["rule"]: step["value"] for step in bound["steps"]}
    assert steps["independent-set"] == 2 ** 20
    assert not out[end:].lstrip()[end2:].strip()


@pytest.mark.parametrize("rank", [8, 12, 16])
def test_sieve_prunes_with_the_small_pieces(rank, monkeypatch):
    # The small Levi pieces are the sieve's pruning.  On A_n(2) the interval
    # pieces that end at a node leave only the zero and the all-ones partial
    # weights, so the sieve asks two verdicts of each A_k(2), k < n, and two
    # more of A2(2) at (1, 0) and (0, 1): 2·rank.  With ``descent_pieces``
    # alone (the two A_{n-1}) it would keep all 2^(n-1) partial weights
    # until the last two nodes and ask 130, 2,050 and 32,770 verdicts on A8,
    # A12 and A16, and ``candidates A 40 --q 2`` would run out of memory.
    best_bound = bd.best_bound
    calls = []

    def counted(spec, weight):
        calls.append(weight)
        return best_bound(spec, weight)

    monkeypatch.setattr(bd, "best_bound", counted)
    assert wt.minimal_pim_candidates(rd.group("A", rank, q=2)) == []
    assert len(calls) == 2 * rank


def test_candidates_need_relative_rank_two():
    with pytest.raises(rd.UnsupportedGroupError):
        wt.minimal_pim_candidates(rd.special_linear(2, 5))
    with pytest.raises(rd.UnsupportedGroupError):
        wt.minimal_pim_candidates(rd.special_unitary(3, 3))


# ---------------------------------------------------------------------------
# Doubling and independence
# ---------------------------------------------------------------------------


def _doubling(spec, weight):
    """The designated parabolic's nodes and whether the factor 2 applies to
    a weight, read from the group plan and checked against the restated
    rule."""
    parabolic, _ = wt._doubling_parabolic(spec)
    pairs = bd._group_plan(spec).escape_pairs
    applies = any(weight.coeffs[i] != weight.coeffs[j] for i, j in pairs)
    assert (parabolic, applies) == reference_doubling(spec, weight)
    return sorted(parabolic.nodes), applies


def test_doubling_unitary_even_ambient():
    spec = rd.special_unitary(4, 3)  # n = 2, k = 0
    # Paired coefficients agree, so the weight escapes.
    assert _doubling(spec, Weight((1, 0, 1))) == ([1, 3], False)
    assert _doubling(spec, Weight((1, 0, 2))) == ([1, 3], True)


def test_doubling_unitary_odd_ambient():
    spec = rd.special_unitary(5, 3)  # rank 4: n = 2, k = 1
    assert _doubling(spec, Weight((1, 2, 0, 1))) == ([1, 4], False)
    assert _doubling(spec, Weight((1, 2, 0, 2))) == ([1, 4], True)


def test_doubling_symplectic_palindrome_escape():
    spec = rd.group("C", 3, q=3)
    assert _doubling(spec, Weight((1, 1, 0))) == ([1, 2], False)
    assert _doubling(spec, Weight((1, 2, 0))) == ([1, 2], True)


def test_doubling_twisted_d():
    spec = rd.group("D", 5, q=2, twist_order=2)
    # (1, 0, 1) is palindromic.
    assert _doubling(spec, Weight((1, 0, 1, 0, 0))) == ([1, 2, 3], False)
    assert _doubling(spec, Weight((1, 1, 0, 0, 0))) == ([1, 2, 3], True)


def test_doubling_out_of_scope():
    for spec in (rd.special_linear(4, 3), rd.group("B", 2, q=3),
                 rd.group("G2", 2, q=3)):
        with pytest.raises(rd.UnsupportedGroupError):
            wt._doubling_parabolic(spec)
        assert bd._group_plan(spec).escape_pairs is None
        assert reference_doubling(spec, wt.steinberg_weight(spec)) is None


def test_independent_violating_set():
    spec = rd.special_linear(6, 4)
    sub = wt.independent_violating_set(spec, Weight((1, 2, 1, 2, 1)))
    nodes = sorted(sub.nodes)
    assert len(nodes) == 3
    assert nodes == [1, 3, 5]
    sub = wt.independent_violating_set(spec, Weight((0, 2, 1, 3, 0)))
    assert sorted(sub.nodes) == [2]  # nodes 1, 5 are at 0 and 4 is at q-1
    sub = wt.independent_violating_set(spec, Weight((0, 0, 0, 0, 0)))
    assert sorted(sub.nodes) == []


def test_independent_violating_set_equals_search():
    # The walk over the size table against the exhaustive search, tie-break
    # included, on every split datum of ranks 2-8: the set depends only on
    # which nodes avoid {0, q-1}, and every such mask gets one weight.
    for datum in cli._iter_small_data():
        if datum.rank < 2:
            continue
        for q in (3, 4):
            spec = GroupSpec(datum, IntegerField(q))
            for mask in range(1 << datum.rank):
                coeffs = tuple(1 + (i + mask) % (q - 2) if mask >> i & 1
                               else (0, q - 1)[(i + mask) % 2]
                               for i in range(datum.rank))
                free = [i + 1 for i in range(datum.rank) if mask >> i & 1]
                got = wt.independent_violating_set(spec, Weight(coeffs))
                assert (tuple(sorted(got.nodes))
                        == largest_independent_set(datum, free)), (
                    spec.describe(), coeffs)


@pytest.mark.parametrize("coeffs", [(9, 9, 9), (1, 2, 3, 4), (1, 2)])
def test_independent_set_checks_the_weight(coeffs):
    # The check and the message of ``best_bound``.
    spec, weight = rd.group("A", 3, q=5), Weight(coeffs)
    with pytest.raises(ValueError) as expected:
        bd.best_bound(spec, weight)
    with pytest.raises(ValueError) as got:
        wt.independent_violating_set(spec, weight)
    assert type(got.value) is type(expected.value) is ValueError
    assert str(got.value) == str(expected.value)


def test_independent_set_needs_split_group():
    with pytest.raises(rd.UnsupportedGroupError):
        wt.independent_violating_set(rd.special_unitary(4, 3), Weight((1, 1, 1)))
