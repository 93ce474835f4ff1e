"""Tests for the bound rules, certificates and the final classification."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random

import pytest

from pimbounds import (
    bounds as bd,
    caseanalysis as ca,
    charlattice as cl,
    cli,
    rootdata as rd,
    weights as wt,
)
from pimbounds.rootdata import GroupSpec, IntegerField, build_root_datum
from pimbounds.weights import Descendant, UnsupportedSubdiagramError, Weight


# ---------------------------------------------------------------------------
# Exact rank-1 multipliers
# ---------------------------------------------------------------------------


def rank_one_oracle(q, m):
    """Independent digit-count reimplementation."""
    p = 2
    while q % p:
        p += 1
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1
    if m == q - 1:
        return 1
    if m == 0:
        return 2 ** k - 1
    digits = [(m // p ** i) % p for i in range(k)]
    return 2 ** sum(d != p - 1 for d in digits)


def test_rank_one_multiplier_small_fields():
    assert bd.rank_one_multiplier(2, 0) == 1  # 2^1 - 1
    assert bd.rank_one_multiplier(2, 1) == 1
    assert bd.rank_one_multiplier(3, 0) == 1
    assert bd.rank_one_multiplier(3, 1) == 2
    assert bd.rank_one_multiplier(4, 0) == 3
    assert bd.rank_one_multiplier(4, 1) == 2  # digits 1,0 -> one digit != p-1
    assert bd.rank_one_multiplier(4, 2) == 2
    assert bd.rank_one_multiplier(9, 4) == 4
    assert bd.rank_one_multiplier(8, 0) == 7


def test_rank_one_multiplier_matches_oracle():
    for q in (2, 3, 4, 5, 8, 9, 25, 27):
        for m in range(q):
            assert bd.rank_one_multiplier(q, m) == rank_one_oracle(q, m)


def test_rank_one_multiplier_rejects_unrestricted():
    with pytest.raises(ValueError):
        bd.rank_one_multiplier(4, 4)
    with pytest.raises(ValueError):
        bd.rank_one_multiplier(4, -1)


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------


def _steps(spec, weight):
    """The steps of ``best_bound`` on one weight, by rule."""
    return {step.rule: step for step in bd.best_bound(spec, weight).steps}


def test_ballard_bound_is_orbit_size():
    spec = rd.group("C", 2, q=4)
    assert _steps(spec, Weight((1, 0)))["torus-orbit"].value == 4
    assert _steps(spec, Weight((3, 0)))["torus-orbit"].value == 1  # 0 mod 3


def test_hc_bound_scope_and_values():
    spec = rd.special_linear(6, 3)
    steps = _steps(spec, Weight((0, 2, 0, 2, 0)))
    assert steps["hc-restriction"].value == 5  # trivial Borel socle -> S_6
    # Out of scope, a nontrivial Borel socle, the zero weight and the
    # Steinberg weight: no restriction step.
    for spec, weight in ((rd.special_linear(3, 3), Weight((1, 0))),
                         (rd.group("D", 5, q=3), Weight((1, 0, 0, 0, 0))),
                         (spec, Weight((1, 0, 0, 0, 0))),
                         (rd.group("E8", 8, q=3), Weight((1,) + (0,) * 7)),
                         (spec, Weight((0,) * 5)),
                         (spec, Weight((2,) * 5))):
        assert "hc-restriction" not in _steps(spec, weight)


# The least degree of a faithful permutation representation of W, which
# the restriction rule once gave on a nontrivial Borel socle: n+1 on A_n,
# 2n on D_n, 27, 28 and 120 on E6, E7 and E8.
_LEAST_PERMUTATION_DEGREE = {"A": lambda n: n + 1, "D": lambda n: 2 * n,
                             "E6": lambda n: 27, "E7": lambda n: 28,
                             "E8": lambda n: 120}


@pytest.mark.parametrize("family, ranks, fields", [
    ("A", range(4, 9), (3, 4, 5, 7, 8, 9)),
    ("A", range(4, 8), (16,)),
    ("D", range(4, 8), (4, 8, 16)),
    ("D", (4, 5), (32,)),
    ("E6", (6,), (3, 4, 5, 7, 8, 9)),
    ("E7", (7,), (3, 4, 5, 7, 8, 9)),
    ("E8", (8,), (3, 4, 5, 7, 8, 9)),
])
def test_nontrivial_orbits_dominate_the_permutation_degree(family, ranks,
                                                           fields):
    # A nontrivial Borel socle means a nonzero torus character theta, whose
    # Weyl orbit the torus-orbit step reports.  Every nontrivial orbit is at
    # least the old nontrivial-socle value, so that value never set a bound.
    for rank in ranks:
        for q in fields:
            scan = cl.orbit_scan(rd.group(family, rank, q=q))
            least = _LEAST_PERMUTATION_DEGREE[family](rank)
            assert scan.min_nontrivial_orbit >= least, (family, rank, q)


def test_independent_set_bound():
    spec = rd.special_linear(6, 4)
    step = _steps(spec, Weight((1, 2, 1, 2, 1)))["independent-set"]
    assert (step.value, step.detail) == (
        8, "2^3 from an independent set of A1 Levi factors")
    assert "independent-set" not in _steps(spec, Weight((0, 0, 0, 0, 0)))
    assert "independent-set" not in _steps(rd.special_linear(2, 4), Weight((1,)))


# ---------------------------------------------------------------------------
# Descent bound
# ---------------------------------------------------------------------------


def test_descent_bound_rank_one_exact():
    spec = rd.special_linear(2, 8)
    assert bd.descent_bound(spec, Weight((0,))) == 7
    assert bd.descent_bound(spec, Weight((7,))) == 1
    assert bd.descent_bound(spec, Weight((3,))) == 2  # digits 1,1,0 -> 2^1


def test_descent_bound_through_levi_factors():
    # SL(4, 8): the weight (3, 0, 0) restricts to SL(2, 8) at node 1 with
    # weight 3, giving 4; the independent set {1} alone gives only 2.
    spec = rd.special_linear(4, 8)
    assert bd.descent_bound(spec, Weight((3, 0, 0))) >= 4


def test_descent_bound_doubling_strengthening():
    # Split C3 over F_4 with a non-palindromic type-A restriction (1, 2):
    # twice the inner bound along the designated parabolic.
    spec = rd.group("C", 3, q=4)
    weight = Weight((1, 2, 0))
    parabolic, applies = reference_doubling(spec, weight)
    assert applies
    inner = max(
        bd.descent_bound(desc.spec, desc.weight)
        for desc in wt.descend_weight(spec, parabolic, weight))
    assert bd.descent_bound(spec, weight) >= 2 * inner


def test_descent_bound_twisted_groups():
    # SU(4, 2): embedded table value 4 for every non-Steinberg weight.
    spec = rd.special_unitary(4, 2)
    assert bd.descent_bound(spec, Weight((1, 0, 0))) >= 4
    assert bd.descent_bound(spec, wt.steinberg_weight(spec)) == 1
    # Triality D4 over F_2: the zero weight of the A1(8) piece on the orbit
    # of the outer nodes has multiplier 2^3 - 1.
    spec = rd.group("D", 4, q=2, twist_order=3)
    assert bd.descent_bound(spec, Weight((0, 0, 0, 0))) == 7


# The groups of types B, C, D and twisted D that have a doubling parabolic.
_DOUBLING_LEAST_RANK = {("B", 1): 3, ("C", 1): 2, ("D", 1): 4, ("D", 2): 4}


def reference_doubling(spec, weight):
    """The factor-2 rule restated: ``(parabolic, applies)`` for the designated
    type-A parabolic, or None when the group has none.

    B, C and D (n-1 nodes) and twisted D (n-2 nodes): the parabolic is the
    first nodes, and the rule applies unless their coefficients form a
    palindrome.  Unitary groups of ambient size 2n+k, k in {0, 1}: the
    parabolic is nodes 1..n-1 and n+k+1..rank, and the rule applies unless
    a_i = a_{n+k+i} for every i < n."""
    d = spec.datum
    if d.family == "A" and d.twist_order == 2:
        n, k = divmod(d.rank + 1, 2)
        if n < 2:
            return None
        nodes = set(range(1, n)) | set(range(n + k + 1, d.rank + 1))
        escapes = all(weight[i] == weight[n + k + i] for i in range(1, n))
    elif d.rank >= _DOUBLING_LEAST_RANK.get((d.family, d.twist_order), math.inf):
        size = d.rank - d.twist_order  # n-1 nodes, n-2 for twisted D
        nodes = set(range(1, size + 1))
        head = weight.coeffs[:size]
        escapes = head == head[::-1]
    else:
        return None
    return wt.ParabolicSubset(d, frozenset(nodes)), not escapes


def reference_components(datum, nodes):
    """Oracle for ``rootdata._components``: the connected components of a
    node set, grown as sets along the nonzero Cartan entries and sorted,
    with no bitmask and nothing of :mod:`pimbounds.rootdata`'s diagram."""
    remaining = set(nodes)
    comps = []
    while remaining:
        comp = {min(remaining)}
        frontier = list(comp)
        while frontier:
            cur = frontier.pop()
            for nb in remaining - comp:
                if datum.cartan[cur - 1][nb - 1]:
                    comp.add(nb)
                    frontier.append(nb)
        remaining -= comp
        comps.append(tuple(sorted(comp)))
    return tuple(sorted(comps))


@functools.lru_cache(maxsize=None)
def proper_parabolics(datum):
    """The twist-stable nonempty proper node sets: the unions of some, but
    not all, orbits of the diagram symmetry on the nodes, with bit k of the
    running mask for the orbit of the k-th least node that starts one."""
    orbits = list(dict.fromkeys(frozenset(datum.perm_orbit(i))
                                for i in range(1, datum.rank + 1)))
    return tuple(
        wt.ParabolicSubset(datum, frozenset(
            n for k, orbit in enumerate(orbits) if mask >> k & 1 for n in orbit))
        for mask in range(1, (1 << len(orbits)) - 1))


def largest_independent_set(datum, candidates):
    """Oracle for ``weights.independent_violating_set`` and the independent
    set table: a largest set of pairwise non-adjacent nodes among
    ``candidates`` (in increasing order), found exhaustively.  Ties are
    broken by the lexicographically smallest node tuple."""
    for r in range(len(candidates), 0, -1):
        for combo in itertools.combinations(candidates, r):
            if all(not datum.cartan[a - 1][b - 1]
                   for a, b in itertools.combinations(combo, 2)):
                return combo
    return ()


def _classify_nodes(datum, comp):
    """``rootdata._classify`` on a connected set of 1-based nodes, with the
    Bourbaki order in 1-based nodes."""
    family, order = rd._classify(datum._neighbours, datum._bonds,
                                 datum.long_nodes,
                                 sum(1 << (n - 1) for n in comp))
    return family, tuple(k + 1 for k in order)


def reference_descend_weight(spec, parabolic, weight):
    """Oracle for descend_weight and the piece projections of the group
    plans: the per-weight descent that classified the Levi components afresh
    on every call, before descent plans."""
    if parabolic.datum is not spec.datum:
        raise ValueError("parabolic subset belongs to a different root datum")
    if not parabolic.nodes:
        raise ValueError("descent needs a nonempty node set")
    if len(parabolic.nodes) == spec.datum.rank:
        raise ValueError("descent needs a proper node set")
    if not parabolic.is_twist_stable():
        raise ValueError("descent needs a twist-stable node set")
    if len(weight.coeffs) != spec.datum.rank:
        raise ValueError("weight length does not match the rank")
    ranges = wt.coefficient_ranges(spec)
    if any(weight.coeffs[i] >= ranges[i] for i in range(spec.datum.rank)):
        raise ValueError("weight is not restricted for this group")
    datum = spec.datum
    comps = reference_components(datum, parabolic.nodes)
    comp_of_node = {}
    for comp in comps:
        for n in comp:
            comp_of_node[n] = comp
    unprocessed = set(comps)
    out = []
    suzuki_ree = isinstance(spec.field, rd.SuzukiReeField)
    for comp in comps:
        if comp not in unprocessed:
            continue
        image = comp_of_node[datum.apply_perm(comp[0])]
        if image == comp:
            unprocessed.discard(comp)
            family, order = _classify_nodes(datum, comp)
            twist = wt._induced_twist(datum, order, family)
            if suzuki_ree:
                if twist == 1:
                    sub = build_root_datum(family, len(order), 1)
                    field = IntegerField(spec.field.p ** (2 * spec.field.e + 1))
                else:
                    if family != "C" or len(order) != 2:
                        raise UnsupportedSubdiagramError(
                            "unexpected twisted component for a Suzuki-Ree group")
                    sub = build_root_datum("B", 2, 2)
                    long_first = sorted(
                        order, key=lambda n: not datum.long_nodes[n - 1])
                    order = tuple(long_first)
                    field = spec.field
                dspec = GroupSpec(sub, field)
            else:
                sub = build_root_datum(family, len(order), twist)
                dspec = GroupSpec(sub, IntegerField(spec.q))
            dweight = Weight(tuple(weight[n] for n in order))
            out.append(Descendant(dspec, dweight, order))
            continue
        orbit = [comp]
        cur = image
        while cur != comp:
            orbit.append(cur)
            cur = comp_of_node[datum.apply_perm(cur[0])]
        for c in orbit:
            unprocessed.discard(c)
        a = len(orbit)
        family, order = _classify_nodes(datum, comp)
        if suzuki_ree:
            if a != 2:
                raise UnsupportedSubdiagramError(
                    "Suzuki-Ree symmetries have order 2 on components")
            multipliers = (1, spec.field.p ** spec.field.e)
            field = IntegerField(spec.field.p ** (2 * spec.field.e + 1))
            if not datum.long_nodes[order[0] - 1]:
                order = tuple(datum.apply_perm(n) for n in order)
        else:
            multipliers = tuple(spec.q ** k for k in range(a))
            field = IntegerField(spec.q ** a)
        coeffs = []
        for n in order:
            total = 0
            node = n
            for mult in multipliers:
                total += mult * weight[node]
                node = datum.apply_perm(node)
            coeffs.append(total)
        sub = build_root_datum(family, len(order), 1)
        out.append(Descendant(GroupSpec(sub, field), Weight(tuple(coeffs)), order))
    return tuple(out)


def reference_descent_bound(spec, weight, memo):
    """The descent bound as it stood before the Levi piece tables: every
    proper parabolic through ``descend_weight``, with a memo of its own."""
    key = (spec.describe(), weight.coeffs)
    if key not in memo:
        memo[key] = _reference_descent_value(spec, weight, memo)
    return memo[key]


def _reference_descent_value(spec, weight, memo):
    if weight == wt.steinberg_weight(spec):
        return 1
    if bd._is_sl2(spec):
        return bd.rank_one_multiplier(spec.q, weight[1])
    table = _reference_table_step(spec, weight)
    best = 1 if table is None else table.value
    if spec.is_split and spec.datum.rank >= 2:
        best = max(best, 2 ** _searched_independent_set_size(spec, weight))
    if not bd._descends(spec):
        return best
    for parabolic in proper_parabolics(spec.datum):
        try:
            descendants = wt.descend_weight(spec, parabolic, weight)
        except rd.UnsupportedGroupError:
            continue
        for desc in descendants:
            best = max(best, reference_descent_bound(desc.spec, desc.weight, memo))
    doubling = reference_doubling(spec, weight)
    if doubling is not None and doubling[1]:
        inner = max(reference_descent_bound(desc.spec, desc.weight, memo)
                    for desc in wt.descend_weight(spec, doubling[0], weight))
        best = max(best, 2 * inner)
    return best


def _reference_table_step(spec, weight):
    """The embedded value for one weight, read from ``known_minimum``: the
    exact multiplier of the 1-PIM when the table records it and the weight
    is zero, else the minimum."""
    table = bd.known_minimum(spec)
    if table is None:
        return None
    if not any(weight.coeffs) and table.zero_weight_value is not None:
        return bd.ChainStep(table.rule, table.zero_weight_value,
                            "embedded exact value for the 1-PIM")
    return bd.ChainStep(table.rule, table.value,
                        "embedded minimum over non-Steinberg modules")


def _searched_independent_set_size(spec, weight):
    q = spec.q
    return len(largest_independent_set(
        spec.datum, [i for i in range(1, spec.datum.rank + 1)
                     if weight[i] not in (0, q - 1)]))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except ValueError as exc:  # UnsupportedGroupError included
        return (type(exc), str(exc))


def test_descent_bound_equals_reference_loop():
    memo = {}
    for spec in SWEEP:
        for w in wt.enumerate_restricted_weights(spec):
            assert (bd.descent_bound(spec, w)
                    == reference_descent_bound(spec, w, memo)), (spec.describe(), w)
    rng = random.Random(20240607)
    for spec in (rd.group("D", 4, q=8), rd.group("E6", 6, q=4)):
        ranges = wt.coefficient_ranges(spec)
        for _ in range(300):
            w = Weight(tuple(rng.randrange(r) for r in ranges))
            assert (bd.descent_bound(spec, w)
                    == reference_descent_bound(spec, w, memo)), (spec.describe(), w)


def test_descent_bound_rejects_bad_weights_as_before():
    cases = [
        (rd.group("D", 4, q=8), Weight((8, 0, 0, 0))),
        (rd.group("D", 4, q=8), Weight((0, 0, 0, 0, 0))),
        (rd.special_unitary(5, 2), Weight((0, 2, 0, 0))),
        (rd.group("D", 4, q=3, twist_order=3), Weight((0, 0, 0, 3))),
    ]
    for spec, weight in cases:
        got = _outcome(bd.descent_bound, spec, weight)
        assert got == _outcome(reference_descent_bound, spec, weight, {})
        assert got[0] is ValueError


def _structure_cases():
    """Every datum of ``verify tables``, every twisted form of it, and the
    Suzuki-Ree forms, each with its kind of field."""
    for datum in cli._iter_small_data():
        yield datum, False
        for twist in (2, 3):
            try:
                twisted = rd.build_root_datum(datum.family, datum.rank, twist)
            except rd.UnsupportedGroupError:
                continue
            suzuki_ree = (datum.family, datum.rank) in (
                ("B", 2), ("G2", 2), ("F4", 4))
            yield twisted, suzuki_ree


def _component_orbits(parabolic):
    """The node sets of the Frobenius orbits of the connected components,
    in the order of their smallest component."""
    datum = parabolic.datum
    out = []
    for comp in reference_components(datum, parabolic.nodes):
        if any(comp[0] in nodes for nodes in out):
            continue
        nodes = set(comp)
        while {datum.apply_perm(n) for n in nodes} - nodes:
            nodes |= {datum.apply_perm(n) for n in nodes}
        out.append(frozenset(nodes))
    return out


def _plan_outcome(parabolic):
    """``(pieces, None)`` for a supported descent plan, ``((), (type,
    message))`` for one that raises."""
    try:
        return wt._descent_plan(parabolic), None
    except rd.UnsupportedGroupError as exc:
        return (), (type(exc), str(exc))


def test_every_levi_piece_is_the_piece_of_its_own_node_set():
    for datum, _ in _structure_cases():
        used = set()
        for parabolic in proper_parabolics(datum):
            pieces, unsupported = _plan_outcome(parabolic)
            singles = [_plan_outcome(wt.ParabolicSubset(datum, nodes))
                       for nodes in _component_orbits(parabolic)]
            assert all(len(s_pieces) == (s_error is None)
                       for s_pieces, s_error in singles)
            errors = [s_error for _, s_error in singles if s_error]
            if unsupported is None:
                assert not errors
                assert pieces == tuple(s_pieces[0] for s_pieces, _ in singles)
                used.update(pieces)
            else:
                assert unsupported == errors[0]
        pieces = wt.levi_pieces(datum)
        assert len(set(pieces)) == len(pieces)
        assert set(pieces) == used, (datum.family, datum.rank, datum.twist_order)


def test_frobenius_orbits_equal_the_component_orbits():
    # The orbit walk against its restatement on every proper parabolic of
    # every structure case.  The Suzuki-Ree flag of a case is read off its
    # datum: twist 2 on a type of ``_SUZUKI_REE_PRIME``, the data on which
    # ``GroupSpec`` takes a Suzuki-Ree field and refuses an integer one.
    for datum, suzuki_ree in _structure_cases():
        assert (datum.twist_order == 2 and (datum.family, datum.rank)
                in rd._SUZUKI_REE_PRIME) is suzuki_ree, datum
        for field in (rd.IntegerField(4), rd.SuzukiReeField(
                rd._SUZUKI_REE_PRIME.get((datum.family, datum.rank), 2), 0)):
            accepted = _outcome(GroupSpec, datum, field)[0] == "value"
            assert accepted is (
                suzuki_ree is isinstance(field, rd.SuzukiReeField)), (datum, field)
        for parabolic in proper_parabolics(datum):
            orbits = [frozenset(i + 1 for i in range(datum.rank) if m >> i & 1)
                      for m in wt._frobenius_orbits(datum, parabolic.mask)]
            assert orbits == _component_orbits(parabolic), parabolic


def reference_levi_pieces(datum):
    """The pieces as found before the one-orbit test: a descent plan for
    every proper parabolic, keeping each plan of exactly one piece."""
    outcomes = (_plan_outcome(p) for p in proper_parabolics(datum))
    return tuple(pieces[0] for pieces, _ in outcomes if len(pieces) == 1)


def test_levi_pieces_equal_the_search_over_every_parabolic():
    cases = list(_structure_cases())
    assert len(cases) == 50
    for datum, _ in cases:
        assert wt.levi_pieces(datum) == reference_levi_pieces(datum), datum


def _descendants(spec, parabolic, weight):
    """``(coefficients, group plan)`` of each descendant, through
    ``reference_descend_weight``, which shares no projection with the
    group plans."""
    return [(d.weight.coeffs, bd._group_plan(d.spec))
            for d in reference_descend_weight(spec, parabolic, weight)]


def _projected(entries, coeffs):
    """``(coefficients, group plan)`` of each piece; a piece reads the table
    of the plan it links."""
    assert all(e.table is e.plan.descent for e in entries)
    return [(e.project(coeffs), e.plan) for e in entries]


def test_piece_projections_equal_descend_weight():
    # Each piece of a group plan (those of ``descent_pieces``) against
    # ``reference_descend_weight`` through the node set of its piece (all
    # the nodes of its Frobenius orbit).  A group that does not descend
    # plans no pieces.
    rng = random.Random(20261018)
    kinds = set()
    for datum, suzuki_ree in _structure_cases():
        if suzuki_ree:
            specs = [rd.GroupSpec(datum, rd.SuzukiReeField(
                3 if datum.family == "G2" else 2, e)) for e in (0, 1)]
        else:
            specs = [rd.GroupSpec(datum, rd.IntegerField(q)) for q in (2, 3, 4)]
        for spec in specs:
            table = bd._group_plan(spec).pieces
            if not bd._descends(spec):
                assert table is None
                continue
            pieces = wt.descent_pieces(datum)
            assert len(table) == len(pieces)
            ranges = wt.coefficient_ranges(spec)
            for piece, entry in zip(pieces, table):
                kinds.add((datum.family, datum.twist_order, len(piece.indices),
                           len(piece.original_nodes)))
                nodes = frozenset(i + 1 for row in piece.indices for i in row)
                parabolic = wt.ParabolicSubset(datum, nodes)
                for _ in range(5):
                    coeffs = tuple(rng.randrange(r) for r in ranges)
                    assert (_projected([entry], coeffs) == _descendants(
                        spec, parabolic, Weight(coeffs))), (spec, nodes, coeffs)
    assert ("A", 1, 1, 1) in kinds
    # Pieces of several components in the twisted groups; the Suzuki-Ree
    # groups do not descend.
    for family, twist in (("A", 2), ("D", 2), ("D", 3), ("E6", 2)):
        assert any(k[:2] == (family, twist) and k[2] > 1 for k in kinds), family


def test_doubling_step_equals_reference_doubling():
    # The plan's escape pairs and doubling pieces against
    # ``reference_doubling`` and ``reference_descend_weight``, on every
    # weight.
    doubling = 0
    for spec in SWEEP:
        plan = bd._group_plan(spec)
        if reference_doubling(spec, wt.steinberg_weight(spec)) is None:
            assert plan.escape_pairs is plan.doubling is None
            continue
        doubling += 1
        for w in wt.enumerate_restricted_weights(spec):
            parabolic, applies = reference_doubling(spec, w)
            escapes = all(w.coeffs[i] == w.coeffs[j]
                          for i, j in plan.escape_pairs)
            assert applies is not escapes, (spec.describe(), w)
            assert (_projected([plan.pieces[plan.doubling]], w.coeffs)
                    == _descendants(spec, parabolic, w)), (spec, w)
    assert doubling == 29


def test_doubling_index_names_the_piece_of_the_doubling_parabolic():
    # The doubling step reuses the value of one piece of plain descent: the
    # piece of its designated parabolic, which is a single Frobenius orbit
    # and one of ``descent_pieces``.
    doubling = 0
    for datum, suzuki_ree in _structure_cases():
        if suzuki_ree:
            continue
        for q in (2, 3, 4):
            spec = rd.GroupSpec(datum, rd.IntegerField(q))
            plan = bd._group_plan(spec)
            try:
                parabolic, _ = wt._doubling_parabolic(spec)
            except rd.UnsupportedGroupError:
                assert plan.doubling is None
                continue
            doubling += 1
            (piece,) = wt._descent_plan(parabolic)
            assert wt.descent_pieces(datum)[plan.doubling] == piece, spec
    assert doubling == 87


def _mask(piece):
    return sum(1 << i for row in piece.indices for i in row)


def _inside(inner, outer):
    """Whether the node set of ``inner`` lies strictly inside ``outer``'s."""
    small, large = _mask(inner), _mask(outer)
    return small != large and small & large == small


def _interval_of(inner, outer, spec, rng):
    """Whether the projection of ``inner`` reads the projection of
    ``outer`` at consecutive nodes, in order or reversed, on random
    restricted weights."""
    _, project_inner = wt._piece_descent(inner, spec)
    _, project_outer = wt._piece_descent(outer, spec)
    ranges = wt.coefficient_ranges(spec)
    n = len(inner.original_nodes)
    places = None
    for _ in range(10):
        coeffs = tuple(rng.randrange(r) for r in ranges)
        got, whole = project_inner(coeffs), project_outer(coeffs)
        found = {(i, step) for i in range(len(whole) - n + 1)
                 for step in (1, -1) if whole[i:i + n][::step] == got}
        places = found if places is None else places & found
    return bool(places)


def test_descent_pieces_drop_only_pieces_inside_split_type_a():
    # Each dropped piece lies strictly inside a piece of split type A and
    # projects to an interval of its diagram; no kept piece does; the kept
    # pieces keep their order; the doubling parabolic's piece is kept.
    rng = random.Random(20261020)
    counts = {}
    for datum, suzuki_ree in _structure_cases():
        pieces = wt.levi_pieces(datum)
        kept = wt.descent_pieces(datum)
        containers = [p for p in pieces if p.datum.family == "A"
                      and p.datum.twist_order == 1]
        assert kept == tuple(p for p in pieces if p in kept)
        for piece in pieces:
            above = [c for c in containers if _inside(piece, c)]
            assert (piece in kept) is not above, (datum, piece)
            if above and not suzuki_ree:
                spec = GroupSpec(datum, IntegerField(3))
                assert all(_interval_of(piece, c, spec, rng) for c in above)
        if not suzuki_ree:
            try:
                parabolic, _ = wt._doubling_parabolic(
                    GroupSpec(datum, IntegerField(2)))
            except rd.UnsupportedGroupError:
                pass
            else:
                assert wt._descent_plan(parabolic)[0] in kept, datum
        counts[datum.family, datum.rank, datum.twist_order] = len(kept)
    assert counts["D", 4, 1] == 3
    assert counts["A", 4, 1] == 2
    assert counts["E7", 7, 1] == 8
    assert counts["E8", 8, 1] == 10


@pytest.mark.parametrize("family, rank, built", [
    ("E8", 8, 10), ("E7", 7, 8), ("D", 4, 3), ("A", 4, 2)])
def test_descent_pieces_build_only_the_kept_pieces(family, rank, built):
    # From an empty piece cache, descent builds only the pieces it keeps.
    datum = build_root_datum(family, rank)
    wt._levi_piece.cache_clear()
    try:
        assert len(wt.descent_pieces.__wrapped__(datum)) == built
        assert wt._levi_piece.cache_info().currsize == built
    finally:
        wt._levi_piece.cache_clear()


def test_descent_pieces_give_the_values_of_every_levi_piece(monkeypatch):
    # Descent over ``descent_pieces`` against the same recursion over every
    # piece of ``levi_pieces``, on all weights of the small groups and on
    # random weights of the larger ones.  E6(3) holds the weights whose
    # values drop when the pieces inside a D5 or A5 are dropped too.
    specs = [(rd.group("E7", 7, q=3), 300), (rd.group("E8", 8, q=2), None),
             (rd.group("E6", 6, q=3), None),
             (rd.group("E6", 6, q=2, twist_order=2), None),
             (rd.group("D", 4, q=3, twist_order=3), None),
             (rd.group("D", 5, q=2, twist_order=2), None),
             (rd.special_unitary(6, 2), None), (rd.group("B", 5, q=4), 300)]
    rng = random.Random(20261021)
    weights = []
    for spec, count in specs:
        if count is None:
            weights += [(spec, w)
                        for w in wt.enumerate_restricted_weights(spec)]
        else:
            ranges = wt.coefficient_ranges(spec)
            weights += [(spec, Weight(tuple(rng.randrange(r) for r in ranges)))
                        for _ in range(count)]
    bd._group_plan.cache_clear()
    pruned = [bd.descent_bound(spec, w) for spec, w in weights]
    monkeypatch.setattr(bd, "descent_pieces", wt.levi_pieces)
    try:
        bd._group_plan.cache_clear()
        every = [bd.descent_bound(spec, w) for spec, w in weights]
    finally:
        monkeypatch.undo()
        bd._group_plan.cache_clear()
    assert pruned == every
    assert len(pruned) == 300 + 256 + 729 + 64 + 81 + 32 + 32 + 300


def _linked_plans(plans):
    """Every group plan reached from ``plans`` through the pieces."""
    seen = set(plans)
    todo = list(plans)
    while todo:
        plan = todo.pop()
        for entry in plan.pieces or ():
            if entry.plan not in seen:
                seen.add(entry.plan)
                todo.append(entry.plan)
    return seen


def test_best_bound_descent_step_equals_descent_bound():
    # best_bound hands its floor (table value or 1, raised by the
    # independent-set step) to the descent over pieces; the Steinberg
    # weight has no descent step, and its descent bound is 1.
    for spec in SWEEP:
        if bd._group_plan(spec).pieces is None:
            continue
        for w in wt.enumerate_restricted_weights(spec):
            steps = {s.rule: s.value for s in bd.best_bound(spec, w).steps}
            assert (steps.get("parabolic-descent", 1)
                    == bd.descent_bound(spec, w)), (spec.describe(), w)


def test_descent_memo_counts_a_fresh_sweep(monkeypatch):
    # The set of descent values computed for the D4(8)-then-A4(8) sweep is
    # the one computed when descent ran through every proper parabolic.  The
    # plans' tables are the memo; the counts come from wrapping the
    # recursion, as ``tools/op_counts.py`` does.
    bd._group_plan.cache_clear()
    descend, value = bd._descend, bd._descent_value
    lookups, misses = [], []

    def counted_descend(coeffs, plan, best):
        lookups.append(len(plan.pieces))
        return descend(coeffs, plan, best)

    def counted_value(coeffs, plan):
        misses.append(coeffs)
        return value(coeffs, plan)

    monkeypatch.setattr(bd, "_descend", counted_descend)
    monkeypatch.setattr(bd, "_descent_value", counted_value)
    specs = (rd.group("D", 4, q=8), rd.group("A", 4, q=8))
    for spec in specs:
        for w in wt.enumerate_restricted_weights(spec):
            bd.best_bound(spec, w)
    plans = _linked_plans([bd._group_plan(spec) for spec in specs])
    # Only the descendants' tables hold values, each computed once (only
    # ``_descend`` calls ``_descent_value`` under ``best_bound``): every
    # weight of A3(8), A2(8) and A1(8), 512 + 64 + 8 = 584.  The two queried
    # groups store none.
    assert len(misses) == sum(len(plan.descent) for plan in plans) == 584
    # One read per piece of ``descent_pieces`` for each non-Steinberg weight
    # of a group with pieces: 4,095 weights of D4(8) with 3 pieces (its
    # three A3), 4,095 of A4(8) with 2 (its two A3), 511 of A3(8) with 2
    # (its two A2) and 63 of A2(8) with 2 (its two A1), so 12,285 + 8,190 +
    # 1,022 + 126 = 21,623.  Every piece of the full ``levi_pieces`` read
    # 80,486.  The doubling step reads no table: it reuses the value of its
    # parabolic's piece.
    assert sum(lookups) == 21623


def test_pieces_of_one_descendant_group_share_its_table():
    # A3(8) is a Levi piece of D4(8) and of A4(8), through several node sets
    # of each; every such piece reads the one table of the A3(8) plan.
    a3 = bd._group_plan(rd.group("A", 3, q=8))
    for spec, count in ((rd.group("D", 4, q=8), 3), (rd.group("A", 4, q=8), 2)):
        entries = [e for e in bd._group_plan(spec).pieces
                   if e.plan.group == a3.group]
        assert len(entries) == count, spec
        assert all(e.plan is a3 and e.table is a3.descent for e in entries)


def test_reset_drops_every_descent_value():
    spec = rd.group("C", 3, q=4)
    weight = Weight((1, 0, 2))
    bd.best_bound(spec, weight)
    old = bd._group_plan(spec)
    assert any(p.descent for p in _linked_plans([old]))
    bd._group_plan.cache_clear()
    plan = bd._group_plan(spec)
    assert plan is not old
    assert all(not p.descent for p in _linked_plans([plan]))
    bd.descent_bound(spec, weight)
    # The value asked for is not stored; the descendants' values are.
    assert not plan.descent
    assert any(p.descent for p in _linked_plans([plan]))


def test_equal_specs_hash_once_and_share_one_plan():
    built = GroupSpec(build_root_datum("D", 4), IntegerField(8))
    named = rd.group("D", 4, q=8)
    assert built is not named and built == named
    assert hash(built) == hash(named) == hash((named.datum, named.field))
    assert bd._group_plan(built) is bd._group_plan(named)
    # ``replace`` builds a new spec, which hashes its own fields.
    other = dataclasses.replace(named, field=IntegerField(4))
    assert other == rd.group("D", 4, q=4)
    assert hash(other) == hash((other.datum, other.field))
    assert bd._group_plan(other) is bd._group_plan(rd.group("D", 4, q=4))
    assert bd._group_plan(other) is not bd._group_plan(named)


def test_short_weight_raises_value_error():
    # Each rule checks the weight before it indexes the independent-set table.
    spec, short = rd.group("D", 4, q=8), Weight((1, 2, 3))
    for rule in (bd.descent_bound, bd.best_bound):
        assert _outcome(rule, spec, short) == (
            ValueError, "weight length does not match the rank")


_LENGTH = "weight length does not match the rank"


_BAD_WEIGHTS = [
    ("SU3(5)", rd.special_unitary(3, 5), (7, 7, 7), _LENGTH),
    ("2G2(e=1)", rd.group("G2", 2, suzuki_ree_e=1), (50,), _LENGTH),
    ("2B2(e=1)", rd.group("B", 2, suzuki_ree_e=1), (50, 9, 9), _LENGTH),
    ("2F4(e=1)", rd.group("F4", 4, suzuki_ree_e=1), (99,), _LENGTH),
    ("SL2(9)", rd.special_linear(2, 9), (9,),
     "weight is not restricted for this group"),
]


@pytest.mark.parametrize("rule, spec, coeffs, message", [
    pytest.param(rule, spec, coeffs, message, id=prefix + name)
    for rule, prefix in ((bd.best_bound, ""), (bd.descent_bound, "descent_bound-"))
    for name, spec, coeffs, message in _BAD_WEIGHTS])
def test_best_bound_checks_the_weight_on_every_group(rule, spec, coeffs,
                                                     message):
    # Groups that are neither split nor descend, and SL(2, q): both public
    # entries check the weight before any rule reads it.
    assert _outcome(rule, spec, Weight(coeffs)) == (ValueError, message)


def test_best_bound_caches_orbit_lengths_per_reduced_point():
    # A coefficient q-1 reads the length cached for 0: a sweep of A3(4) leaves
    # one entry per character mod 3, each equal to its orbit's length.
    spec = rd.group("A", 3, q=4)
    lengths = cl.torus_orbits(spec).sizes
    lengths.clear()
    for w in wt.enumerate_restricted_weights(spec):
        bd.best_bound(spec, w)
    assert len(lengths) == 3 ** 3
    for point, length in lengths.items():
        assert length == len(rd.weyl_orbit(spec.datum, point, 3)), point


def reference_independent_set_sizes(datum):
    """The size of a largest independent node set inside every node set,
    indexed by its bitmask, by the subset recursion that filled the table
    of 2^rank entries before the leaf rule: a largest set inside m leaves
    out the lowest node v of m, or holds v and none of its neighbours."""
    closed = [(1 << i) | nb for i, nb in enumerate(datum._neighbours)]
    size = [0]
    for mask in range(1, 1 << datum.rank):
        low = mask & -mask
        size.append(max(size[mask ^ low],
                        1 + size[mask & ~closed[low.bit_length() - 1]]))
    return size


def test_leaf_rule_equals_the_subset_table():
    # 8,634 node sets in all.
    data = ([("A", n) for n in range(1, 11)]
            + [(fam, n) for fam in ("B", "C") for n in range(2, 11)]
            + [("D", n) for n in range(4, 11)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
    count = 0
    for family, rank in data:
        datum = build_root_datum(family, rank)
        walk = wt._deepest_first(datum)
        want = reference_independent_set_sizes(datum)
        assert [wt._independent_set_size(walk, mask)
                for mask in range(1 << rank)] == want, family
        count += len(want)
    assert count == 8634


def test_independent_set_table_matches_search():
    # The leaf rule against the exhaustive search of
    # ``largest_independent_set``, on every split datum of ranks
    # 2-8 of ``verify tables``; each reachable mask gets one weight, with
    # random coefficients outside {0, q-1} on its nodes and in {0, q-1}
    # elsewhere.
    rng = random.Random(20260607)
    for datum in cli._iter_small_data():
        if datum.rank < 2:
            continue
        for q in (2, 3, 4, 5):
            spec = rd.GroupSpec(datum, rd.IntegerField(q))
            size = bd._group_plan(spec).independent
            inside, outside = (0, q - 1), range(1, q - 1)
            for mask in range(1 << datum.rank) if outside else (0,):
                w = Weight(tuple(
                    rng.choice(outside) if mask >> i & 1 else rng.choice(inside)
                    for i in range(datum.rank)))
                assert size(mask) == _searched_independent_set_size(spec, w), (
                    spec.describe(), w)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def reference_orbit_length(spec, weight, lengths):
    """The torus-orbit length of a weight by breadth-first search, which
    reads neither cache of :mod:`pimbounds.charlattice`.  Each orbit is
    listed once, and its length recorded for its points in ``lengths``."""
    m = max(spec.q - 1, 1)
    point = tuple(c % m for c in weight.coeffs)
    if (spec, point) not in lengths:
        orbit = rd.weyl_orbit(spec.datum, point, m)
        for x in orbit:
            lengths[spec, x] = len(orbit)
    return lengths[spec, point]


def reference_best_bound(spec, weight, memo):
    """``best_bound`` as it stood before group plans: every fact about the
    group read again for each weight, the orbit listed, the independent set
    searched, and descent through every proper parabolic
    (``reference_descent_bound``).  ``memo`` holds the descent values and
    the orbit lengths."""
    if weight == wt.steinberg_weight(spec):
        step = bd.ChainStep("steinberg", 1,
                            "defect-zero module: multiplier exactly 1")
        return bd.BoundCertificate(spec.describe(), weight.coeffs, 1, True,
                                   (step,))
    steps = []
    exact = bd._is_sl2(spec)
    if exact:
        steps.append(bd.ChainStep("rank1-exact",
                                  bd.rank_one_multiplier(spec.q, weight[1]),
                                  "exact rank-1 multiplier from base-p digits"))
    table = _reference_table_step(spec, weight)
    if table is not None:
        steps.append(table)
        exact = exact or table.detail == "embedded exact value for the 1-PIM"
    if spec.is_split:
        steps.append(bd.ChainStep(
            "torus-orbit", reference_orbit_length(spec, weight, memo),
            "Weyl orbit length of the weight reduced modulo q-1"))
        if spec.datum.rank >= 2:
            size = _searched_independent_set_size(spec, weight)
            if size:
                steps.append(bd.ChainStep(
                    "independent-set", 2 ** size,
                    f"2^{size} from an independent set of A1 Levi factors"))
    if (bd._hc_in_scope(spec) and any(weight.coeffs)
            and socle_trivial_on_borel(spec, weight)):
        steps.append(bd.ChainStep(
            "hc-restriction", spec.datum.min_nonlinear_degree,
            "trivial Borel socle: minimal nonlinear Weyl character degree"))
    if bd._descends(spec):
        steps.append(bd.ChainStep(
            "parabolic-descent", reference_descent_bound(spec, weight, memo),
            "recursion through twist-stable parabolics"))
    bound = max((s.value for s in steps), default=1)
    return bd.BoundCertificate(spec.describe(), weight.coeffs, bound, exact,
                               tuple(steps))


def socle_trivial_on_borel(spec, weight):
    """Does the simple module restrict to a Borel subgroup with trivial socle?

    For an integer field size the criterion is purely combinatorial: every
    coefficient lies in {0, q-1} and the coefficient pattern is stable under
    the diagram symmetry.
    """
    if isinstance(spec.field, rd.SuzukiReeField):
        raise rd.UnsupportedGroupError(
            "the Borel-socle criterion is stated for integer field sizes")
    q = spec.q
    coeffs = weight.coeffs
    if any(c not in (0, q - 1) for c in coeffs):
        return False
    return all(coeffs[spec.datum.apply_perm(i) - 1] == coeffs[i - 1]
               for i in range(1, spec.datum.rank + 1))


def test_best_bound_equals_reference():
    specs = SWEEP + [rd.group("D", 4, q=8), rd.group("A", 4, q=8)]
    memo = {}
    expected = [
        [json.dumps(reference_best_bound(spec, w, memo).to_json())
         for w in wt.enumerate_restricted_weights(spec)]
        for spec in specs]
    bd._group_plan.cache_clear()
    for memo_state in ("fresh", "warm"):
        for spec, want in zip(specs, expected):
            got = [json.dumps(bd.best_bound(spec, w).to_json())
                   for w in wt.enumerate_restricted_weights(spec)]
            assert got == want, (memo_state, spec.describe())


def test_certificate_digest_is_pinned():
    # Every certificate of the sweep, D4(8), A4(8) and E6(4), each weight in
    # ``enumerate_restricted_weights`` order, serialised one JSON object per
    # line with sorted keys and hashed as UTF-8.  Re-recorded when the table
    # gained SL(3, 2), SU(3, 2) and Sz(2): 70 certificates changed their
    # bound or exactness and 268 more their descent step.  Re-recorded when
    # the restriction step left the nontrivial Borel socles: 12,708 chains lost
    # that step, and no bound moved.  Re-recorded when it left the zero
    # weight too and the 3D4(2) entry went: 27 more chains changed, 25 of
    # them with a lower bound (the bound digest below names them).
    # Re-recorded when the table gained 2G2(3): its zero weight became exact
    # and its weight (1, 0) gained the table step.
    digest = hashlib.sha256()
    count = 0
    for spec in SWEEP + [rd.group("D", 4, q=8), rd.group("A", 4, q=8),
                         rd.group("E6", 6, q=4)]:
        for w in wt.enumerate_restricted_weights(spec):
            line = json.dumps(bd.best_bound(spec, w).to_json(), sort_keys=True)
            digest.update((line + "\n").encode("utf-8"))
            count += 1
    assert count == 15674
    assert digest.hexdigest() == (
        "3a5205dbfe923094971ca986414b04a842dd499bd3b32f1fc150e050ce0e1736")


def test_bound_digest_is_pinned():
    # The bounds alone, on the weights of the certificate digest: one JSON
    # list [group, weight, bound] per line, hashed as UTF-8.  A change to a
    # chain that moves no bound leaves it as it is.  Re-recorded when the
    # restriction step left the zero weight and the 3D4(2) entry went: the
    # zero weights of A4(2), A5(2), D4(2), D5(2), E6(2), E7(2), A4(3), A5(3),
    # A4(4) and E6(4) and all 15 non-Steinberg weights of 3D4(2) fell.
    digest = hashlib.sha256()
    for spec in SWEEP + [rd.group("D", 4, q=8), rd.group("A", 4, q=8),
                         rd.group("E6", 6, q=4)]:
        for w in wt.enumerate_restricted_weights(spec):
            line = json.dumps([spec.describe(), list(w.coeffs),
                               bd.best_bound(spec, w).bound])
            digest.update((line + "\n").encode("utf-8"))
    assert digest.hexdigest() == (
        "ec9799766c270a5326605348fbe7df5cb6f4d8a5b93fdb83f60c710b3b2d9f7d")


def test_certificate_steinberg():
    spec = rd.special_linear(3, 5)
    cert = bd.best_bound(spec, wt.steinberg_weight(spec))
    assert cert.bound == 1 and cert.exact
    assert cert.steps[0].rule == "steinberg"


def test_certificate_rank_one_exact():
    cert = bd.best_bound(rd.special_linear(2, 9), Weight((0,)))
    assert cert.bound == 3 and cert.exact


def test_certificate_records_chain():
    spec = rd.special_linear(6, 4)
    cert = bd.best_bound(spec, Weight((1, 2, 1, 2, 1)))
    rules = [s.rule for s in cert.steps]
    assert "torus-orbit" in rules
    assert "independent-set" in rules
    assert "parabolic-descent" in rules
    assert cert.bound == max(s.value for s in cert.steps)
    blob = cert.to_json()
    assert blob["bound"] == cert.bound
    assert len(blob["steps"]) == len(cert.steps)


def test_certificate_soundness_against_rank_one_exact():
    # The generic machinery must never overshoot an exactly-known value.
    for q in (2, 3, 4, 5, 8, 9, 25, 27, 125):
        spec = rd.special_linear(2, q)
        for m in range(q):
            cert = bd.best_bound(spec, Weight((m,)))
            assert cert.bound == bd.rank_one_multiplier(q, m)


def test_certificate_soundness_against_known_minima():
    # For groups with a known minimum value, every non-Steinberg certified
    # bound must be <= that value and the minimum must be achieved as a bound.
    cases = [
        (rd.special_unitary(4, 2), 4),
        (rd.special_unitary(5, 2), 5),
        (rd.group("G2", 2, q=2), 5),
        (rd.group("C", 2, q=2), 3),
        # For Sp(4, 3) the 1-PIM has exact multiplier 2, below the minimum 3
        # holding for every other non-Steinberg weight.
        (rd.group("C", 2, q=3), 2),
    ]
    for spec, minimum in cases:
        st = wt.steinberg_weight(spec)
        bounds = []
        for w in wt.enumerate_restricted_weights(spec):
            if w == st:
                continue
            bounds.append(bd.best_bound(spec, w).bound)
        assert min(bounds) == minimum


def test_known_minimum_sp4_3_zero_weight():
    spec = rd.group("C", 2, q=3)
    cert = bd.best_bound(spec, Weight((0, 0)))
    assert cert.bound == 2 and cert.exact
    cert = bd.best_bound(spec, Weight((1, 0)))
    assert cert.bound >= 3


def test_triality_d4_over_f2_has_no_embedded_minimum():
    # Without a table entry the bounds come from descent alone.  They stay
    # below the upper bound 8 that St (x) L(mu) gives at the three weights
    # where the old entry certified 15.
    spec = rd.group("D", 4, q=2, twist_order=3)
    assert bd.known_minimum(spec) is None
    for coeffs, bound in (((0, 1, 1, 1), 2), ((1, 1, 0, 1), 2),
                          ((1, 1, 1, 0), 2), ((1, 0, 1, 1), 1),
                          ((0, 0, 0, 0), 7)):
        assert bd.best_bound(spec, Weight(coeffs)).bound == bound, coeffs


def test_known_minimum_b2_canonicalised_to_c2():
    assert bd.known_minimum(rd.group("B", 2, q=3)).value == 3


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify(spec):
    return bd.classify_dim_equal_sylow(spec)


_ONE_PIM_REASON = ("the projective cover of the trivial module has "
                   "multiplier 1 (embedded exact value for the 1-PIM)")
_RANK_ONE_REASON = ("the projective cover of the trivial module has "
                    "multiplier 1 (exact rank-1 multiplier from base-p "
                    "digits)")


def test_classification_yes_cases():
    for p in (2, 3, 7):
        v = classify(rd.special_linear(2, p))
        assert (v.answer, v.reasons, v.witnesses) == (
            "yes", (_RANK_ONE_REASON,), ((0,),))
    for spec in (rd.special_linear(3, 2), rd.special_unitary(3, 2),
                 rd.group("B", 2, suzuki_ree_e=0),
                 rd.group("G2", 2, suzuki_ree_e=0)):
        v = classify(spec)
        assert (v.answer, v.reasons, v.witnesses) == (
            "yes", (_ONE_PIM_REASON,), ((0, 0),)), spec.describe()


@pytest.mark.parametrize("spec, order, dims", [
    (rd.special_linear(3, 2), 168,
     {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 8}),
    (rd.special_unitary(3, 2), 216,
     {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 8}),
    (rd.group("B", 2, suzuki_ree_e=0), 20, {(0, 0): 1, (0, 1): 4}),
], ids=["SL3(2)", "SU3(2)", "Sz(2)"])
def test_table_entries_meet_the_counting_identity(spec, order, dims):
    # |G|_{p'} is the sum of dim L(lambda) * c(lambda) over the restricted
    # weights.  Every certified bound is at most c, so a sum of bounds that
    # reaches |G|_{p'} shows that each bound is the exact multiplier.
    weights = list(wt.enumerate_restricted_weights(spec))
    assert sorted(dims) == sorted(w.coeffs for w in weights)
    assert dims[wt.steinberg_weight(spec).coeffs] == wt.steinberg_dimension(spec)
    total = sum(dims[w.coeffs] * bd.best_bound(spec, w).bound for w in weights)
    assert total == order // wt.steinberg_dimension(spec)
    assert bd.best_bound(spec, Weight((0, 0))).exact


def test_classification_no_cases():
    assert classify(rd.special_linear(2, 4)).answer == "no"
    assert classify(rd.special_linear(3, 5)).answer == "no"
    assert classify(rd.special_linear(3, 9)).answer == "no"
    assert classify(rd.special_unitary(3, 5)).answer == "no"
    assert classify(rd.special_unitary(4, 2)).answer == "no"
    assert classify(rd.special_unitary(4, 3)).answer == "no"
    assert classify(rd.special_unitary(5, 2)).answer == "no"
    assert classify(rd.group("D", 4, q=5, twist_order=3)).answer == "no"
    assert classify(rd.group("C", 2, q=2)).answer == "no"
    assert classify(rd.group("C", 2, q=3)).answer == "no"
    assert classify(rd.group("C", 2, q=9)).answer == "no"
    assert classify(rd.group("B", 3, q=3)).answer == "no"
    assert classify(rd.group("F4", 4, q=3)).answer == "no"
    assert classify(rd.group("G2", 2, q=7)).answer == "no"
    assert classify(rd.group("G2", 2, suzuki_ree_e=1)).answer == "no"
    assert classify(rd.group("B", 2, suzuki_ree_e=1)).answer == "no"
    assert classify(rd.group("F4", 4, suzuki_ree_e=0)).answer == "no"
    assert classify(rd.special_linear(6, 3)).answer == "no"


@pytest.mark.parametrize("spec", [
    # Outside the sweep, each undecided before the sieve was read.
    rd.special_linear(4, 7), rd.group("B", 3, q=5), rd.group("B", 6, q=3),
    rd.group("D", 6, q=5), rd.group("F4", 4, q=25), rd.group("G2", 2, q=49),
    rd.group("B", 8, q=9), rd.group("C", 5, q=2),
    # Outside the sweep, each "no" before through the restriction scope.
    rd.group("E8", 8, q=3), rd.group("E8", 8, q=16),
    rd.special_linear(21, 4), rd.group("E7", 7, q=8),
], ids=lambda spec: spec.describe())
def test_classification_no_by_the_sieve(spec):
    zero = bd.best_bound(spec, Weight((0,) * spec.datum.rank))
    assert zero.bound >= 2
    assert classify(spec).reasons == (_route_reason(
        f"candidate sieve over {len(wt.minimal_pim_candidates(spec))} "
        "candidates", spec),)


def test_classification_no_by_the_table_before_the_sieve(monkeypatch):
    # The embedded minimum 14 of 2F4(2) bounds every other weight, so the
    # sieve, which raises on this group, is never run.
    spec = rd.group("F4", 4, suzuki_ree_e=0)
    with pytest.raises(UnsupportedSubdiagramError):
        wt.minimal_pim_candidates(spec)

    def unreachable(spec):
        raise AssertionError("the sieve ran")

    monkeypatch.setattr(bd, "minimal_pim_candidates", unreachable)
    v = classify(spec)
    assert (v.answer, v.reasons) == ("no", (
        "small-group-table: every other non-Steinberg weight has bound >= 2, "
        "and the zero weight has bound 14",))


def test_classification_undecided_cases():
    # The sieve is unsupported: relative rank 1 with no embedded minimum,
    # and a Levi piece the toolkit does not support.
    for spec, error in ((rd.special_unitary(3, 4), rd.UnsupportedGroupError),
                        (rd.group("F4", 4, suzuki_ree_e=1),
                         UnsupportedSubdiagramError)):
        with pytest.raises(error):
            wt.minimal_pim_candidates(spec)
        assert classify(spec).answer == "undecided"
    # No proved bound of at least 2 at the zero weight.
    assert classify(rd.group("D", 4, q=2, twist_order=3)).answer == "undecided"
    assert classify(rd.special_linear(5, 2)).answer == "undecided"
    assert classify(rd.group("E8", 8, q=2)).answer == "undecided"


def test_classification_json():
    blob = classify(rd.special_linear(2, 7)).to_json()
    assert blob["answer"] == "yes"
    assert blob["witnesses"] == [[0]]


# ---------------------------------------------------------------------------
# Classification against its reference and against the bounds
# ---------------------------------------------------------------------------


def sweep_specs():
    """81 groups with 3,386 restricted weights in all: small fields of every
    family, so each "yes", each source of a "no" and many "undecided"
    groups occur."""
    split = (
        [("A", 1, q) for q in (2, 3, 4, 5, 7, 8, 9, 25, 27)]
        + [("A", 2, q) for q in (2, 3, 4, 5, 7, 9)]
        + [("A", 3, q) for q in (2, 3, 4, 5)]
        + [("A", 4, q) for q in (2, 3, 4)] + [("A", 5, q) for q in (2, 3)]
        + [("B", 2, q) for q in (2, 3, 5)]
        + [("C", 2, q) for q in (2, 3, 4, 5, 7, 9)]
        + [(fam, 3, q) for fam in ("B", "C") for q in (2, 3, 4)]
        + [("C", 4, 2), ("C", 4, 3), ("B", 4, 2)]
        + [("D", 4, 2), ("D", 4, 3), ("D", 5, 2), ("F4", 4, 2), ("F4", 4, 3),
           ("E6", 6, 2), ("E7", 7, 2)]
        + [("G2", 2, q) for q in (2, 3, 4, 5, 7)]
    )
    twisted = (
        [("A", 2, q, 2) for q in (2, 3, 4, 5, 7)]
        + [("A", 3, q, 2) for q in (2, 3, 4, 5)]
        + [("A", 4, 2, 2), ("A", 4, 3, 2), ("A", 5, 2, 2), ("A", 6, 2, 2)]
        + [("D", 4, 2, 2), ("D", 4, 3, 2), ("D", 5, 2, 2), ("E6", 6, 2, 2)]
        + [("D", 4, q, 3) for q in (2, 3, 4)]
    )
    suzuki_ree = [("B", 2, e) for e in (0, 1, 2)] + [
        ("G2", 2, 0), ("G2", 2, 1), ("F4", 4, 0), ("F4", 4, 1)]
    return (
        [rd.group(fam, rank, q=q) for fam, rank, q in split]
        + [rd.group(fam, rank, q=q, twist_order=t)
           for fam, rank, q, t in twisted]
        + [rd.group(fam, rank, suzuki_ree_e=e) for fam, rank, e in suzuki_ree]
    )


SWEEP = sweep_specs()


def reference_classify(spec):
    """The classification as it stood before it read ``known_minimum`` and
    the rule scopes: every minimum restated in a branch of its own."""
    d = spec.datum
    group_name = spec.describe()

    def verdict(answer, reasons, witnesses=()):
        return bd.SylowDimensionVerdict(group_name, answer, tuple(reasons),
                                        tuple(witnesses))

    if isinstance(spec.field, rd.SuzukiReeField):
        if d.family == "G2":
            if spec.field.e == 0:
                return verdict("yes", [
                    "the smallest Ree group of type G2 is the automorphism "
                    "group of SL(2, 8); its 1-PIM has dimension |G|_p",
                ], witnesses=[(0, 0)])
            outcome = ca.ree_verify(spec.field.e)
            return verdict("no", [
                f"exhaustive decomposition analysis: {outcome.outcome} "
                f"({outcome.candidates_considered} candidates eliminated)",
            ])
        if d.family == "B":
            if spec.field.q_squared > 2:
                return verdict("no", ["every non-Steinberg multiplier is >= 4"])
            return verdict("undecided",
                           ["the smallest Suzuki group is solvable; "
                            "no evidence embedded"])
        if d.family == "F4":
            if spec.field.e == 0:
                return verdict("no", ["every non-Steinberg multiplier is >= 14"])
            return verdict("undecided", ["no evidence embedded"])

    q = spec.q
    p, k = rd.factor_prime_power(q)
    fam, rank, twist = d.family, d.rank, d.twist_order

    if fam == "A" and rank == 1 and twist == 1:
        if k == 1:
            return verdict("yes", [
                "for SL(2, p) the projective cover of the trivial module has "
                "multiplier 2^1 - 1 = 1",
            ], witnesses=[(0,)])
        return verdict("no", [
            "exact rank-1 values: every non-Steinberg multiplier is >= 2 "
            "once the field is a proper extension",
        ])
    if fam == "A" and rank == 2 and twist == 1:
        if q == 2:
            return verdict("yes", [
                "for SL(3, 2) the projective cover of the trivial module has "
                "dimension 8 = |G|_p (this group is also the projective "
                "special linear group of degree 2 over F_7)",
            ], witnesses=[(0, 0)])
        if k == 1:
            return verdict("no", ["every non-Steinberg multiplier is >= 2"])
        return verdict("undecided", ["no evidence embedded"])
    if fam == "A" and rank == 2 and twist == 2:
        if k == 1 and p > 2:
            return verdict("no", ["every non-Steinberg multiplier is >= 3"])
        return verdict("undecided", ["no evidence embedded"])
    if fam == "A" and rank == 3 and twist == 2:
        if q == 2:
            return verdict("no", ["every non-Steinberg multiplier is >= 4"])
        if k == 1 and p > 2:
            outcome = ca.u4_verify(p)
            return verdict("no", [
                f"exhaustive decomposition analysis: {outcome.outcome} "
                f"({outcome.candidates_considered} candidates eliminated)",
            ])
        return verdict("undecided", ["no evidence embedded"])
    if fam == "A" and rank == 4 and twist == 2 and q == 2:
        return verdict("no", ["every non-Steinberg multiplier is >= 5"])
    if fam == "D" and rank == 4 and twist == 3:
        if q == 2:
            return verdict("no", ["every non-Steinberg multiplier is >= 15"])
        if k == 1 and p > 2:
            outcome = ca.d4_verify(p)
            return verdict("no", [
                f"cyclotomic divisibility analysis: {outcome.outcome}",
            ])
        return verdict("undecided", ["no evidence embedded"])
    if (fam == "C" or (fam == "B" and rank == 2)) and rank == 2 and twist == 1:
        if q in (2, 3) or (k == 1 and p > 3):
            return verdict("no", ["every non-Steinberg multiplier is >= 2"])
        return verdict("undecided", ["no evidence embedded"])
    if fam == "G2" and twist == 1:
        if q == 2 or (k == 1 and p > 2):
            return verdict("no", ["every non-Steinberg multiplier is >= 5"
                                  if q == 2 else
                                  "every non-Steinberg multiplier is >= 6"])
        return verdict("undecided", ["no evidence embedded"])
    hc_scope = (
        (fam == "A" and rank >= 4 and twist == 1)
        or (fam == "D" and rank >= 4 and twist == 1 and q % 2 == 0)
        or (fam in ("E6", "E7", "E8") and twist == 1)
    )
    if hc_scope:
        return verdict("no", [
            "the restriction bound gives multiplier >= 2 for every "
            "non-Steinberg restricted weight",
        ])
    return verdict("undecided", ["no evidence embedded"])


# The reference restated these minima as 2; the table and ``bound`` say 3.
_REASONS_CORRECTED = {"B2(q=2)", "B2(q=5)", "C2(q=2)", "C2(q=5)", "C2(q=7)"}
# The table records a 1-PIM of multiplier 1 for SU(3, 2) and Sz(2), which
# the reference left undecided.
_ANSWERS_SETTLED = {"2A2(q=2)", "2B2(q^2=2)"}
# The reference gave these "yes" answers reasons of their own; they now
# come from the exact bound 1 at the zero weight.
_REASONS_FROM_CERTIFICATE = {
    "A2(q=2)": _ONE_PIM_REASON, "2G2(q^2=3)": _ONE_PIM_REASON,
    **{f"A1(q={p})": _RANK_ONE_REASON for p in (2, 3, 5, 7)}}
# The reference's "no" for these rested on the restriction step at the zero
# weight, which has no proof there, and for 3D4(2) on a table entry with no
# source; their zero weights now have bound 1 in the split groups and 7 in
# 3D4(2).
_ANSWERS_UNSETTLED = {"A4(q=2)", "A5(q=2)", "D4(q=2)", "D5(q=2)", "E6(q=2)",
                      "E7(q=2)", "3D4(q=2)"}
# The reference left these undecided; the candidate sieve keeps no weight
# of bound 1 and the zero weight has bound >= 2.
_ANSWERS_FROM_SIEVE = {
    "A2(q=4)", "A2(q=9)", "A3(q=3)", "A3(q=4)", "A3(q=5)", "C2(q=4)",
    "C2(q=9)", "B3(q=2)", "B3(q=3)", "B3(q=4)", "C3(q=2)", "C3(q=3)",
    "C3(q=4)", "C4(q=2)", "C4(q=3)", "B4(q=2)", "D4(q=3)", "F4(q=2)",
    "F4(q=3)", "G2(q=4)", "2A3(q=4)", "2A4(q=3)", "2A5(q=2)", "2A6(q=2)",
    "2D4(q=2)", "2D4(q=3)", "2D5(q=2)", "2E6(q=2)", "3D4(q=4)"}
_UNDECIDED = {"A3(q=2)", "A4(q=2)", "A5(q=2)", "D4(q=2)", "D5(q=2)",
              "E6(q=2)", "E7(q=2)", "2A2(q=4)", "3D4(q=2)", "2F4(q^2=8)"}


def _route_reason(route, spec):
    """The reason of a "no" read off the certified bounds."""
    zero = bd.best_bound(spec, Weight((0,) * spec.datum.rank))
    return (f"{route}: every other non-Steinberg weight has bound >= 2, and "
            f"the zero weight has bound {zero.bound}")


def _route(verdict):
    """The route of a "no": a case analysis, the rule that bounds every
    other weight at once, or the candidate sieve."""
    reason = verdict.reasons[0]
    if reason.startswith(("exhaustive decomposition analysis:",
                          "cyclotomic divisibility analysis:")):
        return "case analysis"
    if reason.startswith("candidate sieve over "):
        return "sieve"
    return "rank-1 or embedded minimum"


def test_sweep_size():
    assert len(SWEEP) == 81
    assert sum(wt.restricted_weight_count(spec) for spec in SWEEP) == 3386


def test_sweep_answers():
    verdicts = [classify(spec) for spec in SWEEP]
    answers = collections.Counter(v.answer for v in verdicts)
    assert answers == {"no": 63, "undecided": 10, "yes": 8}
    assert {v.group for v in verdicts if v.answer == "undecided"} == _UNDECIDED
    routes = collections.Counter(_route(v) for v in verdicts if v.answer == "no")
    assert routes == {"case analysis": 4, "rank-1 or embedded minimum": 27,
                      "sieve": 32}


def test_classification_matches_reference():
    for spec in SWEEP:
        got, ref = classify(spec), reference_classify(spec)
        name = spec.describe()
        if name in _ANSWERS_SETTLED:
            assert (ref.answer, ref.witnesses) == ("undecided", ())
            assert (got.answer, got.reasons, got.witnesses) == (
                "yes", (_ONE_PIM_REASON,), ((0, 0),))
            continue
        if name in _ANSWERS_UNSETTLED:
            assert ref.answer == "no"
            assert (got.answer, got.reasons) == (
                "undecided", ("no evidence embedded",)), name
            continue
        if name in _ANSWERS_FROM_SIEVE:
            assert (ref.answer, ref.witnesses) == ("undecided", ())
            assert (got.answer, got.witnesses) == ("no", ()), name
            assert _route(got) == "sieve", name
            continue
        assert (got.answer, got.witnesses) == (ref.answer, ref.witnesses), name
        minimum = ref.reasons[0].removeprefix(
            "every non-Steinberg multiplier is >= ")
        if name in _REASONS_FROM_CERTIFICATE:
            assert ref.reasons != got.reasons
            assert got.reasons == (_REASONS_FROM_CERTIFICATE[name],)
        elif ref.reasons[0].startswith("the restriction bound"):
            assert got.reasons == (
                _route_reason("candidate sieve over 0 candidates", spec),)
        elif ref.reasons[0].startswith("exact rank-1 values"):
            assert got.reasons == (_route_reason("rank1-exact", spec),)
        elif minimum != ref.reasons[0]:
            # The reference restated the table's least value; the reason
            # names the table's rule and the zero weight's bound.
            table = bd.known_minimum(spec)
            least = min(table.value, table.zero_weight_value or table.value)
            if name in _REASONS_CORRECTED:
                assert (minimum, least) == ("2", 3), name
            else:
                assert least == int(minimum), name
            assert got.reasons == (_route_reason(table.rule, spec),)
        else:
            assert got.reasons == ref.reasons, name


# "no" from an exhaustive case analysis, while ``best_bound`` stays at 1 on
# one non-Steinberg weight: (p-1, 0, p-1), (2, 0, 2, 2) and (0, 0).
_CASE_ANALYSIS_GAP = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2a: the case analyses do not feed "
                        "best_bound")
_GAP_GROUPS = {"2A3(q=3)", "2A3(q=5)", "3D4(q=3)", "2G2(q^2=27)"}


@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=spec.describe(),
                 marks=[_CASE_ANALYSIS_GAP] if spec.describe() in _GAP_GROUPS
                 else [])
    for spec in SWEEP])
def test_classification_agrees_with_bounds(spec):
    verdict = classify(spec)
    for witness in verdict.witnesses:
        assert bd.best_bound(spec, Weight(witness)).bound == 1, witness
    if verdict.answer == "no":
        st = wt.steinberg_weight(spec)
        low = [w.coeffs for w in wt.enumerate_restricted_weights(spec)
               if w != st and bd.best_bound(spec, w).bound < 2]
        assert low == []
