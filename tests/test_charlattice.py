"""Tests for torus-character orbits and mod-l reflection representations."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from pimbounds import charlattice as cl, rootdata as rd, weights as wt


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def test_rank_one_orbit_is_sign_pair():
    spec = rd.special_linear(2, 4)  # modulus 3
    orb = cl.orbit(spec, (1,))
    assert orb == frozenset({(1,), (2,)})


def brute_force_matrix_group(datum):
    """All Weyl elements as matrices, by closure (small groups only)."""
    n = datum.rank
    gens = rd.reflection_matrices(datum)

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))

    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                prod = mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def test_c2_orbit_against_brute_force_matrix_action():
    spec = rd.group("C", 2, q=4)
    group = brute_force_matrix_group(spec.datum)
    assert len(group) == 8
    beta = (1, 0)
    m = 3
    images = {tuple(sum(row[k] * beta[k] for k in range(2)) % m for row in mat)
              for mat in group}
    assert cl.orbit(spec, beta) == frozenset(images)
    assert len(images) == 4


def test_orbit_scan_c2_q4():
    scan = cl.orbit_scan(rd.group("C", 2, q=4))
    assert scan.min_nontrivial_orbit == 4
    assert scan.fixed_points == ((0, 0),)
    assert sum(size * count for size, count in scan.orbit_size_histogram) == 9


def test_orbit_scan_vacuous_for_q2():
    scan = cl.orbit_scan(rd.special_linear(3, 2))
    assert scan.vacuous
    assert scan.total_points == 1
    assert scan.min_nontrivial_orbit is None


def test_orbit_scan_budget():
    with pytest.raises(cl.BudgetExceededError):
        cl.orbit_scan(rd.group("E8", 8, q=101), budget=100)


def test_orbit_requires_split_group():
    with pytest.raises(rd.UnsupportedGroupError):
        cl.orbit(rd.special_unitary(4, 3), (1, 0, 0))


NON_SPLIT = (
    rd.special_unitary(4, 3),
    rd.group("D", 4, q=9, twist_order=3),
    rd.group("E6", 6, q=4, twist_order=2),
    rd.group("B", 2, suzuki_ree_e=1),
    rd.group("G2", 2, suzuki_ree_e=1),
    rd.group("F4", 4, suzuki_ree_e=1),
)


@pytest.mark.parametrize("spec", NON_SPLIT, ids=lambda s: s.describe())
def test_twisted_and_suzuki_ree_orbits_are_unsupported(spec):
    beta = (1,) + (0,) * (spec.datum.rank - 1)
    with pytest.raises(rd.UnsupportedGroupError):
        cl.orbit(spec, beta)
    with pytest.raises(rd.UnsupportedGroupError):
        cl.orbit_size(spec, beta)
    with pytest.raises(rd.UnsupportedGroupError):
        cl.orbit_scan(spec)


@pytest.mark.parametrize("spec", NON_SPLIT, ids=lambda s: s.describe())
def test_torus_character_of_a_non_split_group_is_unsupported(spec):
    m = spec.q - 1 if not spec.is_suzuki_ree else 2
    char = cl.TorusCharacter((1,) + (0,) * (spec.datum.rank - 1), m)
    for compute in (cl.orbit, cl.orbit_size):
        with pytest.raises(rd.UnsupportedGroupError):
            compute(spec, char)


@pytest.mark.parametrize("modulus", (1, 2, 7))
def test_torus_character_modulus_must_be_q_minus_one(modulus):
    spec = rd.group("A", 2, q=4)
    char = cl.TorusCharacter((1, 0), modulus)
    for compute in (cl.orbit, cl.orbit_size):
        with pytest.raises(ValueError, match="modulus"):
            compute(spec, char)
    assert cl.orbit_size(spec, cl.TorusCharacter((1, 0), 3)) == 3
    # For q = 2 the modulus is 1, as for a weight reduced mod q-1.
    assert cl.orbit_size(rd.group("A", 2, q=2), cl.TorusCharacter((1, 0), 1)) == 1


@pytest.mark.parametrize("coords", ((1,), (1, 0, 0)))
def test_torus_character_length_must_be_the_rank(coords):
    spec = rd.group("A", 2, q=4)
    for compute in (cl.orbit, cl.orbit_size):
        with pytest.raises(ValueError, match="rank"):
            compute(spec, cl.TorusCharacter(coords, 3))


def test_sl3_4_fixed_points_only_zero():
    scan = cl.orbit_scan(rd.special_linear(3, 4))
    assert scan.fixed_points == ((0, 0),)


def test_steinberg_character_is_trivial():
    spec = rd.special_linear(4, 5)
    beta = cl.character_from_weight(spec, (4, 4, 4))
    assert beta.is_trivial()
    assert cl.orbit_size(spec, (4, 4, 4)) == 1


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("A", 2, 4), ("A", 2, 5), ("C", 2, 4), ("C", 2, 5),
                        ("A", 3, 3), ("G2", 2, 4)]),
       st.data())
def test_orbit_size_divides_weyl_order(params, data):
    family, rank, q = params
    spec = rd.group(family, rank, q=q)
    m = q - 1
    beta = tuple(data.draw(st.integers(0, m - 1)) for _ in range(rank))
    size = cl.orbit_size(spec, beta)
    assert spec.datum.weyl_order % size == 0


def test_orbit_partition_covers_everything():
    spec = rd.group("G2", 2, q=5)
    scan = cl.orbit_scan(spec)
    total = sum(size * count for size, count in scan.orbit_size_histogram)
    assert total == scan.total_points == 16


# ---------------------------------------------------------------------------
# Closed-form orbit sizes against enumeration
# ---------------------------------------------------------------------------

# Every family at rank <= 6 whose orbits have at most |W| <= 10^5 points.
ORACLE_DATA = (
    [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
    + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
    + [("E6", 6), ("F4", 4), ("G2", 2)]
)
ORACLE_Q = (2, 3, 4, 5, 8, 9)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORACLE_DATA), st.sampled_from(ORACLE_Q), st.data())
def test_orbit_size_equals_enumerated_orbit(datum, q, data):
    family, rank = datum
    spec = rd.group(family, rank, q=q)
    m = q - 1
    # Coordinates outside [0, m) are lifts of the same character.
    beta = tuple(data.draw(st.lists(st.integers(-2 * m - 3, 3 * m + 3),
                                    min_size=rank, max_size=rank)))
    assert cl.orbit_size(spec, beta) == len(cl.orbit(spec, beta))


@pytest.mark.parametrize("family, ranks", [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
    ("D", range(4, 9)), ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
    ("F4", (4,)), ("G2", (2,))])
def test_wall_classifier_agrees_with_subdiagram_classifier(family, ranks):
    # The alcove code classifies wall sets by bonds alone; on the ordinary
    # nodes it must give the Weyl order of weights._classify_subdiagram.
    for rank in ranks:
        datum = rd.build_root_datum(family, rank)
        bonds = cl._alcove_plan(datum).bonds
        for size in range(1, rank + 1):
            for nodes in itertools.combinations(range(1, rank + 1), size):
                for comp in wt.ParabolicSubset(datum, nodes).components():
                    sub_family, order = wt._classify_subdiagram(datum, comp)
                    assert (cl._component_order(bonds, list(comp))
                            == rd._weyl_order(sub_family, len(order))), comp


@pytest.mark.parametrize("family, rank, q", [
    ("A", 2, 5), ("C", 2, 5), ("B", 3, 4), ("G2", 2, 8), ("A", 3, 4)])
def test_orbit_size_on_every_character(family, rank, q):
    spec = rd.group(family, rank, q=q)
    for beta in itertools.product(range(q - 1), repeat=rank):
        assert cl.orbit_size(spec, beta) == len(cl.orbit(spec, beta)), beta


def test_orbit_budget_is_checked_before_enumerating(monkeypatch):
    spec = rd.group("C", 2, q=4)
    monkeypatch.setattr(cl, "ORBIT_BUDGET", 4)
    assert len(cl.orbit(spec, (1, 0))) == 4
    monkeypatch.setattr(cl, "ORBIT_BUDGET", 3)
    with pytest.raises(cl.BudgetExceededError):
        cl.orbit(spec, (1, 0))
    monkeypatch.undo()
    # |W(E8)| / 16 points: the default budget of 10^6 refuses it at once.
    e8 = rd.group("E8", 8, q=16)
    assert cl.orbit_size(e8, (1, 0, 0, 1, 0, 1, 0, 1)) == 43545600
    with pytest.raises(cl.BudgetExceededError):
        cl.orbit(e8, (1, 0, 0, 1, 0, 1, 0, 1))


def bfs_orbit(datum, start, m):
    """Oracle for orbit: breadth-first closure of a reduced character."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(1, datum.rank + 1):
                w = tuple(c % m for c in rd.apply_reflection(datum, i, v))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def bfs_orbit_scan(spec):
    """Oracle for orbit_scan: partition every character by breadth-first
    closure; returns (fixed points, minimum nontrivial size, histogram)."""
    datum = spec.datum
    m = spec.q - 1
    unseen = set(itertools.product(range(m), repeat=datum.rank))
    fixed = []
    histogram = {}
    while unseen:
        start = unseen.pop()
        seen = bfs_orbit(datum, start, m)
        unseen.difference_update(seen)
        histogram[len(seen)] = histogram.get(len(seen), 0) + 1
        if len(seen) == 1:
            fixed.append(start)
    nontrivial = [size for size in histogram if size > 1]
    return (tuple(sorted(fixed)), min(nontrivial, default=None),
            tuple(sorted(histogram.items())))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORACLE_DATA), st.sampled_from(ORACLE_Q), st.data())
def test_orbit_equals_reflection_closure(datum, q, data):
    family, rank = datum
    spec = rd.group(family, rank, q=q)
    m = q - 1
    beta = tuple(data.draw(st.lists(st.integers(-2 * m - 3, 3 * m + 3),
                                    min_size=rank, max_size=rank)))
    start = tuple(c % m for c in beta)
    assert cl.orbit(spec, beta) == bfs_orbit(spec.datum, start, m)


# The scans of `pimbounds verify orbits`, plus larger E7, E8 and
# non-simply-laced lattices; all have m^n <= 10^5.
SCAN_GROUPS = (
    [rd.group("C", rank, q=q) for rank in (2, 3, 4) for q in (4, 8)]
    + [rd.group("D", 4, q=q) for q in (4, 8)]
    + [rd.special_linear(n, q) for n in range(3, 7) for q in (3, 4, 5)]
    + [rd.group("G2", 2, q=q) for q in (4, 5, 7, 49)]
    + [rd.group("F4", 4, q=q) for q in (3, 5, 9)]
    + [rd.group("E6", 6, q=4), rd.group("E7", 7, q=3), rd.group("E8", 8, q=3),
       rd.group("E7", 7, q=4), rd.group("E8", 8, q=4),
       rd.group("B", 4, q=5), rd.group("D", 5, q=4), rd.group("A", 7, q=3)]
)


@pytest.mark.parametrize("family, rank, q", [
    ("E8", 8, 16), ("E8", 8, 32), ("E7", 7, 16), ("E7", 7, 27), ("E6", 6, 16),
    ("F4", 4, 32), ("G2", 2, 64), ("B", 8, 16), ("C", 7, 16), ("D", 8, 16),
    ("D", 7, 13), ("A", 6, 16)])
def test_orbit_scan_sizes_add_up_beyond_enumeration(family, rank, q):
    # Too large to enumerate: the orbit sizes must still partition all
    # (q-1)^rank characters, which checks every wall stabilizer that occurs.
    scan = cl.orbit_scan(rd.group(family, rank, q=q), budget=10 ** 30)
    total = sum(size * count for size, count in scan.orbit_size_histogram)
    assert total == scan.total_points == (q - 1) ** rank
    assert scan.fixed_points == ((0,) * rank,)


@pytest.mark.parametrize("spec", SCAN_GROUPS, ids=lambda s: s.describe())
def test_orbit_scan_equals_bfs_partition(spec):
    scan = cl.orbit_scan(spec)
    fixed, minimum, histogram = bfs_orbit_scan(spec)
    assert scan.fixed_points == fixed
    assert scan.min_nontrivial_orbit == minimum
    assert scan.orbit_size_histogram == histogram
    assert scan.total_points == (spec.q - 1) ** spec.datum.rank


# ---------------------------------------------------------------------------
# Fixed subspaces mod l
# ---------------------------------------------------------------------------


def test_fixed_space_c2_mod2_nonzero():
    datum = rd.build_root_datum("C", 2)
    basis = cl.fixed_subspace_mod_ell(datum, 2)
    assert len(basis) >= 1
    # Independent oracle: enumerate all four vectors of F_2^2.
    mats = [tuple(tuple(c % 2 for c in row) for row in m)
            for m in rd.reflection_matrices(datum)]
    fixed = []
    for v in itertools.product(range(2), repeat=2):
        if all(tuple(sum(row[k] * v[k] for k in range(2)) % 2 for row in m) == v
               for m in mats):
            fixed.append(v)
    assert len(fixed) == 2 ** len(basis)


def test_fixed_space_e8_mod2_zero():
    datum = rd.build_root_datum("E8", 8)
    assert cl.fixed_subspace_mod_ell(datum, 2) == []


def test_fixed_space_full_when_generators_act_trivially():
    # The rank-1 reflection is -1, which is the identity mod 2.
    datum = rd.build_root_datum("A", 1)
    assert cl.fixed_subspace_mod_ell(datum, 2) == [(1,)]
    assert cl.fixed_subspace_mod_ell(datum, 3) == []


# ---------------------------------------------------------------------------
# Irreducibility mod l
# ---------------------------------------------------------------------------


def test_small_irreducibility_cells():
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("A", 2), 2) is True
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("A", 2), 3) is False
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("C", 3), 2) is False
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("C", 3), 3) is True
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("E6", 6), 3) is False
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("G2", 2), 3) is False
    assert cl.is_irreducible_mod_ell(rd.build_root_datum("G2", 2), 5) is True


def _spin_dimension(vectors, gens, ell, n) -> int:
    """Dimension of the submodule generated by ``vectors`` under ``gens``.

    Maintains a reduced echelon basis; returns as soon as the span is full.
    """
    echelon = {}  # pivot column -> reduced vector

    def insert(v):
        v = list(v)
        for c in range(n):
            if v[c]:
                if c in echelon:
                    f = v[c]
                    v = [(a - f * b) % ell for a, b in zip(v, echelon[c])]
                else:
                    inv = pow(v[c], -1, ell)
                    vv = tuple((x * inv) % ell for x in v)
                    echelon[c] = vv
                    return vv
        return None

    work = []
    for v in vectors:
        nv = insert(v)
        if nv is not None:
            work.append(nv)
    while work and len(echelon) < n:
        v = work.pop()
        for g in gens:
            nv = insert(tuple(sum(r * c for r, c in zip(row, v)) % ell
                              for row in g))
            if nv is not None:
                work.append(nv)
                if len(echelon) == n:
                    return n
    return len(echelon)


def _projective_points(n, ell):
    """One representative per projective point of F_ell^n (first nonzero = 1)."""
    for lead in range(n):
        for tail in itertools.product(range(ell), repeat=n - lead - 1):
            yield (0,) * lead + (1,) + tail


def _gens_mod(datum, ell):
    return [tuple(tuple(c % ell for c in row) for row in mat)
            for mat in rd.reflection_matrices(datum)]


# The cells of tests/test_acceptance.py's irreducibility sweep.
SWEEP_DATA = [rd.build_root_datum(family, rank)
              for family, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                                    ("C", range(2, 9)), ("D", range(3, 9)),
                                    ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
                                    ("F4", (4,)), ("G2", (2,)))
              for rank in ranks]
SWEEP_CELLS = [(datum, ell) for datum in SWEEP_DATA for ell in (2, 3, 5, 7)]


def test_closed_form_equals_exhaustive_spin():
    # Irreducible exactly when every projective point spins to everything.
    cells = [(datum, ell) for datum, ell in SWEEP_CELLS
             if (ell ** datum.rank - 1) // (ell - 1) <= 4000]
    assert len(cells) == 107
    for datum, ell in cells:
        n = datum.rank
        gens = _gens_mod(datum, ell)
        spun = all(_spin_dimension([v], gens, ell, n) == n
                   for v in _projective_points(n, ell))
        assert cl.is_irreducible_mod_ell(datum, ell) == spun, (
            datum.family, n, ell)


def _reflection_witness(datum, ell):
    """Simple roots mod ell spanning a proper submodule: all of them when
    det(Cartan) = 0 mod ell, else those reachable from some node."""
    n = datum.rank
    roots = [tuple(datum.cartan[j][k] % ell for j in range(n))
             for k in range(n)]
    if _spin_dimension(roots, [], ell, n) < n:  # det(Cartan) = 0 mod ell
        return roots
    for i in range(n):
        reached = {i}
        todo = [i]
        while todo:
            k = todo.pop()
            for j in range(n):
                if datum.cartan[j][k] % ell and j not in reached:
                    reached.add(j)
                    todo.append(j)
        if len(reached) < n:
            return [roots[k] for k in sorted(reached)]
    return None


def test_reducible_cells_have_a_stable_witness():
    reducible = [(datum, ell) for datum, ell in SWEEP_CELLS
                 if not cl.is_irreducible_mod_ell(datum, ell)]
    assert reducible
    for datum, ell in reducible:
        n = datum.rank
        roots = _reflection_witness(datum, ell)
        assert roots is not None, (datum.family, n, ell)
        span = _spin_dimension(roots, [], ell, n)
        assert 0 < span < n, (datum.family, n, ell)
        assert _spin_dimension(roots, _gens_mod(datum, ell), ell, n) == span, (
            datum.family, n, ell)


@pytest.mark.parametrize("ell", (4, 6, 9, 1, 0, -3))
def test_modulus_must_be_prime(ell):
    datum = rd.build_root_datum("A", 2)
    with pytest.raises(ValueError, match="prime"):
        cl.is_irreducible_mod_ell(datum, ell)
    with pytest.raises(ValueError, match="prime"):
        cl.fixed_subspace_mod_ell(datum, ell)


def test_rank_one_always_irreducible():
    datum = rd.build_root_datum("A", 1)
    for ell in (2, 3, 5, 7):
        assert cl.is_irreducible_mod_ell(datum, ell) is True
        assert cl.natural_rep_irreducibility_table(datum, ell) is True
