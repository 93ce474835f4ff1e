"""Tests for torus-character orbits and mod-l reflection representations."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pimbounds import charlattice as cl, cli, rootdata as rd


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


def test_orbit_scan_budget(monkeypatch):
    # The budget counts walked alcove points, not the 100^8 characters.
    monkeypatch.setattr(cl, "ORBIT_BUDGET", 100)
    with pytest.raises(cl.BudgetExceededError, match="alcove points"):
        cl.orbit_scan(rd.group("E8", 8, q=101))
    # C2(4) walks the 6 points of its alcove of level 3.
    monkeypatch.setattr(cl, "ORBIT_BUDGET", 6)
    assert cl.orbit_scan(rd.group("C", 2, q=4)).min_nontrivial_orbit == 4
    monkeypatch.setattr(cl, "ORBIT_BUDGET", 5)
    with pytest.raises(cl.BudgetExceededError):
        cl.orbit_scan(rd.group("C", 2, q=4))


@pytest.mark.parametrize("q", [3, 4, 5, 8])
def test_alcove_point_count_equals_the_walk(q):
    for datum in cli._iter_small_data():
        form = cl._alcove_plan(datum).theta_form
        assert (cl._alcove_point_count(form, q - 1)
                == sum(1 for _ in cl._alcove_points(form, q - 1))), datum


def test_orbit_scan_refuses_before_walking(monkeypatch):
    def refuse(*args):
        raise AssertionError("a refused scan must not walk")

    monkeypatch.setattr(cl, "_alcove_points", refuse)
    for family, rank, q in (("A", 1, 1000003), ("A", 2, 1427),
                            ("A", 3, 181), ("E8", 8, 101)):
        with pytest.raises(cl.BudgetExceededError, match="alcove points"):
            cl.orbit_scan(rd.group(family, rank, q=q))


def test_orbit_scan_beyond_the_character_count_finishes(capsys):
    # 15^7 = 170,859,375 characters, but only 170,544 alcove points.
    assert cli.main(["orbit-scan", "A", "7", "--q", "16", "--json"]) == 0
    scan = json.loads(capsys.readouterr().out)
    assert scan["total_points"] == 15 ** 7
    assert sum(int(size) * count for size, count
               in scan["orbit_size_histogram"].items()) == 15 ** 7


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
    # The split check comes before the length check.
    rank = spec.datum.rank
    for coords in ((1,) * (rank - 1), (1,) * (rank + 1)):
        for compute in (cl.orbit, cl.orbit_size):
            with pytest.raises(rd.UnsupportedGroupError):
                compute(spec, coords)


@pytest.mark.parametrize("modulus", (1, 2, 7))
def test_torus_character_modulus_must_be_q_minus_one(modulus):
    # A weight's coordinates are read modulo q-1; for q = 2 that is 1.
    spec = rd.group("A", 2, q=modulus + 1)
    orb = cl.orbit(spec, (1, 0))
    assert all(0 <= c < modulus for point in orb for c in point)
    assert cl.orbit(spec, (1 + modulus, 2 * modulus)) == orb
    size = 1 if modulus == 1 else 3
    assert cl.orbit_size(spec, (1 + modulus, 0)) == len(orb) == size


@pytest.mark.parametrize("coords", ((1,), (1, 0, 0)))
def test_torus_character_length_must_be_the_rank(coords):
    spec = rd.group("A", 2, q=4)
    for compute in (cl.orbit, cl.orbit_size):
        with pytest.raises(ValueError,
                           match="^weight length does not match the rank$"):
            compute(spec, coords)


def test_sl3_4_fixed_points_only_zero():
    scan = cl.orbit_scan(rd.special_linear(3, 4))
    assert scan.fixed_points == ((0, 0),)


def test_steinberg_character_is_trivial():
    spec = rd.special_linear(4, 5)
    assert cl.orbit(spec, (4, 4, 4)) == {(0, 0, 0)}
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


def reference_component_order(bonds, comp):
    """|W| for one connected finite-type subdiagram of an extended diagram,
    from its bond products and degrees alone: the wall classifier of the
    alcove code before ``rootdata._classify`` served it."""
    k = len(comp)
    degree = {a: sum(1 for b in comp if bonds[a][b]) for a in comp}
    multiple = [(a, b) for a in comp for b in comp if a < b and bonds[a][b] > 1]
    if multiple:
        a, b = multiple[0]
        if bonds[a][b] == 3:
            return rd._weyl_order("G2", 2)
        if k == 4 and degree[a] == degree[b] == 2:
            return rd._weyl_order("F4", 4)
        return rd._weyl_order("B", k)
    branch = [a for a in comp if degree[a] == 3]
    if not branch:
        return rd._weyl_order("A", k)
    leaves = sum(1 for b in comp if bonds[branch[0]][b] and degree[b] == 1)
    return rd._weyl_order("D", k) if leaves >= 2 else rd._weyl_order(f"E{k}", k)


@pytest.mark.parametrize("family, ranks", [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
    ("D", range(3, 9)), ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
    ("F4", (4,)), ("G2", (2,))])
def test_wall_classifier_agrees_with_subdiagram_classifier(family, ranks):
    # The wall classifier that reads bonds and degrees alone
    # (``reference_component_order``) against ``rootdata._classify`` on
    # every proper wall set of the extended diagram, node 0 included, on a
    # fresh plan: |W_J| is the product over the components of J.
    for rank in ranks:
        datum = rd.build_root_datum(family, rank)
        plan = cl._alcove_plan.__wrapped__(datum)
        assert plan.long[0] is (family in ("A", "D", "E6", "E7", "E8"))
        for mask in range(1, (1 << (rank + 1)) - 1):
            kac = tuple(int(not mask >> j & 1) for j in range(rank + 1))
            comps = rd._components(plan.neighbours, mask)
            assert cl._wall_stabilizer_order(plan, kac) == math.prod(
                reference_component_order(
                    plan.bonds, [j for j in range(rank + 1) if c >> j & 1])
                for c in comps), (family, rank, mask)


def roots_with_coroots(datum):
    """Every root (fundamental-weight coordinates) with its coroot (on simple
    coroots), as the Weyl orbit of the simple pairs: the search that found
    the highest coroot before the dominant walk of ``cl._alcove_plan``."""
    n = datum.rank
    cartan = datum.cartan
    simple = tuple(tuple(cartan[j][i] for j in range(n)) for i in range(n))
    start = [(simple[i], tuple(int(k == i) for k in range(n))) for i in range(n)]
    seen = set(start)
    frontier = start
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for i in range(n):
                c = root[i]
                d = sum(coroot[k] * cartan[k][i] for k in range(n))
                image = (tuple(r - c * s for r, s in zip(root, simple[i])),
                         tuple(v - d * (k == i) for k, v in enumerate(coroot)))
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return simple, seen


@pytest.mark.parametrize("datum", list(cli._iter_small_data()),
                         ids=lambda d: f"{d.family}{d.rank}")
def test_dominant_walk_finds_the_highest_coroot(datum):
    simple, pairs = roots_with_coroots(datum)
    assert len(pairs) == 2 * datum.positive_root_count
    positive = [pair for pair in pairs if min(pair[1]) >= 0]
    height = max(sum(coroot) for _, coroot in positive)
    [highest] = [pair for pair in positive if sum(pair[1]) == height]
    plan = cl._alcove_plan(datum)
    assert plan.columns == tuple(tuple((j, c) for j, c in enumerate(root) if c)
                                 for root in simple)
    assert (dense_theta(plan), plan.theta_form) == highest


def dense_theta(plan):
    """The root theta of ``plan``, from its nonzero entries."""
    entries = dict(plan.theta_column)
    return tuple(entries.get(j, 0) for j in range(len(plan.theta_form)))


def counted_alcove_walk(datum, x, m):
    """The walk of ``cl._alcove_kac`` on dense coordinates, and the number
    of reflections it takes: each step builds a new x from a whole simple
    root, or from theta."""
    n = datum.rank
    simple = tuple(tuple(datum.cartan[j][i] for j in range(n)) for i in range(n))
    plan = cl._alcove_plan(datum)
    x = list(x)
    steps = 0
    while True:
        low = min(x)
        if low < 0:
            x = [a - low * r for a, r in zip(x, simple[x.index(low)])]
            steps += 1
            continue
        h = sum(d * a for d, a in zip(plan.theta_form, x))
        if h <= m:
            return (m - h, *x), steps
        x = [a - (h - m) * t for a, t in zip(x, dense_theta(plan))]
        steps += 1


def dense_alcove_kac(datum, x, m):
    return counted_alcove_walk(datum, x, m)[0]


@pytest.mark.parametrize("family, rank, q", [
    ("A", 3, 4), ("B", 3, 4), ("G2", 2, 5), ("D", 4, 3)])
def test_sparse_alcove_walk_equals_dense_walk(family, rank, q):
    # Every reduced point, and a lift of it with negative coordinates.
    datum = rd.build_root_datum(family, rank)
    plan = cl._alcove_plan(datum)
    m = q - 1
    for x in itertools.product(range(m), repeat=rank):
        lift = tuple(c - (i + 1) * m for i, c in enumerate(x))
        for start in (x, lift):
            assert (cl._alcove_kac(plan, start, m)
                    == dense_alcove_kac(datum, start, m)), start


@pytest.mark.parametrize("family, rank, q", [
    ("A", 2, 5), ("C", 2, 5), ("B", 3, 4), ("G2", 2, 8), ("A", 3, 4)])
def test_orbit_size_on_every_character(family, rank, q):
    # Cold (the caches per reduced point and per alcove point emptied), warm,
    # from a lift of the point, and listed.
    spec = rd.group(family, rank, q=q)
    m = q - 1
    points = cl.torus_orbits(spec).sizes
    alcove_points = cl._alcove_plan(spec.datum).orbit_sizes
    for beta in itertools.product(range(m), repeat=rank):
        points.clear()
        alcove_points.clear()
        cold = cl.orbit_size(spec, beta)
        assert len(points) == len(alcove_points) == 1
        warm = cl.orbit_size(spec, beta)
        lifted = [c + (i - 1) * m for i, c in enumerate(beta)]
        lift = cl.orbit_size(spec, lifted)
        assert len(points) == 1
        assert cold == warm == lift == len(cl.orbit(spec, beta)), beta


def alcove_length(datum, kac):
    """|W| / (|W_J| * |Ω_x|) at an alcove point."""
    plan = cl._alcove_plan(datum)
    return datum.weyl_order // (cl._wall_stabilizer_order(plan, kac)
                                * cl._omega_fixing(plan, kac))


def lift_walks(datum, points, m):
    """For each reduced point: the alcove points and reflection counts of
    the walks from the point itself and from its short lift."""
    plan = cl._alcove_plan(datum)
    for x in points:
        yield (x, counted_alcove_walk(datum, x, m),
               counted_alcove_walk(datum, cl._short_lift(plan, x, m), m))


def seeded_points(rank, m, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.randrange(m) for _ in range(rank)) for _ in range(count)]


@pytest.mark.parametrize("family, rank, q", [
    ("A", 2, 5), ("C", 2, 5), ("B", 3, 4), ("G2", 2, 8), ("A", 3, 4),
    ("D", 4, 4), ("F4", 4, 3)])
def test_short_lift_keeps_every_orbit_length(family, rank, q):
    # The lift and the point lie in one W ⋉ mP orbit, so their alcove points
    # differ by an element of Ω, and give the same length, which is the
    # length of the listed orbit.
    spec = rd.group(family, rank, q=q)
    plan = cl._alcove_plan(spec.datum)
    m = q - 1
    points = itertools.product(range(m), repeat=rank)
    for x, (kac, _), (lifted, _) in lift_walks(spec.datum, points, m):
        assert lifted in {tuple(kac[p] for p in perm) for perm in plan.omega}
        assert (alcove_length(spec.datum, kac)
                == alcove_length(spec.datum, lifted)
                == cl.orbit_size(spec, x) == len(cl.orbit(spec, x))), x


@pytest.mark.parametrize("family, rank, q, fewer", [
    ("E8", 8, 5, 3), ("E7", 7, 8, 3), ("A", 7, 8, 2)])
def test_short_lift_walks_fewer_reflections(family, rank, q, fewer):
    # 300 seeded characters: equal lengths from both starts, and at least
    # ``fewer`` times fewer reflections in all from the lift.
    spec = rd.group(family, rank, q=q)
    datum, m = spec.datum, q - 1
    points = seeded_points(rank, m, 300, 20261021)
    reduced = lifted = 0
    for x, (kac, steps), (lift_kac, lift_steps) in lift_walks(datum, points, m):
        assert (alcove_length(datum, kac) == alcove_length(datum, lift_kac)
                == cl.orbit_size(spec, x)), x
        reduced += steps
        lifted += lift_steps
    assert lifted * fewer <= reduced, (reduced, lifted)


@pytest.mark.parametrize("family, rank", [("D", 4), ("A", 4)])
def test_short_lift_walks_no_more_reflections_in_all(family, rank):
    # Every character of D4(8) and A4(8), the benchmark's sweep.  The lift
    # walks further from some points, so only the totals are compared.
    datum = rd.build_root_datum(family, rank)
    points = itertools.product(range(7), repeat=rank)
    walks = list(lift_walks(datum, points, 7))
    reduced = sum(steps for _, (_, steps), _ in walks)
    lifted = sum(steps for _, _, (_, steps) in walks)
    assert lifted <= reduced, (reduced, lifted)
    assert any(lift > steps for _, (_, steps), (_, lift) in walks)


def test_plan_bonds_equal_the_pairings_of_the_extended_diagram():
    # The bonds of the plan against <a, b^vee> * <b, a^vee> over every pair
    # of nodes of the extended diagram, node 0 being (theta, theta^vee).
    for datum in cli._iter_small_data():
        n = datum.rank
        simple = tuple(tuple(datum.cartan[j][i] for j in range(n))
                       for i in range(n))
        plan = cl._alcove_plan(datum)
        nodes = [(dense_theta(plan), plan.theta_form)] + [
            (simple[i], tuple(int(k == i) for k in range(n)))
            for i in range(n)]

        def pairing(a, b):
            return sum(r * c for r, c in zip(nodes[a][0], nodes[b][1]))

        assert plan.bonds == tuple(
            tuple(pairing(a, b) * pairing(b, a) if a != b else 0
                  for b in range(n + 1)) for a in range(n + 1)), datum


def test_orbit_lengths_are_cached_per_modulus():
    # One datum at q = 4 and q = 5: the point (1, 2) is reduced for both,
    # and its orbit has a different length under each modulus.
    lengths = {}
    for q in (4, 5, 4, 5):
        spec = rd.group("A", 2, q=q)
        got = cl.orbit_size(spec, (1, 2))
        assert got == len(bfs_orbit(spec.datum, (1, 2), q - 1)), q
        lengths[q] = got
    assert lengths[4] != lengths[5]


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
    """Oracle for orbit: breadth-first closure of a reduced character under
    s_i v = v - v_i alpha_i, with alpha_i column i of the Cartan matrix."""
    roots = list(zip(*datum.cartan))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for a, root in zip(v, roots):
                w = tuple((c - a * r) % m for c, r in zip(v, root))
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
    scan = cl.orbit_scan(rd.group(family, rank, q=q))
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


def kernel_mod(rows: list[list[int]], n: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix over F_ell (rows of length n),
    by Gauss-Jordan elimination."""
    mat = [[c % ell for c in row] for row in rows]
    pivots = []  # (row index, column index)
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] % ell:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], -1, ell)
        mat[r] = [(x * inv) % ell for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(a - f * b) % ell for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for r_i, c_i in pivots:
            v[c_i] = (-mat[r_i][fc]) % ell
        basis.append(tuple(v))
    return basis


def fixed_subspace_mod_ell(datum, ell):
    """Basis of the common fixed space of all simple reflections over F_ell.

    Computed as the kernel of the stacked matrices M_i - I.
    """
    cl._require_prime(ell)
    n = datum.rank
    rows = []
    for mat in rd.reflection_matrices(datum):
        for j in range(n):
            row = [mat[j][k] - (1 if j == k else 0) for k in range(n)]
            if any(c % ell for c in row):
                rows.append(row)
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return kernel_mod(rows, n, ell)


def test_fixed_space_c2_mod2_nonzero():
    datum = rd.build_root_datum("C", 2)
    basis = fixed_subspace_mod_ell(datum, 2)
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
    assert fixed_subspace_mod_ell(datum, 2) == []


def test_fixed_space_full_when_generators_act_trivially():
    # The rank-1 reflection is -1, which is the identity mod 2.
    datum = rd.build_root_datum("A", 1)
    assert fixed_subspace_mod_ell(datum, 2) == [(1,)]
    assert fixed_subspace_mod_ell(datum, 3) == []


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


def search_irreducible_mod_ell(datum, ell):
    """The search that ``cl.is_irreducible_mod_ell`` replaced: for rank >= 2,
    irreducible exactly when the Cartan matrix has no kernel mod ell and the
    digraph with an arc i -> j whenever ``cartan[j][i]`` is nonzero mod ell
    is strongly connected, by one graph search from each node."""
    n = datum.rank
    if n == 1:
        return True
    if kernel_mod(datum.cartan, n, ell):
        return False
    arcs = [[j for j in range(n) if datum.cartan[j][i] % ell] for i in range(n)]
    for i in range(n):
        reached = {i}
        todo = [i]
        while todo:
            for j in arcs[todo.pop()]:
                if j not in reached:
                    reached.add(j)
                    todo.append(j)
        if len(reached) < n:
            return False
    return True


PRIMES_BELOW_200 = [p for p in range(2, 200)
                    if all(p % d for d in range(2, math.isqrt(p) + 1))]


def test_closed_form_equals_kernel_and_digraph_search():
    data = [rd.build_root_datum(family, rank)
            for family, ranks in (("A", range(1, 30)), ("B", range(2, 30)),
                                  ("C", range(2, 30)), ("D", range(3, 30)),
                                  ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
                                  ("F4", (4,)), ("G2", (2,)))
            for rank in ranks]
    cells = [(datum, ell) for datum in data for ell in PRIMES_BELOW_200]
    assert len(cells) == 5382
    for datum, ell in cells:
        expected = search_irreducible_mod_ell(datum, ell)
        assert cl.is_irreducible_mod_ell(datum, ell) is expected, (
            datum.family, datum.rank, ell)
        assert cl.natural_rep_irreducibility_table(datum, ell) is expected, (
            datum.family, datum.rank, ell)


def rational_determinant(matrix):
    """det by Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(c) for c in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@pytest.mark.parametrize("datum", list(cli._iter_small_data()),
                         ids=lambda d: f"{d.family}{d.rank}")
def test_omega_has_det_cartan_elements(datum):
    # |Ω| = |P/Q| = det(Cartan): an independent check of the Ω that
    # ``cl._alcove_plan`` reads off its probe point.
    det = rational_determinant(datum.cartan)
    assert len(cl._alcove_plan(datum).omega) == det
    assert cl._cartan_determinant(datum.cartan) == det


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
        fixed_subspace_mod_ell(datum, ell)


def test_modulus_beyond_the_factoring_budget_names_it():
    # 2^61 - 1 is prime, but proving it is beyond the budget of
    # ``rootdata.factor_prime_power``, which the refusal names.
    datum = rd.build_root_datum("A", 2)
    with pytest.raises(rd.UnsupportedGroupError, match="budget"):
        cl.is_irreducible_mod_ell(datum, 2 ** 61 - 1)


def test_rank_one_always_irreducible():
    datum = rd.build_root_datum("A", 1)
    for ell in (2, 3, 5, 7):
        assert cl.is_irreducible_mod_ell(datum, ell) is True
        assert cl.natural_rep_irreducibility_table(datum, ell) is True
