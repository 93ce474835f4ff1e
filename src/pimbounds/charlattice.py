"""Weyl-group action on characters of a split maximal torus, and mod-l
reductions of the natural reflection representation.

For a split group over F_q the character group of a maximally split torus is
the weight lattice modulo q-1, a free (Z/(q-1))-module of rank n on which the
Weyl group acts through the simple reflections.  Orbit sizes of this action
are lower bounds for p'-parts of projective-module dimensions, so this module
provides orbit computation, full orbit scans, and the irreducibility
question for the reduction of the reflection representation modulo a small
prime l.

Orbit sizes are not found by listing orbits.  With m = q-1, the stabilizer
in W of a character x mod m is isomorphic to the stabilizer of a lift x in
the extended affine Weyl group W ⋉ mP = W_a ⋊ Ω, where W_a = W ⋉ mQ is
generated by the reflections in the hyperplanes <x, a^vee> = km and Ω ≅ P/Q
is the subgroup preserving the closed fundamental alcove
A = {x : 0 <= <x, a^vee> <= m for every positive root a}.  Simple and affine
reflections move the lift into A.  There, the Kac coordinates
(m - <x, theta^vee>, x_1, ..., x_n), with theta^vee the highest coroot, show
the walls through x: the stabilizer in W_a is the parabolic subgroup W_J on
the zero coordinates J, a proper subdiagram of the extended Dynkin diagram,
and Ω acts by permuting the Kac coordinates.  So

    |W . x mod m| = |W| / (|W_J| * |Ω_x|),

and a full scan of the m^n characters only walks the points of A
(Bourbaki, *Lie Groups and Lie Algebras*, ch. VI §2; Kac, *Infinite
Dimensional Lie Algebras*, §8.6; Reeder, "Torsion automorphisms of simple
Lie algebras", Enseign. Math. 2010).  The Kac coordinates fix x and m, so
each orbit length is cached per datum under them.  A :class:`TorusOrbits`
for one datum and one m caches the length again per reduced point, so a
repeated point costs one dict read and neither the walk nor the alcove
data; it looks the alcove data up on the first point that misses and keeps
it.  On a miss it walks from a short lift y = x mod mP of the reduced
point x (:func:`_short_lift`), which moves the coordinates of at least m/2
down by m until <y, theta^vee> <= m, instead of from x, where
<x, theta^vee> reaches (m-1) times the height of theta^vee: on E8 over F_5
that takes about 5 times fewer reflections.  The two points lie in one
W ⋉ mP orbit, so their alcove points differ by an element of Ω, and
|W_J| * |Ω_x| is the same at both.  The walk :func:`_alcove_kac` itself
takes its start as given, lift-free, because :func:`_alcove_plan` reads Ω
off walks of probes that are deliberately not reduced.  The breadth-first
enumeration in :func:`orbit` is kept for callers that need the orbit's
elements; it runs on the orbit kernel :func:`rootdata.weyl_orbit`.

Irreducibility of the reflection representation over F_l is decided in
closed form, from the Cartan matrix: for rank >= 2 it holds exactly when
det(Cartan) is nonzero mod l and l divides no bond product.  This is the
argument for the irreducibility of the geometric representation of a Coxeter
group (Bourbaki, *Lie Groups and Lie Algebras*, ch. V §4) run over F_l:
every nonzero submodule contains a simple root, and the submodule that root
generates is spanned by the simple roots reachable from it along the bonds
whose entries are nonzero mod l.  The Dynkin diagram is a tree, so every
root is reachable from every other exactly when no bond loses an entry,
that is when l divides no bond product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import mul

from .rootdata import (
    GroupSpec,
    RootDatum,
    UnsupportedGroupError,
    _classify,
    _components,
    _weyl_order,
    factor_prime_power,
    weyl_orbit,
)


class BudgetExceededError(RuntimeError):
    """A scan or search was larger than the configured budget."""


def _require_split(spec: GroupSpec) -> None:
    if not spec.is_split:
        raise UnsupportedGroupError(
            f"torus-character orbits are computed for split groups only, "
            f"not {spec.describe()}")


def _weight_coords(orbits: TorusOrbits, weight) -> tuple[int, ...]:
    """The coordinates of a weight reduced mod the m of ``orbits``."""
    coords = tuple(weight)
    if len(coords) != orbits.datum.rank:
        raise ValueError("weight length does not match the rank")
    m = orbits.m
    return tuple([c % m for c in coords])


# ---------------------------------------------------------------------------
# Alcove geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _AlcovePlan:
    """Per-datum data for orbit sizes from alcove stabilizers.

    Node 0 of the extended diagram is the affine wall <x, theta^vee> = m;
    node i >= 1 is the wall x_i = 0.  The root of node 0 is theta, the
    highest short root, so it is short unless the datum is simply laced.
    """

    # The nonzero entries (j, c), in fundamental-weight coordinates, of each
    # simple root and of theta, the root whose coroot is the highest coroot.
    columns: tuple[tuple[tuple[int, int], ...], ...]
    theta_column: tuple[tuple[int, int], ...]
    theta_form: tuple[int, ...]  # the highest coroot on simple coroots
    # The pairs (i, theta_form[i]) by decreasing coefficient: the order in
    # which :func:`_short_lift` visits the coordinates.
    lift_order: tuple[tuple[int, int], ...]
    bonds: tuple[tuple[int, ...], ...]  # bond products between wall nodes
    neighbours: tuple[int, ...]  # the bonded wall nodes of each, as a mask
    long: tuple[bool, ...]  # whether the root of each wall node is long
    omega: tuple[tuple[int, ...], ...]  # Ω as permutations of Kac coordinates
    wall_orders: dict = field(default_factory=dict)  # zero-set mask -> |W_J|
    # Kac coordinates -> |W| / (|W_J| * |Ω_x|); they fix x and m.
    orbit_sizes: dict = field(default_factory=dict)


def _highest_coroot(datum: RootDatum, simple):
    """The root theta whose coroot is the highest coroot, and that coroot,
    by the one dominant walk described in :func:`_alcove_plan`.  Reflecting
    in s_j subtracts root[j] times alpha_j from the root, and
    <alpha_j, coroot> times alpha_j^vee from the coroot."""
    i = next((k for k, long in enumerate(datum.long_nodes) if not long), 0)
    root, coroot = simple[i], [int(k == i) for k in range(datum.rank)]
    while True:
        j = next((k for k, c in enumerate(root) if c < 0), None)
        if j is None:
            return root, tuple(coroot)
        c = root[j]
        coroot[j] -= sum(map(mul, coroot, simple[j]))
        root = tuple(r - c * s for r, s in zip(root, simple[j]))


def _alcove_kac(plan: _AlcovePlan, x, m: int) -> tuple[int, ...]:
    """The Kac coordinates of the point of the closed alcove in the
    W_a-orbit of ``x``.

    Reflects in the wall x_i = 0 of a most negative coordinate while one is
    negative, then in the affine wall while <x, theta^vee> > m.  Each step
    reflects x in a wall of the alcove that separates the two, which lowers
    the number of reflecting hyperplanes between them by one.  So the walk
    ends, at the one point of the alcove in the orbit, whatever the order of
    the steps.  A step changes x in place, at the nonzero entries of the
    root it reflects along.
    """
    x = list(x)
    columns, theta_column, theta_form = (plan.columns, plan.theta_column,
                                         plan.theta_form)
    while True:
        low = min(x)
        if low < 0:
            for j, c in columns[x.index(low)]:
                x[j] -= low * c
            continue
        h = sum(map(mul, theta_form, x))
        if h <= m:
            return (m - h, *x)
        h -= m
        for j, t in theta_column:
            x[j] -= h * t


def _short_lift(plan: _AlcovePlan, x, m: int) -> list[int]:
    """A lift y of the reduced point ``x`` (mod mP) close to the alcove.

    Visits the coordinates by decreasing coefficient in the highest coroot,
    so that the largest steps come first, lowers each that is at least m/2
    by m, which leaves it no further from 0, and stops as soon as
    <y, theta^vee> <= m.  The walk from y is not shorter than the walk
    from ``x`` at every point, but it is on the whole: over every character
    of D4 and A4 modulo 7, and about 5 times over E8 modulo 4.
    """
    y = list(x)
    h = sum(map(mul, plan.theta_form, y))
    for i, d in plan.lift_order:
        if h <= m:
            break
        if 2 * y[i] >= m:
            y[i] -= m
            h -= d * m
    return y


@lru_cache(maxsize=None)
def _alcove_plan(datum: RootDatum) -> _AlcovePlan:
    """The alcove data of a datum, built once per datum.

    The affine wall needs theta^vee, the highest coroot, and the root theta
    it belongs to, the highest short root (the highest root when all roots
    have one length; Bourbaki, *Lie Groups and Lie Algebras*, ch. VI §1.8).
    A root is dominant exactly when its coroot is, and in an irreducible
    root system the short roots form one W-orbit, which holds exactly one
    dominant root.  So theta is the dominant root reached from the first
    short simple root, or from alpha_1 when the datum is simply laced: the
    walk reflects the (root, coroot) pair in s_j while coordinate j of the
    root is negative.  Every step raises the height, so the walk takes
    fewer than h steps, h the Coxeter number.
    """
    n = datum.rank
    cartan = datum.cartan
    simple = tuple(tuple(cartan[j][i] for j in range(n)) for i in range(n))
    theta, theta_form = _highest_coroot(datum, simple)
    # The simple nodes keep the bonds of the datum; node 0 bonds with node
    # i >= 1 by <theta, alpha_i^vee> * <alpha_i, theta^vee>.
    theta_row = tuple(t * sum(map(mul, root, theta_form))
                      for t, root in zip(theta, simple))
    bonds = ((0, *theta_row),
             *((b, *row) for b, row in zip(theta_row, datum._bonds)))
    neighbours = tuple(sum(1 << b for b, bond in enumerate(row) if bond)
                       for row in bonds)
    plan = _AlcovePlan(datum._columns,
                       tuple((j, t) for j, t in enumerate(theta) if t),
                       theta_form,
                       tuple(sorted(enumerate(theta_form),
                                    key=lambda pair: -pair[1])),
                       bonds, neighbours,
                       (all(datum.long_nodes), *datum.long_nodes), omega=())
    # Ω ≅ P/Q is represented by 0 and the minuscule fundamental weights, the
    # nodes with coefficient 1 in the highest coroot.  Each permutes the Kac
    # coordinates; read the permutation off a point whose coordinates differ.
    probe = tuple(range(2, n + 2))
    m = 1 + sum(map(mul, theta_form, probe))
    before = _alcove_kac(plan, probe, m)  # the probe lies in the alcove
    omega = [tuple(range(n + 1))]
    for i, d in enumerate(theta_form):
        if d == 1:
            shifted = tuple(c + m * (k == i) for k, c in enumerate(probe))
            after = _alcove_kac(plan, shifted, m)
            omega.append(tuple(before.index(c) for c in after))
    return replace(plan, omega=tuple(omega))


def _wall_stabilizer_order(plan: _AlcovePlan, kac: tuple[int, ...]) -> int:
    """|W_J| for J the walls through the alcove point, from its Kac
    coordinates: the product of the Weyl orders of the components of J in
    the extended diagram, each typed by :func:`rootdata._classify` on the
    neighbour masks, bonds and root lengths of the plan.  Kept per zero-set
    mask of the plan."""
    mask = sum(1 << j for j, s in enumerate(kac) if s == 0)
    order = plan.wall_orders.get(mask)
    if order is None:
        types = (_classify(plan.neighbours, plan.bonds, plan.long, comp)
                 for comp in _components(plan.neighbours, mask))
        order = plan.wall_orders[mask] = math.prod(
            _weyl_order(family, len(nodes)) for family, nodes in types)
    return order


def _omega_fixing(plan: _AlcovePlan, kac: tuple[int, ...]) -> int:
    return sum(1 for perm in plan.omega
               if all(kac[p] == s for p, s in zip(perm, kac)))


class TorusOrbits:
    """The Weyl orbit lengths of the torus characters of one datum modulo
    one m >= 1, cached per character, that is per point reduced mod m.  A
    new character is walked to its alcove point (:func:`_alcove_kac`) from
    its short lift (:func:`_short_lift`): the lift and the point differ by
    an element of mP, so their alcove points differ by an element of Ω,
    which leaves |W_J| * |Ω_x| and so the length unchanged.  The datum's
    alcove data is looked up on the first miss and kept."""

    __slots__ = ("datum", "m", "sizes", "plan")

    def __init__(self, datum: RootDatum, m: int):
        self.datum = datum
        self.m = m
        self.sizes: dict[tuple[int, ...], int] = {}
        self.plan: _AlcovePlan | None = None

    def size(self, reduced: tuple[int, ...]) -> int:
        """The orbit length of the character with coordinates ``reduced``,
        each in [0, m)."""
        size = self.sizes.get(reduced)
        if size is None:
            plan = self.plan
            if plan is None:
                plan = self.plan = _alcove_plan(self.datum)
            kac = _alcove_kac(plan, _short_lift(plan, reduced, self.m),
                              self.m)
            size = plan.orbit_sizes.get(kac)
            if size is None:
                size = plan.orbit_sizes[kac] = self.datum.weyl_order // (
                    _wall_stabilizer_order(plan, kac) * _omega_fixing(plan, kac))
            self.sizes[reduced] = size
        return size


@lru_cache(maxsize=None)
def torus_orbits(spec: GroupSpec) -> TorusOrbits:
    """The orbit-length cache of a split group, shared by every caller: its
    datum modulo m = q-1 (m = 1 when q = 2, whose torus is trivial)."""
    _require_split(spec)
    return TorusOrbits(spec.datum, max(spec.q - 1, 1))


def orbit_size(spec: GroupSpec, weight) -> int:
    """Length of the Weyl orbit of the torus character of a weight (its
    coordinates reduced mod q-1), by orbit-stabilizer in the extended affine
    Weyl group; see :class:`TorusOrbits`."""
    orbits = torus_orbits(spec)
    return orbits.size(_weight_coords(orbits, weight))


# The point budget of this module: the largest orbit that :func:`orbit`
# lists, and the most alcove points that :func:`orbit_scan` walks.
ORBIT_BUDGET = 10 ** 6


def orbit(spec: GroupSpec, weight) -> frozenset[tuple[int, ...]]:
    """Weyl-group orbit of the torus character of a weight, as a set of
    coordinate tuples reduced mod q-1.

    Raises :class:`BudgetExceededError`, before enumerating anything, when
    the orbit has more than :data:`ORBIT_BUDGET` elements.
    """
    size = orbit_size(spec, weight)
    if size > ORBIT_BUDGET:
        raise BudgetExceededError(
            f"an orbit of {size} torus characters exceeds the budget "
            f"of {ORBIT_BUDGET}")
    orbits = torus_orbits(spec)
    return frozenset(weyl_orbit(spec.datum, _weight_coords(orbits, weight),
                                orbits.m))


@dataclass(frozen=True)
class OrbitScanReport:
    """Summary of the Weyl action on all q-1 torus characters."""

    group: str
    modulus: int
    total_points: int
    vacuous: bool
    fixed_points: tuple[tuple[int, ...], ...]
    min_nontrivial_orbit: int | None
    orbit_size_histogram: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "modulus": self.modulus,
            "total_points": self.total_points,
            "vacuous": self.vacuous,
            "fixed_points": [list(v) for v in self.fixed_points],
            "min_nontrivial_orbit": self.min_nontrivial_orbit,
            "orbit_size_histogram": {str(k): v for k, v in self.orbit_size_histogram},
        }


def _alcove_points(theta_form, m: int):
    """Kac coordinates of every weight in the closed alcove of level m."""
    n = len(theta_form)

    def extend(prefix, room):
        if len(prefix) == n:
            yield (room, *prefix)
            return
        d = theta_form[len(prefix)]
        for c in range(room // d + 1):
            yield from extend((*prefix, c), room - d * c)

    return extend((), m)


def _alcove_point_count(theta_form, m: int) -> int:
    """The number of points of the closed alcove of level m: the solutions
    of d_1 c_1 + ... + d_n c_n <= m in nonnegative integers, d the highest
    coroot on simple coroots.  Sums over c_1, ..., c_{n-1} and counts the
    c_n in closed form; stops once the count passes :data:`ORBIT_BUDGET`,
    so a count over the budget is only a lower bound."""
    *head, last = theta_form

    def count(i, room, total):
        if i == len(head):
            return total + room // last + 1
        for rest in range(room, -1, -head[i]):
            total = count(i + 1, rest, total)
            if total > ORBIT_BUDGET:
                break
        return total

    return count(0, m, 0)


def orbit_scan(spec: GroupSpec) -> OrbitScanReport:
    """Partition all torus characters into Weyl orbits.

    Reports the fixed characters, the smallest orbit of size larger than one,
    and a histogram of orbit sizes.  Each orbit is one Ω-orbit of alcove
    points, so only those are walked.  For q = 2 the torus is trivial and the
    scan is flagged vacuous.  Raises :class:`BudgetExceededError`, before
    walking any, when the alcove has more than :data:`ORBIT_BUDGET` points.
    """
    _require_split(spec)
    datum = spec.datum
    m = spec.q - 1
    if m <= 1:
        return OrbitScanReport(
            group=spec.describe(), modulus=max(m, 1), total_points=1,
            vacuous=True, fixed_points=((0,) * datum.rank,),
            min_nontrivial_orbit=None, orbit_size_histogram=((1, 1),))
    total = m ** datum.rank
    plan = _alcove_plan(datum)
    if _alcove_point_count(plan.theta_form, m) > ORBIT_BUDGET:
        raise BudgetExceededError(
            f"the scan walks more alcove points than the budget "
            f"of {ORBIT_BUDGET}")
    fixed = []
    histogram: dict[int, int] = {}
    seen: set[tuple[int, ...]] = set()
    for kac in _alcove_points(plan.theta_form, m):
        if kac in seen:
            continue
        images = {tuple(kac[p] for p in perm) for perm in plan.omega}
        seen.update(images)
        # |Ω_x| = |Ω| / len(images)
        size = datum.weyl_order * len(images) // (
            _wall_stabilizer_order(plan, kac) * len(plan.omega))
        histogram[size] = histogram.get(size, 0) + 1
        if size == 1:
            fixed.append(tuple(c % m for c in kac[1:]))
    nontrivial = [size for size in histogram if size > 1]
    return OrbitScanReport(
        group=spec.describe(), modulus=m, total_points=total, vacuous=False,
        fixed_points=tuple(sorted(fixed)),
        min_nontrivial_orbit=min(nontrivial, default=None),
        orbit_size_histogram=tuple(sorted(histogram.items())))


# ---------------------------------------------------------------------------
# Irreducibility mod l
# ---------------------------------------------------------------------------


def _require_prime(ell: int) -> None:
    try:
        prime = factor_prime_power(ell) == (ell, 1)
    except UnsupportedGroupError:
        raise  # beyond the factoring budget, which its message names
    except ValueError:
        prime = False
    if not prime:
        raise ValueError(f"the modulus must be a prime, not {ell}")


# Not read by this module: the benchmark's `verify` workload picks its
# irreducibility cells by this projective-point count, a threshold from when
# small cells were decided by spinning every point.
_EXHAUSTIVE_POINT_LIMIT = 30_000


def _cartan_determinant(cartan) -> int:
    """det(Cartan) by fraction-free (Bareiss) elimination without pivoting.

    After step k the pivot a[k][k] is the leading principal minor of order
    k + 1, and every division is exact.  The leading principal minors of a
    Cartan matrix of finite type are positive (its principal submatrices are
    Cartan matrices of finite type), so no pivot is zero.
    """
    a = [list(row) for row in cartan]
    n = len(a)
    previous = 1
    for k in range(n - 1):
        pivot, top = a[k][k], a[k]
        for row in a[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // previous
        previous = pivot
    return a[-1][-1]


def is_irreducible_mod_ell(datum: RootDatum, ell: int) -> bool:
    """Is the natural reflection representation irreducible over F_ell?

    Rank 1 is one-dimensional, so irreducible.  For rank >= 2 the answer is
    yes exactly when det(Cartan) is nonzero mod ell and ell divides no bond
    product.

    Proof: a nonzero submodule U holds some v with v_i != 0, so it holds
    ``v - s_i v = v_i * alpha_i``; and with alpha_k it holds
    ``alpha_k - s_j alpha_k = cartan[j][k] * alpha_j``, so it holds every
    alpha_j reachable from i in the digraph with an arc k -> j whenever
    ``cartan[j][k]`` is nonzero mod ell.  If the simple roots are a basis
    (det != 0) and every node reaches every other, U is everything.
    Conversely the root span, when det = 0, or the span of the roots
    reachable from one node, when that is not every node, is a proper
    nonzero W-stable subspace.  The digraph has arcs only along bonds, and
    the Dynkin diagram is a tree: the one path between the two ends of a
    bond is the bond itself.  So the digraph is strongly connected exactly
    when every bond keeps its arcs both ways.  A bond's two entries are -1
    and -b, with b in {1, 2, 3} its bond product, so it keeps both arcs
    exactly when ell does not divide b.
    """
    _require_prime(ell)
    if datum.rank == 1:
        return True
    return (_cartan_determinant(datum.cartan) % ell != 0
            and all(b % ell for row in datum._bonds for b in row if b))


def natural_rep_irreducibility_table(datum: RootDatum, ell: int) -> bool:
    """Embedded expectation for the mod-l natural reflection representation.

    Type A (rank n-1): irreducible exactly when l does not divide n; types
    B, C, D: when l is odd; E6: when l is not 3; E7: when l is not 2; E8:
    always; F4: when l is not 2; G2: when l is not 3.
    """
    fam = datum.family
    if fam == "A":
        # Rank 1 gives a one-dimensional module, irreducible for every l
        # (the generic divisibility pattern starts at rank 2).
        return datum.rank == 1 or (datum.rank + 1) % ell != 0
    if fam in ("B", "C", "D"):
        return ell != 2
    return {"E6": ell != 3, "E7": ell != 2, "E8": True,
            "F4": ell != 2, "G2": ell != 3}[fam]
