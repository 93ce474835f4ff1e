"""Weyl-group action on characters of a split maximal torus, and mod-l
reductions of the natural reflection representation.

For a split group over F_q the character group of a maximally split torus is
the weight lattice modulo q-1, a free (Z/(q-1))-module of rank n on which the
Weyl group acts through the simple reflections.  Orbit sizes of this action
are lower bounds for p'-parts of projective-module dimensions, so this module
provides orbit computation, full orbit scans, and the fixed-space and
irreducibility questions for the reduction of the reflection representation
modulo a small prime l.

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
Lie algebras", Enseign. Math. 2010).  The breadth-first enumeration in
:func:`orbit` is kept for callers that need the orbit's elements; it runs on
the orbit kernel :func:`rootdata.weyl_orbit`.

Irreducibility of the reflection representation over F_l is decided in
closed form, from the Cartan matrix mod l: for rank >= 2 it holds exactly
when det(Cartan) is nonzero mod l and the digraph with an edge i -> j
whenever the pairing of alpha_i with the coroot of alpha_j is nonzero mod l
is strongly connected.  This is the argument for the irreducibility of the
geometric representation of a Coxeter group (Bourbaki, *Lie Groups and Lie
Algebras*, ch. V §4) run over F_l: every nonzero submodule contains a
simple root, and the submodule that root generates is spanned by the simple
roots reachable from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .rootdata import (
    GroupSpec,
    RootDatum,
    UnsupportedGroupError,
    _weyl_order,
    factor_prime_power,
    reflection_matrices,
    weyl_orbit,
)


class BudgetExceededError(RuntimeError):
    """A scan or search was larger than the configured budget."""


@dataclass(frozen=True)
class TorusCharacter:
    """A character of the split torus: weight coordinates modulo ``modulus``."""

    coords: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        object.__setattr__(
            self, "coords", tuple(c % self.modulus for c in self.coords))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)


def _require_split(spec: GroupSpec) -> None:
    if spec.is_suzuki_ree or spec.datum.twist_order != 1:
        raise UnsupportedGroupError(
            f"torus-character orbits are computed for split groups only, "
            f"not {spec.describe()}")


def character_from_weight(spec: GroupSpec, weight) -> TorusCharacter:
    """Restrict a weight to the split torus: reduce coordinates mod q-1."""
    _require_split(spec)
    m = max(spec.q - 1, 1)
    coords = tuple(weight)
    if len(coords) != spec.datum.rank:
        raise ValueError("weight length does not match the rank")
    return TorusCharacter(coords, m)


def _as_character(spec: GroupSpec, beta) -> TorusCharacter:
    if not isinstance(beta, TorusCharacter):
        return character_from_weight(spec, beta)
    _require_split(spec)
    if beta.modulus != max(spec.q - 1, 1):
        raise ValueError(
            f"character modulus {beta.modulus} is not q-1 for {spec.describe()}")
    if len(beta.coords) != spec.datum.rank:
        raise ValueError("character length does not match the rank")
    return beta


# ---------------------------------------------------------------------------
# Alcove geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _AlcovePlan:
    """Per-datum data for orbit sizes from alcove stabilizers.

    Node 0 of the extended diagram is the affine wall <x, theta^vee> = m;
    node i >= 1 is the wall x_i = 0.
    """

    simple_roots: tuple[tuple[int, ...], ...]  # fundamental-weight coordinates
    theta: tuple[int, ...]  # the root whose coroot is the highest coroot
    theta_form: tuple[int, ...]  # the highest coroot on simple coroots
    bonds: tuple[tuple[int, ...], ...]  # bond products between wall nodes
    omega: tuple[tuple[int, ...], ...]  # Ω as permutations of Kac coordinates
    wall_orders: dict = field(default_factory=dict)  # zero-set mask -> |W_J|


def _roots_with_coroots(datum: RootDatum):
    """Every root (fundamental-weight coordinates) with its coroot (on simple
    coroots), as the Weyl orbit of the simple pairs."""
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


def _to_alcove(plan: _AlcovePlan, x, m: int) -> tuple[int, ...]:
    """The point of the closed alcove in the W_a-orbit of ``x``.

    Reflects in a wall x_i = 0 while a coordinate is negative, then in the
    affine wall while <x, theta^vee> > m.  Each step brings x closer to the
    alcove's interior, so the walk ends.
    """
    x = list(x)
    while True:
        for i, c in enumerate(x):
            if c < 0:
                x = [a - c * r for a, r in zip(x, plan.simple_roots[i])]
                break
        else:
            h = sum(d * c for d, c in zip(plan.theta_form, x))
            if h <= m:
                return tuple(x)
            x = [a - (h - m) * t for a, t in zip(x, plan.theta)]


def _kac(plan: _AlcovePlan, x, m: int) -> tuple[int, ...]:
    return (m - sum(d * c for d, c in zip(plan.theta_form, x)), *x)


@lru_cache(maxsize=None)
def _alcove_plan(datum: RootDatum) -> _AlcovePlan:
    simple, pairs = _roots_with_coroots(datum)
    theta, theta_form = max(
        ((root, coroot) for root, coroot in pairs if min(coroot) >= 0),
        key=lambda pair: sum(pair[1]))
    n = datum.rank
    nodes = [(theta, theta_form)] + [
        (simple[i], tuple(int(k == i) for k in range(n))) for i in range(n)]

    def pairing(a, b):
        return sum(r * c for r, c in zip(nodes[a][0], nodes[b][1]))

    bonds = tuple(tuple(pairing(a, b) * pairing(b, a) if a != b else 0
                        for b in range(n + 1)) for a in range(n + 1))
    plan = _AlcovePlan(simple, theta, theta_form, bonds, omega=())
    # Ω ≅ P/Q is represented by 0 and the minuscule fundamental weights, the
    # nodes with coefficient 1 in the highest coroot.  Each permutes the Kac
    # coordinates; read the permutation off a point whose coordinates differ.
    probe = tuple(range(2, n + 2))
    m = 1 + sum(d * c for d, c in zip(theta_form, probe))
    before = _kac(plan, probe, m)
    omega = [tuple(range(n + 1))]
    for i, d in enumerate(theta_form):
        if d == 1:
            shifted = tuple(c + m * (k == i) for k, c in enumerate(probe))
            after = _kac(plan, _to_alcove(plan, shifted, m), m)
            omega.append(tuple(before.index(c) for c in after))
    return replace(plan, omega=tuple(omega))


def _component_order(bonds, comp: list[int]) -> int:
    """|W| for one connected finite-type subdiagram of the extended diagram.

    ``weights._classify_subdiagram`` cannot serve here: it works on the nodes
    of a :class:`RootDatum`, which has no affine node 0, and it derives the
    Bourbaki order of the nodes, which |W| does not need.  Only bond products
    are available for node 0, and they fix the order of the Weyl group.
    """
    k = len(comp)
    degree = {a: sum(1 for b in comp if bonds[a][b]) for a in comp}
    multiple = [(a, b) for a in comp for b in comp if a < b and bonds[a][b] > 1]
    if multiple:
        a, b = multiple[0]
        if bonds[a][b] == 3:
            return _weyl_order("G2", 2)
        if k == 4 and degree[a] == degree[b] == 2:
            return _weyl_order("F4", 4)
        return _weyl_order("B", k)
    branch = [a for a in comp if degree[a] == 3]
    if not branch:
        return _weyl_order("A", k)
    leaves = sum(1 for b in comp if bonds[branch[0]][b] and degree[b] == 1)
    return _weyl_order("D", k) if leaves >= 2 else _weyl_order(f"E{k}", k)


def _wall_stabilizer_order(plan: _AlcovePlan, kac: tuple[int, ...]) -> int:
    """|W_J| for J the walls through the alcove point, from its Kac coordinates."""
    mask = sum(1 << j for j, s in enumerate(kac) if s == 0)
    order = plan.wall_orders.get(mask)
    if order is None:
        order = 1
        unseen = {j for j, s in enumerate(kac) if s == 0}
        while unseen:
            comp = [unseen.pop()]
            for a in comp:
                linked = {b for b in unseen if plan.bonds[a][b]}
                unseen -= linked
                comp.extend(linked)
            order *= _component_order(plan.bonds, comp)
        plan.wall_orders[mask] = order
    return order


def _omega_fixing(plan: _AlcovePlan, kac: tuple[int, ...]) -> int:
    return sum(1 for perm in plan.omega
               if all(kac[p] == s for p, s in zip(perm, kac)))


def orbit_size(spec: GroupSpec, beta) -> int:
    """Length of the Weyl orbit of a torus character, by orbit-stabilizer in
    the extended affine Weyl group; nothing is enumerated."""
    char = _as_character(spec, beta)
    plan = _alcove_plan(spec.datum)
    m = char.modulus
    kac = _kac(plan, _to_alcove(plan, char.coords, m), m)
    return spec.datum.weyl_order // (
        _wall_stabilizer_order(plan, kac) * _omega_fixing(plan, kac))


# The largest orbit that :func:`orbit` lists.
ORBIT_BUDGET = 10 ** 6


def orbit(spec: GroupSpec, beta) -> frozenset[tuple[int, ...]]:
    """Weyl-group orbit of a torus character, as a set of coordinate tuples.

    Raises :class:`BudgetExceededError`, before enumerating anything, when
    the orbit has more than :data:`ORBIT_BUDGET` elements.
    """
    char = _as_character(spec, beta)
    size = orbit_size(spec, char)
    if size > ORBIT_BUDGET:
        raise BudgetExceededError(
            f"an orbit of {size} torus characters exceeds the budget "
            f"of {ORBIT_BUDGET}")
    return frozenset(weyl_orbit(spec.datum, char.coords, char.modulus))


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


def check_scan_budget(spec: GroupSpec, budget: int) -> None:
    """Raise :class:`BudgetExceededError` if a scan of ``spec`` would cover
    more than ``budget`` torus characters (a vacuous scan never does)."""
    _require_split(spec)
    m = spec.q - 1
    if m > 1 and m ** spec.datum.rank > budget:
        raise BudgetExceededError(
            f"{m ** spec.datum.rank} torus characters exceed the budget "
            f"of {budget}")


def orbit_scan(spec: GroupSpec, budget: int = 10 ** 7) -> OrbitScanReport:
    """Partition all torus characters into Weyl orbits.

    Reports the fixed characters, the smallest orbit of size larger than one,
    and a histogram of orbit sizes.  Each orbit is one Ω-orbit of alcove
    points, so only those are walked.  For q = 2 the torus is trivial and the
    scan is flagged vacuous.  Raises :class:`BudgetExceededError` if the
    character group has more than ``budget`` elements.
    """
    check_scan_budget(spec, budget)
    datum = spec.datum
    m = spec.q - 1
    if m <= 1:
        return OrbitScanReport(
            group=spec.describe(), modulus=max(m, 1), total_points=1,
            vacuous=True, fixed_points=((0,) * datum.rank,),
            min_nontrivial_orbit=None, orbit_size_histogram=((1, 1),))
    total = m ** datum.rank
    plan = _alcove_plan(datum)
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
# Linear algebra over F_l
# ---------------------------------------------------------------------------


def _kernel_mod(rows: list[list[int]], n: int, ell: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of a matrix over F_ell (rows of length n)."""
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


def _require_prime(ell: int) -> None:
    try:
        prime = factor_prime_power(ell) == (ell, 1)
    except ValueError:
        prime = False
    if not prime:
        raise ValueError(f"the modulus must be a prime, not {ell}")


def fixed_subspace_mod_ell(datum: RootDatum, ell: int) -> list[tuple[int, ...]]:
    """Basis of the common fixed space of all simple reflections over F_ell.

    Computed as the kernel of the stacked matrices M_i - I.
    """
    _require_prime(ell)
    n = datum.rank
    rows: list[list[int]] = []
    for mat in reflection_matrices(datum):
        for j in range(n):
            row = [mat[j][k] - (1 if j == k else 0) for k in range(n)]
            if any(c % ell for c in row):
                rows.append(row)
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return _kernel_mod(rows, n, ell)


# Not read by this module: the benchmark's `verify` workload picks its
# irreducibility cells by this projective-point count, a threshold from when
# small cells were decided by spinning every point.
_EXHAUSTIVE_POINT_LIMIT = 30_000


def is_irreducible_mod_ell(datum: RootDatum, ell: int) -> bool:
    """Is the natural reflection representation irreducible over F_ell?

    Rank 1 is one-dimensional.  For rank >= 2 the answer is yes exactly when
    det(Cartan) is nonzero mod ell and the digraph with an edge i -> j
    whenever ``cartan[j][i]`` is nonzero mod ell is strongly connected.

    Proof: a nonzero submodule U holds some v with v_i != 0, so it holds
    ``v - s_i v = v_i * alpha_i``; and with alpha_k it holds
    ``alpha_k - s_j alpha_k = cartan[j][k] * alpha_j``, so it holds every
    alpha_j reachable from i.  If the simple roots are a basis (det != 0)
    and every node reaches every other, U is everything.  Conversely the
    root span, when det = 0, or the span of the roots reachable from one
    node, when that is not every node, is a proper nonzero W-stable subspace.
    """
    _require_prime(ell)
    n = datum.rank
    if n == 1:
        return True
    if _kernel_mod(datum.cartan, n, ell):
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
