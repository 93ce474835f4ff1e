"""Root data for the finite groups of Lie type handled by this package.

A :class:`RootDatum` packages, for one irreducible root system in Bourbaki
numbering, the Cartan matrix, the diagram symmetry used for a twist, root/Weyl
counts and the minimum dimension of a nonlinear irreducible character of the
Weyl group.  A :class:`GroupSpec` adds the field parameter: either an integer
prime power q, or the odd-power parameter of a Suzuki or Ree group where the
field size satisfies q^2 = p^(2e+1).

Coordinate convention: weights are written in the basis of fundamental
weights, so the simple root alpha_i is column i of the Cartan matrix stored
here (entry ``cartan[j][i]`` is the pairing of alpha_i against the coroot of
alpha_j).  The simple reflection s_i sends a weight lam to
``lam - lam[i] * column_i``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .degrees import DegreePolynomial, X

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

# Degrees of the basic Weyl-group invariants of the exceptional families;
# :func:`_split_degrees` gives them for every family.  Their number is the
# rank, their product the Weyl group order and the sum of d - 1 the number N
# of positive roots, and q^N * prod(q^d - 1) is the order of the split group
# (Bourbaki, *Lie Groups and Lie Algebras*, ch. V §6).
_INVARIANT_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


class UnsupportedGroupError(ValueError):
    """Raised for family/rank/twist/field combinations outside the toolkit."""


class OrderFormulaError(UnsupportedGroupError):
    """Raised when no order formula is embedded for the requested group."""


def _simply_laced_cartan(rank: int, edges: set[tuple[int, int]]):
    mat = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        mat[i][i] = 2
    for i, j in edges:
        mat[i - 1][j - 1] = -1
        mat[j - 1][i - 1] = -1
    return mat


def _chain_edges(rank: int) -> set[tuple[int, int]]:
    return {(i, i + 1) for i in range(1, rank)}


def _standard_cartan(family: str, rank: int):
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j^vee> (Bourbaki)."""
    if family == "A":
        return _simply_laced_cartan(rank, _chain_edges(rank))
    if family == "D":
        edges = _chain_edges(rank - 1)
        edges.add((rank - 2, rank))
        return _simply_laced_cartan(rank, edges)
    if family in ("E6", "E7", "E8"):
        edges = {(1, 3), (2, 4)} | {(i, i + 1) for i in range(3, rank)}
        return _simply_laced_cartan(rank, edges)
    if family == "B":
        mat = _simply_laced_cartan(rank, _chain_edges(rank))
        mat[rank - 2][rank - 1] = -2  # long alpha_{n-1} against short coroot
        return mat
    if family == "C":
        mat = _simply_laced_cartan(rank, _chain_edges(rank))
        mat[rank - 1][rank - 2] = -2  # long alpha_n against short coroot
        return mat
    if family == "F4":
        mat = _simply_laced_cartan(4, _chain_edges(4))
        mat[1][2] = -2  # long alpha_2 against short coroot alpha_3
        return mat
    if family == "G2":
        return [[2, -1], [-3, 2]]  # alpha_1 short, alpha_2 long
    raise UnsupportedGroupError(f"unknown family {family!r}")


def _long_nodes(cartan: tuple[tuple[int, ...], ...]) -> tuple[bool, ...]:
    """Which simple roots are long, read off a Cartan matrix in the stored
    convention.  For bonded nodes i and j,
    |alpha_j|^2 / |alpha_i|^2 = cartan[i][j] / cartan[j][i], so the walk
    over the bonds from node 1 finds each node shorter than (-1), as long as
    (0) or longer than (+1) node 1; a connected diagram of finite type has
    at most two root lengths, and the long nodes are those of the top level.
    """
    level = {0: 0}
    todo = [0]
    while todo:
        i = todo.pop()
        for j, c in enumerate(cartan[i]):
            if c and j not in level:
                level[j] = level[i] + (c < cartan[j][i]) - (c > cartan[j][i])
                todo.append(j)
    top = max(level.values())
    return tuple(level[k] == top for k in range(len(cartan)))


def _type_name(family: str, rank: int) -> str:
    """The name of a type as :meth:`GroupSpec.describe` gives it: the family
    alone for an exceptional type, else the family and the rank."""
    return family if family in _INVARIANT_DEGREES else f"{family}{rank}"


def _diagram_perm(family: str, rank: int, twist: int) -> tuple[int, ...]:
    """The diagram symmetry of order ``twist``, and the one rule for which
    twists exist: order 1 everywhere; 2 on A (rank >= 2), D (rank >= 4),
    E6, and on B2, G2 and F4 for the Suzuki and Ree groups; 3 on D4."""
    identity = tuple(range(1, rank + 1))
    if twist == 1:
        return identity
    if twist == 2:
        if (family == "A" and rank >= 2 or family == "B" and rank == 2
                or family in ("G2", "F4")):
            return identity[::-1]
        if family == "D" and rank >= 4:
            return identity[:-2] + (rank, rank - 1)
        if family == "E6":
            return (6, 2, 5, 4, 3, 1)
    if twist == 3 and family == "D" and rank == 4:
        return (3, 2, 4, 1)
    raise UnsupportedGroupError(
        f"no diagram symmetry of order {twist} for {_type_name(family, rank)}")


def _split_degrees(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _INVARIANT_DEGREES[family]


def _weyl_order(family: str, rank: int) -> int:
    return math.prod(_split_degrees(family, rank))


def _min_nonlinear_degree(family: str, rank: int) -> int:
    """Minimum dimension of a nonlinear irreducible Weyl-group character.

    For rank 1 the symmetric group of order two has no nonlinear character;
    the degenerate value 1 is stored and never used by the bound rules.
    """
    if family == "A":
        if rank == 1:
            return 1
        return 2 if rank == 3 else rank
    if family in ("B", "C"):
        return 2 if rank in (2, 4) else rank - 1
    if family == "D":
        return 2 if rank == 4 else rank - 1
    return {"E6": 6, "E7": 7, "E8": 8, "F4": 2, "G2": 2}[family]


@dataclass(frozen=True)
class RootDatum:
    """An irreducible root system with an optional diagram twist."""

    family: str
    rank: int
    twist_order: int
    cartan: tuple[tuple[int, ...], ...]
    diagram_perm: tuple[int, ...]
    positive_root_count: int
    weyl_order: int
    min_nonlinear_degree: int
    long_nodes: tuple[bool, ...]

    def __hash__(self) -> int:
        # Over a subset of the fields that ``__eq__`` compares, so equal data
        # hash equal; the generated hash would rehash the Cartan matrix on
        # every cache lookup keyed by a datum or a GroupSpec.
        return hash((self.family, self.rank, self.twist_order))

    def apply_perm(self, node: int) -> int:
        """Image of a 1-based node under the diagram symmetry."""
        return self.diagram_perm[node - 1]

    def perm_orbit(self, node: int) -> tuple[int, ...]:
        orbit = [node]
        cur = self.apply_perm(node)
        while cur != node:
            orbit.append(cur)
            cur = self.apply_perm(cur)
        return tuple(orbit)

    @cached_property
    def _bonds(self) -> tuple[tuple[int, ...], ...]:
        # The bond product cartan[i][j] * cartan[j][i] of nodes i+1 and j+1
        # (0 for no bond and on the diagonal).  Built once, on first use.
        c = self.cartan
        return tuple(tuple(c[i][j] * c[j][i] if i != j else 0
                           for j in range(self.rank)) for i in range(self.rank))

    @cached_property
    def _neighbours(self) -> tuple[int, ...]:
        # The Dynkin diagram: the neighbours of node i as a bitmask (bit j-1
        # for node j), at index i-1.  Built once, on first use.
        return tuple(sum(1 << j for j, b in enumerate(row) if b)
                     for row in self._bonds)

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # The nonzero entries (j, cartan[j][i]) of each simple root alpha_i,
        # for the orbit kernel.
        return tuple(tuple((j, row[i]) for j, row in enumerate(self.cartan)
                           if row[i])
                     for i in range(self.rank))

    def coxeter_order(self, i: int, j: int) -> int:
        """Order of s_i s_j, read off the Cartan matrix."""
        if i == j:
            return 1
        return {0: 2, 1: 3, 2: 4, 3: 6}[self._bonds[i - 1][j - 1]]


@lru_cache(maxsize=None)
def build_root_datum(family: str, rank: int, twist_order: int = 1) -> RootDatum:
    """Construct the root datum for ``family``/``rank`` with a diagram twist.

    The valid twists are those of :func:`_diagram_perm`.
    """
    if family in _INVARIANT_DEGREES:
        if rank != len(_INVARIANT_DEGREES[family]):
            raise UnsupportedGroupError(
                f"{family} has rank {len(_INVARIANT_DEGREES[family])}")
    elif family == "A":
        if rank < 1:
            raise UnsupportedGroupError("A requires rank >= 1")
    elif family in ("B", "C"):
        if rank < 2:
            raise UnsupportedGroupError(f"{family} requires rank >= 2")
    elif family == "D":
        if rank < 3:
            raise UnsupportedGroupError("D requires rank >= 3")
    else:
        raise UnsupportedGroupError(f"unknown family {family!r}")

    standard = _standard_cartan(family, rank)
    # Stored convention: cartan[j][i] = <alpha_i, alpha_j^vee>, i.e. the
    # transpose of the standard matrix, so that simple roots are columns.
    cartan = tuple(
        tuple(standard[i][j] for i in range(rank)) for j in range(rank)
    )
    perm = _diagram_perm(family, rank, twist_order)
    datum = RootDatum(
        family=family,
        rank=rank,
        twist_order=twist_order,
        cartan=cartan,
        diagram_perm=perm,
        positive_root_count=sum(d - 1 for d in _split_degrees(family, rank)),
        weyl_order=_weyl_order(family, rank),
        min_nonlinear_degree=_min_nonlinear_degree(family, rank),
        long_nodes=_long_nodes(cartan),
    )
    _check_perm_preserves_cartan(datum)
    return datum


def _components(neighbours: tuple[int, ...], mask: int) -> list[int]:
    """The connected components of the node set ``mask`` of a diagram, as
    masks in the order of their lowest node.  Bit k of ``mask`` is a node
    whose neighbours are the bitmask ``neighbours[k]``."""
    comps = []
    while mask:
        comp, frontier = 0, mask & -mask
        while frontier:
            comp |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= neighbours[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
        comps.append(comp)
        mask &= ~comp
    return comps


def _walk(nb: dict[int, list[int]], prev: int | None, node: int) -> list[int]:
    """The path that starts at ``node`` and leaves ``prev`` behind, through
    nodes of at most two neighbours ``nb``, to its far end."""
    path = [node]
    while True:
        ahead = [k for k in nb[node] if k != prev]
        if not ahead:
            return path
        prev, node = node, ahead[0]
        path.append(node)


def _classify(neighbours: tuple[int, ...], bonds: tuple[tuple[int, ...], ...],
              long: tuple[bool, ...],
              mask: int) -> tuple[str, tuple[int, ...]]:
    """The type of a connected node set of a Dynkin diagram of finite type,
    and its nodes in the Bourbaki numbering of that type.

    Bit k of ``mask`` is node k, with the neighbours ``neighbours[k]`` (a
    bitmask), the bond products ``bonds[k]`` and a long root when
    ``long[k]``.  Returns ``(family, order)``, ``order`` listing the nodes k
    in the Bourbaki numbering of the family.  This is the one classifier of
    subdiagrams: of a root datum's diagram for the Levi pieces of
    :mod:`pimbounds.weights`, and of the extended diagram for the alcove
    stabilizers of :mod:`pimbounds.charlattice`.  A branch node makes a
    simply laced diagram of type D or E.  A chain is read from its lowest
    end; with a triple bond it is G2, short node first; with a double bond
    it is C when one node is long (short nodes first, so a B2 reads as
    C2), B when one is short and F4 otherwise (long nodes first).
    """
    nodes = [k for k in range(len(neighbours)) if mask >> k & 1]
    nb = {k: [j for j in nodes if neighbours[k] >> j & 1] for k in nodes}
    center = next((k for k in nodes if len(nb[k]) == 3), None)
    if center is not None:
        short, middle, far = sorted(
            (_walk(nb, center, k) for k in nb[center]), key=len)
        if len(middle) == 1:
            return "D", (*far[::-1], center, short[0], middle[0])
        return f"E{len(nodes)}", (middle[1], short[0], middle[0], center, *far)
    chain = _walk(nb, None, next(k for k in nodes if len(nb[k]) < 2))
    bond = max((bonds[i][j] for i, j in zip(chain, chain[1:])), default=1)
    if bond == 1:
        return "A", tuple(chain)
    longs = sum(long[k] for k in chain)
    family = ("G2" if bond == 3 else "C" if longs == 1
              else "B" if longs == len(chain) - 1 else "F4")
    if long[chain[0]] == (family in ("C", "G2")):
        chain.reverse()
    return family, tuple(chain)


def _check_perm_preserves_cartan(datum: RootDatum) -> None:
    """The diagram symmetry must preserve the bonds (not the lengths)."""
    bonds, perm = datum._bonds, [k - 1 for k in datum.diagram_perm]
    if any(bonds[i][j] != bonds[perm[i]][perm[j]]
           for i in range(datum.rank) for j in range(datum.rank)):
        raise UnsupportedGroupError(
            f"diagram permutation does not preserve the diagram of "
            f"{_type_name(datum.family, datum.rank)}")


def simple_reflection_matrix(datum: RootDatum, i: int) -> tuple[tuple[int, ...], ...]:
    """Matrix of s_i on the weight lattice in fundamental-weight coordinates.

    Acting on column vectors: ``(M v)[j] = v[j] - cartan[j][i-1] * v[i-1]``.
    """
    n = datum.rank
    if not 1 <= i <= n:
        raise ValueError(f"node index {i} out of range 1..{n}")
    rows = []
    for j in range(n):
        row = [0] * n
        row[j] = 1
        row[i - 1] -= datum.cartan[j][i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def reflection_matrices(datum: RootDatum) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(simple_reflection_matrix(datum, i) for i in range(1, datum.rank + 1))


def weyl_orbit(datum: RootDatum, start: tuple[int, ...],
               modulus: int | None = None,
               nodes: Iterable[int] | None = None) -> set[tuple[int, ...]]:
    """The orbit of a weight under the Weyl group, by breadth-first closure.

    With ``modulus`` the weight is read modulo it, and ``start`` must already
    be reduced.  With ``nodes`` (1-based) the orbit is taken under the
    parabolic subgroup generated by those simple reflections; the default is
    every node.  Each simple reflection changes only the coordinates where
    the simple root is nonzero, and fixes a weight with a zero coordinate at
    its node.
    """
    columns = datum._columns
    if nodes is None:
        nodes = range(1, datum.rank + 1)
    generators = tuple((i - 1, columns[i - 1]) for i in nodes)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i, col in generators:
                a = v[i]
                if not a:
                    continue
                w = list(v)
                if modulus is None:
                    for j, c in col:
                        w[j] -= a * c
                else:
                    for j, c in col:
                        w[j] = (w[j] - a * c) % modulus
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def weyl_order_by_bfs(datum: RootDatum) -> int:
    """Weyl group order as a product of small parabolic orbits.

    Write W_k for the subgroup generated by s_1, ..., s_k (Bourbaki order),
    so W_0 = 1 and W_n = W.  The fundamental weight omega_k pairs to 0 with
    the coroots of alpha_1, ..., alpha_{k-1} and to 1 with that of alpha_k,
    so it lies in the closed fundamental chamber of the reflection group W_k.
    Chevalley's theorem on parabolic stabilizers (Bourbaki, *Lie Groups and
    Lie Algebras*, ch. V, section 3.3, Proposition 1; Humphreys, *Reflection
    Groups and Coxeter Groups*, Theorem 1.12) says that the stabilizer of a
    point of the closed chamber is generated by the simple reflections that
    fix it, here W_{k-1}.  Hence ``|W_k| = |W_k . omega_k| * |W_{k-1}|`` and

        |W| = prod_{k=1}^{n} |W_k . omega_k|,

    each factor a breadth-first orbit of ``rootdata.weyl_orbit``: 60 points
    for E6 and 356 for E8, against the |W| points of the free orbit of
    ``(1, ..., 1)``.
    """
    n = datum.rank
    order = 1
    for k in range(1, n + 1):
        omega = tuple(int(j == k - 1) for j in range(n))
        order *= len(weyl_orbit(datum, omega, nodes=range(1, k + 1)))
    return order


# ---------------------------------------------------------------------------
# Field parameters and group specifications
# ---------------------------------------------------------------------------


def factor_prime_power(q: int) -> tuple[int, int]:
    """Write q = p^k with p prime, or raise ``ValueError``."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, k
    return q, 1  # q itself is prime


@dataclass(frozen=True)
class IntegerField:
    """An honest prime-power field size q."""

    q: int

    def __post_init__(self):
        factor_prime_power(self.q)

    @property
    def p(self) -> int:
        return factor_prime_power(self.q)[0]

    @property
    def exponent(self) -> int:
        return factor_prime_power(self.q)[1]


@dataclass(frozen=True)
class SuzukiReeField:
    """The field parameter of a Suzuki or Ree group: q^2 = p^(2e+1).

    ``p`` is 2 for types B2/F4 and 3 for type G2; ``q1 = p^e`` plays the role
    of q/sqrt(p).
    """

    p: int
    e: int

    def __post_init__(self):
        if self.p not in (2, 3):
            raise UnsupportedGroupError("Suzuki-Ree fields need p in {2, 3}")
        if self.e < 0:
            raise ValueError("field exponent must be nonnegative")

    @property
    def q_squared(self) -> int:
        return self.p ** (2 * self.e + 1)

    @property
    def q1(self) -> int:
        """q / sqrt(p) = p^e, an integer."""
        return self.p ** self.e


# The types of the Suzuki and Ree groups, with their characteristic.
_SUZUKI_REE_PRIME = {("B", 2): 2, ("G2", 2): 3, ("F4", 4): 2}


@dataclass(frozen=True)
class GroupSpec:
    """A root datum together with a field parameter."""

    datum: RootDatum
    field: IntegerField | SuzukiReeField

    def __post_init__(self):
        fam, rank = self.datum.family, self.datum.rank
        prime = _SUZUKI_REE_PRIME.get((fam, rank))
        if isinstance(self.field, SuzukiReeField):
            if prime != self.field.p:
                raise UnsupportedGroupError(
                    f"no Suzuki-Ree group of type {_type_name(fam, rank)} "
                    f"with p={self.field.p}")
            if self.datum.twist_order != 2:
                raise UnsupportedGroupError("Suzuki-Ree groups require twist order 2")
        elif self.datum.twist_order == 2 and prime:
            # The twist of B2, G2 and F4 exchanges long and short roots, so
            # its groups are the Suzuki and Ree groups alone.
            raise UnsupportedGroupError(
                f"the twisted groups of type {_type_name(fam, rank)} are "
                f"Suzuki or Ree groups and need a Suzuki-Ree field parameter")
        # Every plan cache is keyed by a spec, so hash it once; ``replace``
        # and unpickling run ``__init__`` again and hash afresh.  Callers
        # read the name per weight, so it is built once too.
        object.__setattr__(self, "_hash", hash((self.datum, self.field)))
        base = _type_name(fam, rank)
        if isinstance(self.field, SuzukiReeField):
            name = f"2{base}(q^2={self.field.q_squared})"
        else:
            twist = self.datum.twist_order
            name = f"{'' if twist == 1 else twist}{base}(q={self.field.q})"
        object.__setattr__(self, "_name", name)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GroupSpec, (self.datum, self.field)

    @property
    def is_suzuki_ree(self) -> bool:
        return isinstance(self.field, SuzukiReeField)

    @property
    def is_split(self) -> bool:
        """Twist order 1, and not a Suzuki or Ree group."""
        return self.datum.twist_order == 1 and not self.is_suzuki_ree

    @property
    def q(self) -> int:
        """Integer field size; raises for Suzuki-Ree parameters."""
        if self.is_suzuki_ree:
            raise UnsupportedGroupError(
                "Suzuki-Ree field size is an odd power of sqrt(p); use .field")
        return self.field.q

    @property
    def p(self) -> int:
        return self.field.p

    def describe(self) -> str:
        """The group's name, as certificates print it, built with the spec."""
        return self._name


def group(family: str, rank: int, *, q: int | None = None,
          twist_order: int = 1, suzuki_ree_e: int | None = None) -> GroupSpec:
    """Convenience constructor for a :class:`GroupSpec`."""
    if suzuki_ree_e is not None:
        if q is not None:
            raise ValueError("give either q or suzuki_ree_e, not both")
        if (family, rank) not in _SUZUKI_REE_PRIME:
            build_root_datum(family, rank)  # a type that does not exist says so
            raise UnsupportedGroupError(
                f"no Suzuki-Ree group of type {_type_name(family, rank)}")
        datum = build_root_datum(family, rank, 2)
        return GroupSpec(datum, SuzukiReeField(_SUZUKI_REE_PRIME[family, rank],
                                               suzuki_ree_e))
    if q is None:
        raise ValueError("a field size q is required")
    datum = build_root_datum(family, rank, twist_order)
    return GroupSpec(datum, IntegerField(q))


def special_linear(n: int, q: int) -> GroupSpec:
    """SL(n, q): split type A of rank n-1."""
    return group("A", n - 1, q=q)


def special_unitary(n: int, q: int) -> GroupSpec:
    """SU(n, q): twisted type A of rank n-1 (q is the size of the fixed field)."""
    return group("A", n - 1, q=q, twist_order=2)


# ---------------------------------------------------------------------------
# Order polynomials
# ---------------------------------------------------------------------------


def group_order_poly(spec: GroupSpec) -> tuple[DegreePolynomial, DegreePolynomial]:
    """Exact (p-part, p'-part) of the group order as polynomials.

    For split groups and for SU(4) and the triality groups of type D4 the
    variable is q (respectively p); for the Ree groups of type G2 it is the
    parameter t = 3^f, the p-part being 27 t^6.  Other twisted groups raise
    :class:`OrderFormulaError`.
    """
    d = spec.datum
    if d.twist_order == 1:
        p_part = DegreePolynomial.monomial(d.positive_root_count)
        pprime = DegreePolynomial.constant(1)
        for deg in _split_degrees(d.family, d.rank):
            pprime = pprime * (X ** deg - 1)
        return p_part, pprime
    if d.family == "A" and d.rank == 3 and d.twist_order == 2:
        # SU(4, q)
        return (X ** 6, (X ** 4 - 1) * (X ** 3 + 1) * (X ** 2 - 1))
    if d.family == "D" and d.rank == 4 and d.twist_order == 3:
        return (X ** 12, (X ** 6 - 1) * (X ** 2 - 1) * (X ** 8 + X ** 4 + 1))
    if d.family == "G2" and spec.is_suzuki_ree:
        # In t = 3^f: |G|_p = q^6 = 27 t^6 and |G|_{p'} = (q^2-1)(q^6+1).
        return (27 * X ** 6, (3 * X ** 2 - 1) * (27 * X ** 6 + 1))
    raise OrderFormulaError(
        f"no order formula embedded for {spec.describe()}")


def group_order(spec: GroupSpec) -> int:
    """Integer group order where an order polynomial is embedded."""
    p_part, pprime = group_order_poly(spec)
    if spec.is_suzuki_ree:
        x = spec.field.q1  # t = 3^e for the Ree groups of type G2
    else:
        x = spec.q
    return p_part.evaluate(x) * pprime.evaluate(x)
