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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

from .degrees import DegreePolynomial, X

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

_EXCEPTIONAL_RANK = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}

# Degrees of the basic Weyl-group invariants; their product is the Weyl group
# order and q^N * prod(q^d - 1) is the order of the split group, N being the
# number of positive roots.
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


def _long_nodes(family: str, rank: int) -> tuple[bool, ...]:
    if family == "B":
        return tuple(i < rank - 1 for i in range(rank))
    if family == "C":
        return tuple(i == rank - 1 for i in range(rank))
    if family == "F4":
        return (True, True, False, False)
    if family == "G2":
        return (False, True)
    return (True,) * rank


def _diagram_perm(family: str, rank: int, twist: int) -> tuple[int, ...]:
    identity = tuple(range(1, rank + 1))
    if twist == 1:
        return identity
    if twist == 2:
        if family == "A":
            return tuple(rank + 1 - i for i in range(1, rank + 1))
        if family == "D":
            perm = list(identity)
            perm[rank - 2], perm[rank - 1] = rank, rank - 1
            return tuple(perm)
        if family == "E6":
            return (6, 2, 5, 4, 3, 1)
        if family in ("B", "G2") and rank == 2:
            return (2, 1)
        if family == "F4":
            return (4, 3, 2, 1)
    if twist == 3 and family == "D" and rank == 4:
        return (3, 2, 4, 1)
    raise UnsupportedGroupError(
        f"no diagram symmetry of order {twist} for {family}{rank}")


def _positive_root_count(family: str, rank: int) -> int:
    return {
        "A": rank * (rank + 1) // 2,
        "B": rank * rank,
        "C": rank * rank,
        "D": rank * (rank - 1),
        "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
    }[family]


def _weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return (2 ** rank) * math.factorial(rank)
    if family == "D":
        return (2 ** (rank - 1)) * math.factorial(rank)
    return math.prod(_INVARIANT_DEGREES[family])


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
    def _adjacency(self) -> dict[int, frozenset[int]]:
        # Built once, on first use: the weight sieves ask for the diagram on
        # every weight.
        return {i: frozenset(j for j in range(1, self.rank + 1)
                             if j != i and self.cartan[i - 1][j - 1] != 0)
                for i in range(1, self.rank + 1)}

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        # The nonzero entries (j, cartan[j][i]) of each simple root alpha_i,
        # for the orbit kernel.
        return tuple(tuple((j, row[i]) for j, row in enumerate(self.cartan)
                           if row[i])
                     for i in range(self.rank))

    def adjacency(self) -> Mapping[int, frozenset[int]]:
        """Neighbours of each 1-based node in the Dynkin diagram (read-only)."""
        return MappingProxyType(self._adjacency)

    def coxeter_order(self, i: int, j: int) -> int:
        """Order of s_i s_j, read off the Cartan matrix."""
        if i == j:
            return 1
        prod = self.cartan[i - 1][j - 1] * self.cartan[j - 1][i - 1]
        try:
            return {0: 2, 1: 3, 2: 4, 3: 6}[prod]
        except KeyError:  # pragma: no cover - impossible for crystallographic data
            raise ValueError(f"invalid Cartan entry product {prod}")


@lru_cache(maxsize=None)
def build_root_datum(family: str, rank: int, twist_order: int = 1) -> RootDatum:
    """Construct the root datum for ``family``/``rank`` with a diagram twist.

    Valid twists: 1 everywhere; 2 on A (rank >= 2), D (rank >= 4), E6, and on
    B2/G2/F4 for the Suzuki and Ree groups; 3 on D4.
    """
    if family in _EXCEPTIONAL_RANK:
        if rank != _EXCEPTIONAL_RANK[family]:
            raise UnsupportedGroupError(f"{family} has rank {_EXCEPTIONAL_RANK[family]}")
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

    if twist_order not in (1, 2, 3):
        raise UnsupportedGroupError(f"unsupported twist order {twist_order}")
    if twist_order == 2:
        ok = (
            (family == "A" and rank >= 2)
            or (family == "D" and rank >= 4)
            or family == "E6"
            or (family == "B" and rank == 2)
            or family in ("G2", "F4")
        )
        if not ok:
            raise UnsupportedGroupError(f"no order-2 twist for {family}{rank}")
    if twist_order == 3 and not (family == "D" and rank == 4):
        raise UnsupportedGroupError("order-3 twist exists only for D4")

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
        positive_root_count=_positive_root_count(family, rank),
        weyl_order=_weyl_order(family, rank),
        min_nonlinear_degree=_min_nonlinear_degree(family, rank),
        long_nodes=_long_nodes(family, rank),
    )
    _check_perm_preserves_cartan(datum)
    return datum


def _check_perm_preserves_cartan(datum: RootDatum) -> None:
    """The diagram symmetry must preserve Coxeter data (not lengths)."""
    n = datum.rank
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a = datum.coxeter_order(i, j)
            b = datum.coxeter_order(datum.apply_perm(i), datum.apply_perm(j))
            if a != b:
                raise UnsupportedGroupError(
                    f"diagram permutation does not preserve the diagram of "
                    f"{datum.family}{datum.rank}")


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


def apply_reflection(datum: RootDatum, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
    """Apply the simple reflection s_i to a weight vector."""
    a = v[i - 1]
    if a == 0:
        return v
    col = tuple(datum.cartan[j][i - 1] for j in range(datum.rank))
    return tuple(v[j] - a * col[j] for j in range(datum.rank))


def weyl_orbit(datum: RootDatum, start: tuple[int, ...],
               modulus: int | None = None) -> set[tuple[int, ...]]:
    """The orbit of a weight under the Weyl group, by breadth-first closure.

    With ``modulus`` the weight is read modulo it, and ``start`` must already
    be reduced.  Each simple reflection changes only the coordinates where
    the simple root is nonzero, and fixes a weight with a zero coordinate at
    its node.
    """
    columns = datum._columns
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i, col in enumerate(columns):
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
    """Weyl group order computed by breadth-first closure.

    The orbit of a strictly dominant weight is free, so the closure of
    ``(1, ..., 1)`` under the simple reflections has exactly ``|W|`` elements;
    enumerating weight vectors is equivalent to enumerating group elements but
    far cheaper than multiplying matrices.
    """
    return len(weyl_orbit(datum, (1,) * datum.rank))


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


@dataclass(frozen=True)
class GroupSpec:
    """A root datum together with a field parameter."""

    datum: RootDatum
    field: IntegerField | SuzukiReeField

    def __post_init__(self):
        if isinstance(self.field, SuzukiReeField):
            fam, rank = self.datum.family, self.datum.rank
            legal = {("B", 2): 2, ("G2", 2): 3, ("F4", 4): 2}
            if (fam, rank) not in legal or legal[(fam, rank)] != self.field.p:
                raise UnsupportedGroupError(
                    f"no Suzuki-Ree group of type {fam}{rank} with p={self.field.p}")
            if self.datum.twist_order != 2:
                raise UnsupportedGroupError("Suzuki-Ree groups require twist order 2")

    @property
    def is_suzuki_ree(self) -> bool:
        return isinstance(self.field, SuzukiReeField)

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
        d = self.datum
        base = d.family if d.family in _EXCEPTIONAL_RANK else f"{d.family}{d.rank}"
        if self.is_suzuki_ree:
            return f"2{base}(q^2={self.field.q_squared})"
        prefix = "" if d.twist_order == 1 else str(d.twist_order)
        return f"{prefix}{base}(q={self.field.q})"


def group(family: str, rank: int, *, q: int | None = None,
          twist_order: int = 1, suzuki_ree_e: int | None = None) -> GroupSpec:
    """Convenience constructor for a :class:`GroupSpec`."""
    if suzuki_ree_e is not None:
        if q is not None:
            raise ValueError("give either q or suzuki_ree_e, not both")
        p = 3 if family == "G2" else 2
        datum = build_root_datum(family, rank, 2)
        return GroupSpec(datum, SuzukiReeField(p, suzuki_ree_e))
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


def _split_degrees(family: str, rank: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return _INVARIANT_DEGREES[family]


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
