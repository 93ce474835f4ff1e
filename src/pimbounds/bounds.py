"""Lower bounds for dimensions of projective indecomposable modules.

Throughout, bounds are expressed through the multiplier c = dim(PIM) / |G|_p:
the dimension of a projective indecomposable module in defining
characteristic is c times the order of a Sylow p-subgroup, and every rule
implemented here produces a certified integer lower bound for c.

Rules available:

* exact rank-1 values (type A over any prime power);
* torus-character orbit sizes (split groups);
* the minimal-character-degree bound through Harish-Chandra restriction,
  on the nonzero weights with a trivial Borel socle (large linear, even
  orthogonal and exceptional E groups);
* parabolic descent with the factor-2 strengthening for classical groups;
* the 2^|J| bound from an independent set of Levi factors of type A1;
* embedded known minima for a handful of small groups.

Every bound comes wrapped in a :class:`BoundCertificate` recording the chain
of rules that produced it.

Each rule's scope is one predicate and each small-group fact one entry of
:func:`known_minimum`.  Both bound cascades and, through :func:`best_bound`,
the candidate sieve of :mod:`pimbounds.weights` read them.  The Sylow
classification states neither: each of its "no" answers comes from a case
analysis of :mod:`pimbounds.caseanalysis` or from certified bounds of at
least 2 at the zero weight and at every other non-Steinberg weight (all at
once by :func:`one_only_at_ends`, or weight by weight on the candidates of
the sieve), and each "yes" from an exact bound 1 at the zero weight.

Group plans: what the rules need to know about a group that does not depend
on the weight (its name, its table of descent values, the Steinberg
coefficients and the coefficient ranges, the scopes of the rules, the
embedded minimum, the Levi pieces that plain descent reads, the escape
pairs of the doubling step with the index of its parabolic's piece, for
split groups the torus-orbit cache of :func:`charlattice.torus_orbits` with
its modulus m = q-1, for split groups of rank >= 2 the leaf rule of
:func:`weights._independent_set_size` on the datum's walk, which finds the
size of a largest independent node set, cached per node set met, and for
groups in the restriction bound's scope its step) is built once per group,
on first use, and cached.
The pieces themselves depend on the datum only: :func:`weights._levi_piece`
builds each once per datum and orbit mask, and a plan holds those of
:func:`weights.descent_pieces`, which drops every piece lying strictly
inside a piece of split type A, since such a piece never sets the maximum,
and never builds the dropped ones (3 of 10 pieces are built on D4, 10 of
43 on E8).  The plan's entry for a piece holds the projection of
:func:`weights._piece_descent`, the one map from a group's coefficients
to a piece's, which :func:`weights.descend_weight` applies too, linked to
the plan of its descendant and that plan's table; the descendants' plans
are built with the group's.  The recursion :func:`_descent_value` is the one descent function:
it reads each piece's value from the descendant's table, computing it there
on a miss, and the doubling step reuses the value of its parabolic's piece.
So values live only in the tables of groups reached as descendants, and the
value asked for at the top is not stored.
Chain steps are frozen, so each step that does not depend on the weight, or
only on its value, is built once and shared.  The weight is checked once,
at the public entries :func:`best_bound` and :func:`descent_bound`: a
projection of a restricted weight is restricted, so the recursion runs on
coefficient tuples and builds no :class:`Weight`.  A weight then costs:

* a check that it is restricted, and a tuple comparison for Steinberg;
* its coefficients reduced mod m, and one dict read for the orbit length
  of that reduced point (the alcove walk of :mod:`pimbounds.charlattice`
  only on the point's first use);
* one bitmask of the nodes with a coefficient outside {0, q-1}, which
  keys the cached independent-set size and, when empty, admits the
  restriction step (the general Borel-socle criterion,
  ``socle_trivial_on_borel``, is a test oracle in ``tests/test_bounds.py``);
* one projection and one read of the descendant's table per piece of the
  plan, with no plan lookup and no hash of a group;
* and the rules that really depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import compress
from typing import Callable, NamedTuple

from .charlattice import TorusOrbits, torus_orbits
from .rootdata import GroupSpec, UnsupportedGroupError, factor_prime_power
from .weights import (
    Weight,
    _check_weight,
    _deepest_first,
    _descent_plan,
    _doubling_parabolic,
    _independent_set_size,
    _piece_descent,
    coefficient_ranges,
    descent_pieces,
    minimal_pim_candidates,
    steinberg_weight,
    twisted_bn_rank,
)


@dataclass(frozen=True)
class ChainStep:
    rule: str
    value: int
    detail: str

    def to_json(self) -> dict:
        return {"rule": self.rule, "value": self.value, "detail": self.detail}


@dataclass(frozen=True)
class BoundCertificate:
    """A certified lower bound for the PIM multiplier of one weight."""

    group: str
    weight: tuple[int, ...]
    bound: int
    exact: bool
    steps: tuple[ChainStep, ...]

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "weight": list(self.weight),
            "bound": self.bound,
            "exact": self.exact,
            "steps": [s.to_json() for s in self.steps],
        }


# ---------------------------------------------------------------------------
# Exact rank-1 values
# ---------------------------------------------------------------------------


def rank_one_multiplier(q: int, m: int) -> int:
    """Exact PIM multiplier for SL(2, q) at the restricted weight (m).

    With q = p^k and 0 <= m <= q-1: the Steinberg weight gives 1, the zero
    weight gives 2^k - 1, and otherwise the value is 2^r where r counts the
    base-p digits of m (k digits, leading zeros included) different from p-1.
    """
    p, k = factor_prime_power(q)
    if not 0 <= m <= q - 1:
        raise ValueError(f"weight {m} is not restricted for q={q}")
    if m == q - 1:
        return 1
    if m == 0:
        return 2 ** k - 1
    r = 0
    for _ in range(k):
        m, digit = divmod(m, p)
        r += digit != p - 1
    return 2 ** r


# ---------------------------------------------------------------------------
# Rule scopes
# ---------------------------------------------------------------------------


def _is_sl2(spec: GroupSpec) -> bool:
    """Scope of the exact rank-1 values: SL(2, q)."""
    d = spec.datum
    return d.family == "A" and d.rank == 1 and d.twist_order == 1


def _hc_in_scope(spec: GroupSpec) -> bool:
    """Scope of the restriction bound: split groups of type A with rank >= 4,
    of type D with rank >= 4 and q even, and of types E6, E7 and E8."""
    d = spec.datum
    return spec.is_split and (
        (d.family == "A" and d.rank >= 4)
        or (d.family == "D" and d.rank >= 4 and spec.q % 2 == 0)
        or d.family in ("E6", "E7", "E8"))


def _descends(spec: GroupSpec) -> bool:
    """Scope of parabolic descent: relative rank >= 2, except the Ree groups
    of type F4."""
    return twisted_bn_rank(spec.datum) >= 2 and not (
        spec.is_suzuki_ree and spec.datum.family == "F4")


# ---------------------------------------------------------------------------
# Embedded known minima for small groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownMinimum:
    """A certified lower bound for every non-Steinberg PIM of one group."""

    value: int
    rule: str
    zero_weight_value: int | None = None  # exact multiplier of the 1-PIM, if known


def known_minimum(spec: GroupSpec) -> KnownMinimum | None:
    """Embedded lower bound for non-Steinberg multipliers, if one exists.

    Four entries record a 1-PIM of multiplier 1 (``zero_weight_value=1``),
    from one argument: if G has a subgroup H of order |G|_{p'}, then the
    permutation module k[G/H] = Ind_H^G k is projective (k is a projective
    kH-module, since p does not divide |H|), has dimension |G|_p and maps
    onto k, so the projective cover of k is a summand of it.  Every
    projective module has dimension divisible by |G|_p, so that cover has
    dimension |G|_p, and the multiplier of the zero weight is 1.

    * SL(3, 2), p = 2: it is isomorphic to PSL(2, 7), and the stabiliser
      of a point of the projective line over F_7 is a subgroup 7:3 of
      order 21.  Its 1-PIM is the permutation module on those 8 points.
    * SU(3, 2) = 3^(1+2):Q8, p = 2: the normal subgroup 3^(1+2) of order
      27.
    * Sz(2) = C5:C4, p = 2: the normal subgroup C5.
    * ²G2(3), p = 3: it is isomorphic to PΓL(2, 8) = SL(2, 8):3, of order
      1512 = 2^3·3^3·7, and the Borel subgroup 2^3:7 of SL(2, 8) has order
      56 = |G|_{3'}.

    The other values follow from the counting identity
    |G|_{p'} = sum over the restricted weights of dim L(λ)·c(λ), which holds
    because the group algebra is the sum of the PIMs P(λ), each dim L(λ)
    times, and from c(λ) = c(λ*), since the dual of P(λ) is P(λ*).  The
    simple modules of SL(3, 2) and of SU(3, 2) in characteristic 2 have
    dimensions 1, 3, 3 and 8 (the zero weight, (1, 0), (0, 1) = (1, 0)* and
    the Steinberg weight), so 21 = 1 + 3c + 3c + 8 gives c = 2 for SL(3, 2)
    and 27 = 1 + 3c + 3c + 8 gives c = 3 for SU(3, 2).  Sz(2) has only the
    zero weight and the Steinberg weight (5 = 1 + 4), so its minimum over
    the non-Steinberg modules is the 1-PIM's.  For ²G2(3) the minimum 1
    is only the trivial bound.
    """
    d = spec.datum
    fam, rank, twist = d.family, d.rank, d.twist_order
    if spec.is_suzuki_ree:
        if fam == "B":
            if spec.field.q_squared > 2:
                return KnownMinimum(4, "suzuki-minimum")
            return KnownMinimum(1, "small-group-table", zero_weight_value=1)
        if fam == "G2" and spec.field.e == 0:
            return KnownMinimum(1, "small-group-table", zero_weight_value=1)
        if fam == "F4" and spec.field.e == 0:
            return KnownMinimum(14, "small-group-table")
        return None
    q = spec.q
    p, k = factor_prime_power(q)
    # Canonicalise the rank-2 symplectic/orthogonal coincidence.
    if fam == "B" and rank == 2:
        fam = "C"
    if fam == "C" and rank == 2 and twist == 1:
        if q == 2:
            return KnownMinimum(3, "small-group-table")
        if q == 3:
            return KnownMinimum(3, "small-group-table", zero_weight_value=2)
        if k == 1 and p > 3:
            return KnownMinimum(3, "rank2-prime-field")
    if fam == "A" and rank == 2 and q == 2:  # SL(3, 2) and SU(3, 2)
        return KnownMinimum(2 if twist == 1 else 3, "small-group-table",
                            zero_weight_value=1)
    if fam == "A" and rank == 2 and twist == 1 and k == 1 and p > 2:
        return KnownMinimum(2, "rank2-prime-field")
    if fam == "G2" and twist == 1:
        if q == 2:
            return KnownMinimum(5, "small-group-table")
        if k == 1 and p > 2:
            return KnownMinimum(6, "rank2-prime-field")
    if fam == "A" and rank == 2 and twist == 2 and k == 1 and p > 2:
        return KnownMinimum(3, "unitary3-prime-field")
    if fam == "A" and rank == 3 and twist == 2 and q == 2:
        return KnownMinimum(4, "small-group-table")
    if fam == "A" and rank == 4 and twist == 2 and q == 2:
        return KnownMinimum(5, "small-group-table")
    return None


_ONE_PIM_DETAIL = "embedded exact value for the 1-PIM"


def one_only_at_ends(spec: GroupSpec) -> bool:
    """Whether :func:`best_bound` is at least 2 at every restricted weight
    of ``spec`` other than the zero weight and the Steinberg weight.

    True when the exact rank-1 values apply (a weight m other than 0 and
    q-1 has a base-p digit other than p-1, so its value 2^r has r >= 1) or
    when an embedded minimum of at least 2 bounds every nonzero weight.
    False does not say that some other weight has bound 1.
    """
    plan = _group_plan(spec)
    return plan.sl2 or (plan.table_steps is not None
                        and plan.table_steps[1].value >= 2)


# ---------------------------------------------------------------------------
# Group plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, eq=False)
class _GroupPlan:
    """The weight-independent facts that every rule reads about one group."""

    group: str  # spec.describe(), the certificate's group name
    # The group's descent values, keyed by coefficient tuple.
    descent: dict[tuple[int, ...], int]
    q: int | None  # integer field size; None for the Suzuki and Ree groups
    steinberg: tuple[int, ...]
    ranges: tuple[int, ...]  # coefficient range sizes
    sl2: bool  # the scope of the exact rank-1 values
    # Split groups: the shared orbit-length cache of their torus characters,
    # which holds m = q-1; its alcove data is built on its first miss.
    torus: TorusOrbits | None
    # Groups in the scope of the restriction bound: its step, on a trivial
    # Borel socle.
    hc_step: ChainStep | None
    # The embedded table steps, for the zero weight and for the others.
    table_steps: tuple[ChainStep, ChainStep] | None
    # The Levi pieces of plain descent, those of ``weights.descent_pieces``;
    # None when the group does not descend.
    pieces: tuple[_PieceEntry, ...] | None
    # The doubling step, when a designated parabolic exists: the 0-based
    # index pairs whose equality is the escape pattern, and the index in
    # ``pieces`` of the parabolic's piece.
    escape_pairs: tuple[tuple[int, int], ...] | None
    doubling: int | None
    # Split groups of rank >= 2: the size of a largest independent set
    # inside a node bitmask, by the leaf rule, cached per mask with the plan
    # (about 0.5 us a walk at rank 4 against 0.1 us a cache read).  Every
    # group: the bit of each node.
    independent: Callable[[int], int] | None
    node_bits: tuple[int, ...]

    def table_step(self, coeffs: tuple[int, ...]) -> ChainStep | None:
        """The embedded value for one weight: the exact multiplier of the
        1-PIM when the table records it and the weight is zero, else the
        minimum."""
        if self.table_steps is None:
            return None
        return self.table_steps[1] if any(coeffs) else self.table_steps[0]

    def node_mask(self, reduced: tuple[int, ...]) -> int:
        """The bitmask of the nodes whose coefficient lies outside {0, q-1},
        from the coefficients of a restricted weight reduced mod q-1: the
        nodes where those are nonzero."""
        return sum(compress(self.node_bits, reduced))


def _table_steps(spec: GroupSpec) -> tuple[ChainStep, ChainStep] | None:
    table = known_minimum(spec)
    if table is None:
        return None
    minimum = ChainStep(table.rule, table.value,
                        "embedded minimum over non-Steinberg modules")
    if table.zero_weight_value is None:
        return minimum, minimum
    return ChainStep(table.rule, table.zero_weight_value, _ONE_PIM_DETAIL), minimum


def _doubling_step(spec: GroupSpec):
    """The escape pairs of the designated doubling parabolic and the index
    of its piece in :func:`weights.descent_pieces`, or ``(None, None)`` when
    the group has none.  That parabolic is proper, of type A and one
    Frobenius orbit, so it is a supported piece, and descent keeps it."""
    try:
        parabolic, pairs = _doubling_parabolic(spec)
    except UnsupportedGroupError:
        return None, None
    (piece,) = _descent_plan(parabolic)
    return pairs, descent_pieces(spec.datum).index(piece)


@lru_cache(maxsize=None)
def _group_plan(spec: GroupSpec) -> _GroupPlan:
    """The plan of a group, built on first use."""
    escape_pairs, doubling = _doubling_step(spec)
    return _GroupPlan(
        group=spec.describe(),
        descent={},
        q=None if spec.is_suzuki_ree else spec.q,
        steinberg=steinberg_weight(spec).coeffs,
        ranges=coefficient_ranges(spec),
        sl2=_is_sl2(spec),
        torus=torus_orbits(spec) if spec.is_split else None,
        hc_step=_hc_step(spec),
        table_steps=_table_steps(spec),
        pieces=(_piece_entries(descent_pieces(spec.datum), spec)
                if _descends(spec) else None),
        escape_pairs=escape_pairs,
        doubling=doubling,
        independent=(cache(partial(_independent_set_size,
                                   _deepest_first(spec.datum)))
                     if spec.is_split and spec.datum.rank >= 2 else None),
        node_bits=tuple(1 << i for i in range(spec.datum.rank)),
    )


# ---------------------------------------------------------------------------
# Restriction bound
# ---------------------------------------------------------------------------


def _hc_step(spec: GroupSpec) -> ChainStep | None:
    """The step of the minimal-degree bound through Harish-Chandra
    restriction, for a group in the scope of :func:`_hc_in_scope`, or None
    outside it.  :func:`best_bound` applies it to the weights λ with every
    coefficient in {0, q-1} (a trivial Borel socle, the groups in scope
    being split) other than the zero weight and the Steinberg weight.  There
    the multiplier c(λ) is at least the least degree of a nonlinear
    character of the Weyl group W.

    Proof.  Let U be the unipotent radical of a Borel subgroup B = U:T of
    G = G^F, so |U| = |G|_p.  The projective cover Q of L(λ) restricts to a
    free kU-module, so c(λ) = dim Q^U = dim Hom_kG(Ind_U^G k, Q).  As kG is
    symmetric, Q is also the injective hull of L(λ), and that dimension is
    the composition multiplicity [Ind_U^G k : L(λ)].  As p does not divide
    |T|, Ind_U^G k is the sum of the Ind_B^G θ over the characters θ of T:

        c(λ) = Σ_θ [Ind_B^G θ : L(λ)].

    L(λ)^U is a line on which T acts through λ reduced mod q-1 (Curtis;
    Humphreys, *Modular Representations of Finite Groups of Lie Type*,
    2006), trivially here, so Hom_B(k, L(λ)) ≠ 0 and, by Frobenius
    reciprocity, L(λ) is a quotient of k[G/B].  Keeping only θ = 1,

        c(λ) >= [k[G/B] : L(λ)] = Σ_φ φ(1)·d(χ_φ, λ),

    with φ over the irreducible characters of W, χ_φ the unipotent
    principal-series character, whose multiplicity in the permutation
    character 1_B^G is φ(1) (the Hecke algebra of (G, B) is a deformation
    of the group algebra of W), and d(χ, λ) the decomposition number.  The
    groups in scope are simply laced, so their reflections are conjugate
    and the only linear characters of W are 1 and the sign.  They give 1_G
    and the Steinberg character, which reduce to L(0) and to the Steinberg
    module.  As λ is neither, some nonlinear φ has d(χ_φ, λ) >= 1, and
    c(λ) >= φ(1).

    The zero weight is left out: there 1_G gives the composition factor
    and no nonlinear φ is forced.  SL(3, 2) shows that the degree can fail
    at it, with c(0) = 1 below 2, the least nonlinear degree of S_3.  The
    proof uses neither q even nor rank >= 4.  On a nontrivial Borel socle
    the weight reduces to a nonzero torus character, whose Weyl orbit the
    torus-orbit step gives.
    """
    if not _hc_in_scope(spec):
        return None
    return ChainStep("hc-restriction", spec.datum.min_nonlinear_degree,
                     "trivial Borel socle: minimal nonlinear Weyl character "
                     "degree")


# ---------------------------------------------------------------------------
# Recursive descent bound
# ---------------------------------------------------------------------------

class DescentMemo:
    """Counts of the reads of a descendant's descent table (``lookups``) and
    of the values computed into one (``misses``).  The values live in the
    ``descent`` table of each group plan, and only a group reached as a
    descendant, through a Levi piece, has values in its table."""

    __slots__ = ("lookups", "misses")

    def __init__(self):
        self.lookups = 0
        self.misses = 0


_DESCENT_MEMO = DescentMemo()


def _reset_descent_memo() -> DescentMemo:
    """Drop every descent value, with the group plans that hold them, and
    start new counts, which are returned."""
    global _DESCENT_MEMO
    _group_plan.cache_clear()
    _DESCENT_MEMO = DescentMemo()
    return _DESCENT_MEMO


def descent_bound(spec: GroupSpec, weight: Weight) -> int:
    """Best multiplier bound obtainable by recursion through parabolics.

    Combines: exact rank-1 values, embedded known minima, the independent-set
    bound, plain descent (the multiplier of a group bounds below the
    multiplier of any ambient group restricting to it), and the factor-2
    strengthening along the designated type-A parabolic of the classical
    groups.  The value of each descendant weight is memoised in its group's
    table; the value asked for here is computed afresh, and not stored.
    Raises ValueError for a weight that is not restricted for the group.
    """
    plan = _group_plan(spec)
    _check_weight(weight, plan.ranges)
    return _descent_value(weight.coeffs, plan)


class _PieceEntry(NamedTuple):
    """One Levi piece of a group: the projection of a weight's coefficients
    to the descendant's, the descendant's descent table and its plan.  A
    map that sends the descendant's coefficients to another weight of the
    same value, such as a canonical one under a diagram symmetry, composes
    into the projection."""

    project: Callable[[tuple[int, ...]], tuple[int, ...]]
    table: dict[tuple[int, ...], int]
    plan: _GroupPlan


def _piece_entries(pieces, spec: GroupSpec) -> tuple[_PieceEntry, ...]:
    """The entries of some Levi pieces of a group: each piece's projection
    from :func:`weights._piece_descent`, linked to the plan of its
    descendant, which is built here if it is new."""
    entries = []
    for piece in pieces:
        dspec, project = _piece_descent(piece, spec)
        dplan = _group_plan(dspec)
        entries.append(_PieceEntry(project, dplan.descent, dplan))
    return tuple(entries)


def _descent_value(coeffs: tuple[int, ...], plan: _GroupPlan) -> int:
    """The body of :func:`descent_bound`, on the coefficients of a
    restricted weight.

    Plain descent takes the best value over the Levi pieces of
    :func:`weights.descent_pieces`, the pieces of :func:`weights.levi_pieces`
    that do not lie strictly inside a piece of split type A; that equals the
    best value over all of them, and so over every descendant of every
    supported proper parabolic.  Each piece reads its
    descendant's table and computes the value there on a miss; a projection
    of a restricted weight is restricted, so it is not checked again.  The
    doubling step takes twice the value of the designated parabolic's piece,
    which plain descent has just read, unless the weight is equal on every
    escape pair (see :func:`weights._doubling_parabolic`)."""
    if coeffs == plan.steinberg:
        return 1
    if plan.sl2:
        return rank_one_multiplier(plan.q, coeffs[0])
    table = plan.table_step(coeffs)
    best = 1 if table is None else table.value
    if plan.pieces is None:
        return best  # every split group of rank >= 2 descends
    if plan.independent is not None:
        m = plan.torus.m
        mask = plan.node_mask(tuple([c % m for c in coeffs]))
        best = max(best, 2 ** plan.independent(mask))
    return _descend(coeffs, plan, best)


def _descend(coeffs: tuple[int, ...], plan: _GroupPlan, best: int) -> int:
    """The tail of :func:`_descent_value` for a group that descends: the
    largest of ``best``, which is the weight's floor (its table value or 1,
    raised to 2^size by the independent-set step), the values of the Levi
    pieces and the doubling step."""
    memo = _DESCENT_MEMO
    memo.lookups += len(plan.pieces)
    values = []
    for project, dtable, dplan in plan.pieces:
        dcoeffs = project(coeffs)
        value = dtable.get(dcoeffs)
        if value is None:
            memo.misses += 1
            value = dtable[dcoeffs] = _descent_value(dcoeffs, dplan)
        values.append(value)
    best = max([best, *values])
    pairs = plan.escape_pairs
    if pairs is not None and any(coeffs[i] != coeffs[j] for i, j in pairs):
        best = max(best, 2 * values[plan.doubling])
    return best


# ---------------------------------------------------------------------------
# Combined certificate
# ---------------------------------------------------------------------------


# Steps are frozen, so each value's step is built once and shared.
_STEINBERG_STEP = ChainStep("steinberg", 1,
                            "defect-zero module: multiplier exactly 1")


@lru_cache(maxsize=None)
def _torus_step(size: int) -> ChainStep:
    return ChainStep("torus-orbit", size,
                     "Weyl orbit length of the weight reduced modulo q-1")


@lru_cache(maxsize=None)
def _independent_step(size: int) -> ChainStep:
    return ChainStep("independent-set", 2 ** size,
                     f"2^{size} from an independent set of A1 Levi factors")


@lru_cache(maxsize=None)
def _descent_step(value: int) -> ChainStep:
    return ChainStep("parabolic-descent", value,
                     "recursion through twist-stable parabolics")


def best_bound(spec: GroupSpec, weight: Weight) -> BoundCertificate:
    """Best certified lower bound for the multiplier of one restricted weight.

    Runs every applicable rule and returns a certificate whose chain records
    each rule's contribution.  The bound is exact for the Steinberg weight,
    for rank-1 groups of type A and for a 1-PIM whose value is embedded.
    Raises ValueError for a weight that is not restricted for the group.
    """
    plan = _group_plan(spec)
    _check_weight(weight, plan.ranges)
    coeffs = weight.coeffs
    if coeffs == plan.steinberg:
        return BoundCertificate(plan.group, coeffs, 1, True, (_STEINBERG_STEP,))
    steps: list[ChainStep] = []
    exact = plan.sl2
    if exact:
        steps.append(ChainStep("rank1-exact",
                               rank_one_multiplier(plan.q, coeffs[0]),
                               "exact rank-1 multiplier from base-p digits"))
    table = plan.table_step(coeffs)
    floor = 1  # the floor that _descent_value would derive for the weight
    if table is not None:
        steps.append(table)
        exact = exact or table.detail == _ONE_PIM_DETAIL
        floor = table.value
    torus = plan.torus
    if torus is not None:
        m = torus.m
        reduced = tuple([c % m for c in coeffs])
        steps.append(_torus_step(torus.size(reduced)))
        if plan.independent is not None:
            mask = plan.node_mask(reduced)
            size = plan.independent(mask)
            if size:
                steps.append(_independent_step(size))
                floor = max(floor, 2 ** size)
            # The restriction bound's scope lies in this branch; its Borel
            # socle is trivial exactly when the mask is empty, and its proof
            # leaves out the zero weight.
            if plan.hc_step is not None and not mask and any(coeffs):
                steps.append(plan.hc_step)
    if plan.pieces is not None:
        steps.append(_descent_step(_descend(coeffs, plan, floor)))
    bound = max((s.value for s in steps), default=1)
    return BoundCertificate(plan.group, coeffs, bound, exact, tuple(steps))


# ---------------------------------------------------------------------------
# Classification: can a PIM be as small as a Sylow p-subgroup?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SylowDimensionVerdict:
    """Answer to: does some PIM have dimension exactly |G|_p (besides the
    Steinberg module, which always does)?"""

    group: str
    answer: str  # "yes" | "no" | "undecided"
    reasons: tuple[str, ...]
    witnesses: tuple[tuple[int, ...], ...] = field(default=())

    def to_json(self) -> dict:
        return {"group": self.group, "answer": self.answer,
                "reasons": list(self.reasons),
                "witnesses": [list(w) for w in self.witnesses]}


def _case_analysis(spec: GroupSpec) -> str | None:
    """The outcome of the exhaustive case analysis stated for ``spec``, if
    any: the Ree groups of type G2 with e >= 1, and the special unitary
    groups of degree 4 and the triality groups over F_p with p odd."""
    from .caseanalysis import d4_verify, ree_verify, u4_verify

    d = spec.datum
    if spec.is_suzuki_ree:
        if d.family != "G2" or spec.field.e < 1:
            return None
        outcome = ree_verify(spec.field.e)
    else:
        p, k = factor_prime_power(spec.q)
        kind = (d.family, d.rank, d.twist_order)
        if k != 1 or p == 2 or kind not in (("A", 3, 2), ("D", 4, 3)):
            return None
        if kind == ("D", 4, 3):
            return f"cyclotomic divisibility analysis: {d4_verify(p).outcome}"
        outcome = u4_verify(p)
    return (f"exhaustive decomposition analysis: {outcome.outcome} "
            f"({outcome.candidates_considered} candidates eliminated)")


def classify_dim_equal_sylow(spec: GroupSpec) -> SylowDimensionVerdict:
    """Decide whether a non-Steinberg PIM of dimension |G|_p can exist.

    "yes" is returned, with the zero weight as witness, when the zero
    weight's certificate from :func:`best_bound` is exact and equals 1: the
    projective cover of the trivial module then has dimension |G|_p.  That
    holds for SL(2, p), by the exact rank-1 values (PSL(2, 7) is SL(3, 2),
    a "yes" in characteristic 2), and for each group whose entry in
    :func:`known_minimum` gives the 1-PIM multiplier 1: SL(3, 2), SU(3, 2),
    Sz(2) and the smallest Ree group of type G2.

    "no" has two routes.  The first is an exhaustive case analysis
    (:func:`_case_analysis`), whose outcome is the reason.  The second reads
    certified bounds only: the zero weight has bound at least 2, and every
    other non-Steinberg weight is shown to have bound at least 2 by
    :func:`_others_route`, either at once by :func:`one_only_at_ends` or by
    the bound of each weight that :func:`weights.minimal_pim_candidates`
    keeps.  Its reason names the route and the zero weight's bound.
    Otherwise, and when the sieve does not support the group, the answer is
    "undecided".

    Proof of the second route.  Every bound is at most the multiplier, so
    the zero weight has multiplier at least 2, and so, when
    :func:`one_only_at_ends` holds, has every other non-Steinberg weight.
    Otherwise let λ be a non-Steinberg weight of multiplier 1.  It is not
    zero.  Parabolic descent bounds the multiplier of λ below by that of
    each Levi piece at the projected weight, so each projection has
    multiplier 1 and bound 1, and the sieve, which leaves out only the zero
    and the Steinberg weights and lets every weight through a piece it does
    not support, keeps λ.  So λ is a candidate, whose bound is at least 2,
    against its multiplier 1.
    """

    def verdict(answer, reason, witnesses=()):
        return SylowDimensionVerdict(spec.describe(), answer, (reason,),
                                     tuple(witnesses))

    zero = best_bound(spec, Weight((0,) * spec.datum.rank))
    if zero.exact and zero.bound == 1:
        # The exact step comes first in the chain: the rank-1 value or the
        # table's.
        return verdict("yes", "the projective cover of the trivial module "
                       f"has multiplier 1 ({zero.steps[0].detail})",
                       [zero.weight])
    analysis = _case_analysis(spec)
    if analysis is not None:
        return verdict("no", analysis)
    route = _others_route(spec) if zero.bound >= 2 else None
    if route is None:
        return verdict("undecided", "no evidence embedded")
    return verdict("no", f"{route}: every other non-Steinberg weight has "
                   f"bound >= 2, and the zero weight has bound {zero.bound}")


def _others_route(spec: GroupSpec) -> str | None:
    """The route by which :func:`best_bound` is at least 2 at every
    restricted weight other than the zero and the Steinberg weights, or
    None: the rule behind :func:`one_only_at_ends` (``rank1-exact`` or the
    rule of the embedded minimum), read from the group plan as it reads it,
    or else the candidate sieve with its number of weights, when each of
    them has bound at least 2.  A sieve that does not support the group
    (relative rank 1, or an unsupported Levi piece) gives None."""
    if one_only_at_ends(spec):
        plan = _group_plan(spec)
        return "rank1-exact" if plan.sl2 else plan.table_steps[1].rule
    try:
        candidates = minimal_pim_candidates(spec)
    except UnsupportedGroupError:
        return None
    if any(best_bound(spec, w).bound < 2 for w in candidates):
        return None
    return f"candidate sieve over {len(candidates)} candidates"
