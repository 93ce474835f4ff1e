"""Restricted weights, parabolic descent, and the minimal-candidate sieve.

A simple module for a finite group of Lie type in defining characteristic is
labelled by a restricted highest weight.  Restricting its projective cover to
a parabolic subgroup relates it to modules for a smaller group of Lie type
over the same or an extension field; this module implements that descent on
the level of weights, together with the sieve that lists the weights whose
projective cover could still have dimension equal to the order of a Sylow
p-subgroup.

Levi pieces: the part of a descent that does not depend on the weight or
on the field size is a tuple of *pieces*, one per Frobenius orbit of the
connected components of the node set (:func:`_frobenius_orbits`); a
Frobenius-fixed component is an orbit of length 1.  A piece (its Bourbaki
order, the twist induced on a fixed component and the descendant root
datum) depends on its orbit only, so it is built once per root datum and
orbit mask (:func:`_levi_piece`), on first use, and cached; an unsupported
orbit raises instead, and nothing is cached for it.  Its type and Bourbaki
order come from :func:`rootdata._classify`, the one classifier of Dynkin
subdiagrams, which :mod:`pimbounds.charlattice` reads for its wall sets
too.  A piece is also the single piece of its own node set, and
:func:`levi_pieces` lists each supported piece of a datum once, found from
the connected node sets.  The recursive bound in
:mod:`pimbounds.bounds` runs over these pieces instead of over every proper
parabolic.  A piece over a given field has one descendant group and one
projection of coefficients (:func:`_piece_descent`);
:func:`descend_weight`, the group plans of :mod:`pimbounds.bounds` and the
candidate sieve all read that one map.

The candidate sieve reads each parabolic's verdict off the coefficients on
its nodes (all maximal, or all zero); only whether a zero restriction is
allowed depends on the Levi factor, and that is read once per parabolic off
the descendant groups of its pieces.  Since every orbit of the diagram
symmetry on the nodes is such a parabolic, the sieve only examines the
weights that are all maximal or all zero on each orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import ge, itemgetter, mul

from .rootdata import (
    GroupSpec,
    IntegerField,
    RootDatum,
    UnsupportedGroupError,
    _classify,
    _components,
    build_root_datum,
)


class UnsupportedSubdiagramError(UnsupportedGroupError):
    """A parabolic descent produced a configuration outside the toolkit."""


@dataclass(frozen=True)
class Weight:
    """A dominant weight in fundamental-weight coordinates."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(map(int, self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs and min(coeffs) < 0:
            raise ValueError("weights handled here are dominant")

    def __getitem__(self, node: int) -> int:
        """Coefficient at a 1-based node."""
        return self.coeffs[node - 1]

    def __iter__(self):
        """The coefficients in node order (a 1-based ``__getitem__`` alone
        would make Python iterate from index 0, the last coefficient)."""
        return iter(self.coeffs)


def coefficient_ranges(spec: GroupSpec) -> tuple[int, ...]:
    """Per-node coefficient range sizes for the restricted weights.

    Integer-q groups restrict every coefficient to 0..q-1.  For the Suzuki
    and Ree groups the restricted range is 0..p^e-1 at long nodes and
    0..p^(e+1)-1 at short nodes, so the total count is again the order q^2n of
    the relevant torus power.
    """
    d = spec.datum
    if spec.is_suzuki_ree:
        q1 = spec.field.q1
        return tuple(q1 if is_long else spec.field.p * q1 for is_long in d.long_nodes)
    return (spec.q,) * d.rank


def enumerate_restricted_weights(spec: GroupSpec):
    """All restricted weights, in lexicographic order of their coordinates."""
    for coeffs in itertools.product(*(range(r) for r in coefficient_ranges(spec))):
        yield Weight(coeffs)


def restricted_weight_count(spec: GroupSpec) -> int:
    count = 1
    for r in coefficient_ranges(spec):
        count *= r
    return count


def steinberg_weight(spec: GroupSpec) -> Weight:
    """The weight of the Steinberg module: maximal in every coordinate."""
    return Weight(tuple(r - 1 for r in coefficient_ranges(spec)))


def steinberg_dimension(spec: GroupSpec) -> int:
    """Dimension of the Steinberg module = order of a Sylow p-subgroup.

    For an integer field size this is q^N with N the number of positive
    roots; for the Suzuki and Ree groups it is p^(N(2e+1)/2), e.g.
    3^(3(2e+1)) in type G2 (where N = 6).
    """
    n_pos = spec.datum.positive_root_count
    if spec.is_suzuki_ree:
        exponent2 = n_pos * (2 * spec.field.e + 1)
        if exponent2 % 2:
            raise UnsupportedGroupError("odd p-exponent; inconsistent datum")
        return spec.field.p ** (exponent2 // 2)
    return spec.q ** n_pos


# ---------------------------------------------------------------------------
# Parabolic subsets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParabolicSubset:
    """A set of simple-root nodes defining a standard parabolic subgroup."""

    datum: RootDatum
    nodes: frozenset[int]

    def __post_init__(self):
        bad = [i for i in self.nodes if not 1 <= i <= self.datum.rank]
        if bad:
            raise ValueError(f"node(s) {bad} out of range")

    def is_twist_stable(self) -> bool:
        return {self.datum.apply_perm(i) for i in self.nodes} == set(self.nodes)

    @property
    def mask(self) -> int:
        """The node set as a bitmask, bit i-1 for node i."""
        return sum(1 << (n - 1) for n in self.nodes)


@lru_cache(maxsize=None)
def _node_orbits(datum: RootDatum) -> tuple[frozenset[int], ...]:
    """The orbits of the diagram symmetry on the nodes, in the order of
    their least node, found once per datum."""
    return tuple(dict.fromkeys(frozenset(datum.perm_orbit(i))
                               for i in range(1, datum.rank + 1)))


@lru_cache(maxsize=None)
def proper_parabolics(datum: RootDatum) -> tuple[ParabolicSubset, ...]:
    """The twist-stable nonempty proper node sets (unions of some, but not
    all, diagram-symmetry orbits), built once per datum."""
    orbits = _node_orbits(datum)
    return tuple(
        ParabolicSubset(datum, frozenset(
            n for k, orb in enumerate(orbits) if mask >> k & 1 for n in orb))
        for mask in range(1, (1 << len(orbits)) - 1))


def twisted_bn_rank(datum: RootDatum) -> int:
    """Number of diagram-symmetry orbits on the nodes (the relative rank)."""
    return len(_node_orbits(datum))


# ---------------------------------------------------------------------------
# Induced symmetries
# ---------------------------------------------------------------------------


def _induced_twist(datum: RootDatum, order: tuple[int, ...], family: str):
    """The order of the symmetry induced on a Frobenius-fixed component.

    ``order`` lists original nodes in the Bourbaki numbering of the
    component.  The induced symmetry is trivial, or the flip of a type-A
    chain; any other is outside the toolkit.  The twist order of a datum is
    a prime, so a nontrivial induced symmetry has that order.
    """
    image = tuple(datum.apply_perm(node) for node in order)
    if image == order:
        return 1
    if family == "A" and image == order[::-1]:
        return 2
    raise UnsupportedSubdiagramError(
        f"induced symmetry of order {datum.twist_order} on a component of "
        f"type {family} is outside the toolkit")


# ---------------------------------------------------------------------------
# Descent of weights to parabolic Levi factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Descendant:
    """One Levi component after descent: a smaller group and a weight."""

    spec: GroupSpec
    weight: Weight
    original_nodes: tuple[int, ...]


def _check_parabolic(parabolic: ParabolicSubset) -> None:
    if not parabolic.nodes:
        raise ValueError("descent needs a nonempty node set")
    if len(parabolic.nodes) == parabolic.datum.rank:
        raise ValueError("descent needs a proper node set")
    if not parabolic.is_twist_stable():
        raise ValueError("descent needs a twist-stable node set")


def _check_weight(weight: Weight, ranges: tuple[int, ...]) -> None:
    """Reject a weight whose length is not the rank or that is not restricted
    for the coefficient ranges of its group."""
    if len(weight.coeffs) != len(ranges):
        raise ValueError("weight length does not match the rank")
    if any(map(ge, weight.coeffs, ranges)):
        raise ValueError("weight is not restricted for this group")


def _check_datum(spec: GroupSpec, parabolic: ParabolicSubset) -> None:
    # Equal data are the same datum: the per-datum caches below are keyed by
    # equality, so they may hand back a parabolic built on an equal copy.
    if parabolic.datum != spec.datum:
        raise ValueError("parabolic subset belongs to a different root datum")


@dataclass(frozen=True, slots=True)
class _LeviPiece:
    """One Frobenius orbit of the connected components of a Levi factor.

    ``datum`` is the root datum of the descendant.  ``indices[k]`` lists the
    0-based indices of the images of ``original_nodes`` (in the Bourbaki
    order of the descendant) under the k-th power of the Frobenius, for
    k = 0, ..., a-1, where a is the number of components in the orbit.  A
    Frobenius-fixed component is the orbit with a = 1.
    """

    datum: RootDatum
    original_nodes: tuple[int, ...]
    indices: tuple[tuple[int, ...], ...]


def _frobenius_orbits(datum: RootDatum, mask: int):
    """The Frobenius orbits of the connected components of the twist-stable
    node set ``mask``, as node masks in the order of their lowest node.
    Each orbit is the component of the lowest node left, closed under the
    diagram symmetry; the orbits are yielded as they are found."""
    for comp in _components(datum._neighbours, mask):
        if comp & mask:
            orbit = _closure(datum, comp)
            mask &= ~orbit
            yield orbit


def _closure(datum: RootDatum, mask: int) -> int:
    """The least node set that holds ``mask`` and is stable under the
    diagram symmetry, as a mask."""
    perm = datum.diagram_perm
    closed, image = 0, mask
    while image & ~closed:
        closed |= image
        image = sum(1 << (perm[i] - 1)
                    for i in range(datum.rank) if closed >> i & 1)
    return closed


@lru_cache(maxsize=None)
def _levi_piece(datum: RootDatum, orbit: int) -> _LeviPiece:
    """The piece of one Frobenius orbit of components (a node mask), built
    once per datum and orbit.

    The component of the lowest node is classified by
    :func:`rootdata._classify`, the one classifier of Dynkin subdiagrams,
    and read along the orbit; a fixed component keeps the symmetry that it
    induces.  The symmetry of a Suzuki or Ree group exchanges long and short
    nodes, and an orbit is read from its long component; the other twisted
    data are simply laced.  Raises :class:`UnsupportedSubdiagramError` for
    an unsupported orbit, and caches nothing for it.
    """
    comps = _components(datum._neighbours, orbit)
    family, order = _classify(datum._neighbours, datum._bonds,
                              datum.long_nodes, comps[0])
    order = tuple(k + 1 for k in order)
    twist = 1
    if len(comps) == 1:
        twist = _induced_twist(datum, order, family)
    elif not datum.long_nodes[order[0] - 1]:
        order = tuple(map(datum.apply_perm, order))
    indices = []
    images = order
    for _ in comps:
        indices.append(tuple(n - 1 for n in images))
        images = tuple(map(datum.apply_perm, images))
    return _LeviPiece(build_root_datum(family, len(order), twist), order,
                      tuple(indices))


def _descent_plan(parabolic: ParabolicSubset) -> tuple[_LeviPiece, ...]:
    """The pieces of the descent through a valid node set, one per
    Frobenius orbit of its connected components.  Raises
    :class:`UnsupportedSubdiagramError` at the first unsupported orbit."""
    datum = parabolic.datum
    return tuple(_levi_piece(datum, orbit)
                 for orbit in _frobenius_orbits(datum, parabolic.mask))


@lru_cache(maxsize=64)
def _extension_field(q: int) -> IntegerField:
    return IntegerField(q)


def _piece_descent(piece: _LeviPiece, spec: GroupSpec):
    """The descendant group of a piece of ``spec``, and the projection of the
    group's coefficients to the descendant's.

    A piece whose orbit has a components sums their coefficients along the
    orbit with multipliers q^k, k < a, and its descendant lives over q^a;
    for the Suzuki and Ree groups the multipliers are 1 and p^e and the
    field is p^(2e+1).  With a = 1 the projection copies coefficients, as an
    ``itemgetter`` over the indices.  Each projection of a restricted weight
    is restricted: it is at most (q-1)(1 + q + ... + q^(a-1)) = q^a - 1 (at
    most p^(2e+1) - 1 for the Suzuki and Ree groups).
    """
    field = spec.field
    a = len(piece.indices)
    if spec.is_suzuki_ree:
        multipliers, size = (1, field.q1)[:a], field.q_squared
    else:
        multipliers, size = tuple(field.q ** k for k in range(a)), field.q ** a
    dspec = GroupSpec(piece.datum, _extension_field(size))
    if a == 1:
        (indices,) = piece.indices
        if len(indices) > 1:
            return dspec, itemgetter(*indices)
        index = indices[0]  # an itemgetter of one index gives a scalar
        return dspec, lambda coeffs: (coeffs[index],)
    columns = tuple(zip(*piece.indices))

    def project(coeffs):
        return tuple([sum(map(mul, multipliers, map(coeffs.__getitem__, column)))
                      for column in columns])

    return dspec, project


def descend_weight(spec: GroupSpec, parabolic: ParabolicSubset,
                   weight: Weight) -> tuple[Descendant, ...]:
    """Restrict a weight to the Levi factor of a twist-stable parabolic.

    The Frobenius permutes the connected components of the subdiagram.  A
    component fixed by the symmetry gives a group of the same kind (twisted if
    the induced symmetry is nontrivial) over the same field, keeping its
    coefficients.  An orbit of a >= 2 components merges into one split group
    over the extension field q^a with coefficients
    ``a_j + q * a_{f(j)} (+ q^2 * a_{f(f(j))})`` read along the orbit; for the
    Suzuki and Ree groups the multiplier q is replaced by p^e and the
    descendant lives over p^(2e+1).

    Checks the datum, the node set and the weight, in that order, then
    applies the projection (:func:`_piece_descent`) of each piece of the
    node set's plan, the one the group plans of :mod:`pimbounds.bounds`
    hold.
    """
    _check_datum(spec, parabolic)
    _check_parabolic(parabolic)
    _check_weight(weight, coefficient_ranges(spec))
    out = []
    for piece in _descent_plan(parabolic):
        dspec, project = _piece_descent(piece, spec)
        out.append(Descendant(dspec, Weight(project(weight.coeffs)),
                              piece.original_nodes))
    return tuple(out)


@lru_cache(maxsize=None)
def levi_pieces(datum: RootDatum) -> tuple[_LeviPiece, ...]:
    """The supported pieces of a datum, one per twist-stable proper node set
    that is a single Frobenius orbit of connected components, in the order
    of :func:`proper_parabolics`.

    A piece depends only on its orbit of components, so every piece of a
    proper parabolic's plan is the piece of its own node set, and a plan is
    unsupported exactly when one of its pieces is.  A maximum over the
    pieces of every supported proper parabolic is therefore a maximum over
    these pieces.  The node sets with one orbit are the closures under the
    diagram symmetry of the connected node sets: each component of a
    closure holds an image of the connected set, so the closure of any
    component is the whole closure.  So they are found from the connected
    node sets (:func:`_connected_sets`), without listing the proper
    parabolics: 43 of the 254 of E8, 33 of 126 on E7, 10 of 14 on D4 and
    209 of 2^20 - 2 on A20.  Built once per datum.
    """
    orbits = _node_orbits(datum)

    def position(mask: int) -> int:
        # The index of the node set in ``proper_parabolics``, plus one.
        return sum(1 << k for k, orbit in enumerate(orbits)
                   if mask >> (min(orbit) - 1) & 1)

    sets = {_closure(datum, c) for c in _connected_sets(datum._neighbours)}
    sets.discard((1 << datum.rank) - 1)
    pieces = []
    for mask in sorted(sets, key=position):
        try:
            pieces.append(_levi_piece(datum, mask))
        except UnsupportedGroupError:
            pass
    return tuple(pieces)


def _connected_sets(neighbours: tuple[int, ...]) -> set[int]:
    """Every connected node set of a diagram, as masks, grown from the
    single nodes one neighbouring node at a time."""
    found = set()
    grown = {1 << k for k in range(len(neighbours))}
    while grown:
        found |= grown
        larger = set()
        for mask in grown:
            reach = 0
            for k, nb in enumerate(neighbours):
                if mask >> k & 1:
                    reach |= nb
            reach &= ~mask
            while reach:
                low = reach & -reach
                larger.add(mask | low)
                reach ^= low
        grown = larger
    return found


# ---------------------------------------------------------------------------
# Minimal-candidate sieve
# ---------------------------------------------------------------------------

# Levi factors on which a trivial restriction is still compatible with
# projectivity of the Borel socle: rank-1 groups over the prime field, and
# the two linear/unitary rank-2 groups over F_2.
def _trivial_restriction_allowed(dspec: GroupSpec) -> bool:
    d = dspec.datum
    if d.family == "A" and d.rank == 1:
        return dspec.field.exponent == 1
    if d.family == "A" and d.rank == 2:
        return dspec.q == 2  # both the split and the twisted form
    return False


def minimal_pim_candidates(spec: GroupSpec) -> list[Weight]:
    """Weights surviving the parabolic projectivity sieve.

    A non-Steinberg weight survives when, for every twist-stable nonempty
    proper node set J, either the restriction to the Levi of J is Steinberg,
    or every Levi component after descent is one of the small groups on which
    the trivial module is projective-compatible and carries the zero weight
    there.  The zero weight and the Steinberg weight are excluded from the
    output.  Requires relative rank >= 2 (otherwise there is no proper
    parabolic above the Borel) and a concrete field parameter.

    Both conditions are read off the coefficients on J: the restriction is
    Steinberg when they are all maximal, and every descendant weight is zero
    when they all vanish.  Whether every descendant is one of the small
    groups depends on J only, and is read once per J off the descendant
    groups of its plan's pieces.

    Each orbit O of the diagram symmetry on the nodes is itself such a J,
    proper because the relative rank is at least 2.  So the sieve on O alone
    is a necessary condition: a survivor is all maximal on every O, or all
    zero on an O whose Levi allows a trivial restriction.  Only those
    patterns, at most 2^(relative rank) of them, are run through the other
    node sets, in lexicographic order: 256 weights instead of 6,561 on
    E8(3).  The verdicts of the orbits are found first, in the order of
    :func:`proper_parabolics`, so an unsupported orbit Levi raises its
    :class:`UnsupportedSubdiagramError` even when no weight survives.
    """
    datum = spec.datum
    if twisted_bn_rank(datum) < 2:
        raise UnsupportedGroupError(
            f"{spec.describe()} has no proper parabolic above a Borel subgroup")
    top = steinberg_weight(spec).coeffs
    parabolics = proper_parabolics(datum)
    node_sets = [tuple(n - 1 for n in sorted(p.nodes)) for p in parabolics]
    trivial_allowed: dict[int, bool] = {}

    def allows_trivial(k: int) -> bool:
        if k not in trivial_allowed:
            trivial_allowed[k] = all(
                _trivial_restriction_allowed(_piece_descent(piece, spec)[0])
                for piece in _descent_plan(parabolics[k]))
        return trivial_allowed[k]

    node_orbits = _node_orbits(datum)
    orbits = [k for k, p in enumerate(parabolics) if p.nodes in node_orbits]
    patterns = [top]
    for k in orbits:
        if allows_trivial(k):
            patterns += [tuple(0 if i in node_sets[k] else c
                               for i, c in enumerate(coeffs))
                         for coeffs in patterns]
    others = [k for k in range(len(parabolics)) if k not in orbits]
    survivors = []
    for coeffs in sorted(patterns):
        if coeffs == top or not any(coeffs):
            continue
        for k in others:
            nodes = node_sets[k]
            if all(coeffs[i] == top[i] for i in nodes):
                continue  # Steinberg restriction on this Levi
            if not (allows_trivial(k) and not any(coeffs[i] for i in nodes)):
                break
        else:
            survivors.append(Weight(coeffs))
    return survivors


# ---------------------------------------------------------------------------
# Doubling and independence criteria
# ---------------------------------------------------------------------------


def _doubling_parabolic(
        spec: GroupSpec) -> tuple[ParabolicSubset, tuple[tuple[int, int], ...]]:
    """The designated type-A parabolic of the factor-2 strengthening, and the
    0-based index pairs whose equality is the escape pattern.

    For the unitary groups (twisted type A, ambient size 2n+k with k in
    {0,1}) a weight escapes exactly when ``a_i = a_{n+k+i}`` for all i < n.
    For types B/C/D (and twisted D) it escapes exactly when its restriction
    to the type-A Levi of the first n-1 nodes (n-2 for twisted D) is
    palindromic, i.e. the Levi module is self-dual.
    """
    d = spec.datum
    if d.family == "A" and d.twist_order == 2:
        rank = d.rank
        if rank % 2:  # ambient matrix size 2n+k
            n, k = (rank + 1) // 2, 0
        else:
            n, k = rank // 2, 1
        if n < 2:
            raise UnsupportedGroupError("doubling needs an SL(n) Levi with n >= 2")
        nodes = frozenset(range(1, n)) | frozenset(range(n + k + 1, rank + 1))
        pairs = tuple((i - 1, n + k + i - 1) for i in range(1, n))
        return ParabolicSubset(d, nodes), pairs
    if d.twist_order == 1 and (
        (d.family == "B" and d.rank > 2)
        or (d.family == "C" and d.rank > 1)
        or (d.family == "D" and d.rank > 3)
    ):
        size = d.rank - 1
    elif d.family == "D" and d.twist_order == 2 and d.rank > 3:
        size = d.rank - 2
    else:
        raise UnsupportedGroupError(
            f"no doubling criterion embedded for {spec.describe()}")
    pairs = tuple((i, size - 1 - i) for i in range(size // 2))
    return ParabolicSubset(d, frozenset(range(1, size + 1))), pairs


@lru_cache(maxsize=None)
def _independent_set_sizes(datum: RootDatum) -> tuple[int, ...]:
    """The size of a largest independent node set inside each node set,
    indexed by the bitmask of the set (bit i-1 for node i): 2^rank entries,
    built once per datum.

    A largest independent set inside m either leaves out the lowest node v
    of m, or holds v and none of its neighbours, so with closed(v) the mask
    of v and its neighbours

        size[m] = max(size[m - v], 1 + size[m & ~closed(v)]),

    and each entry reads two entries of smaller masks.
    """
    closed = [(1 << i) | nb for i, nb in enumerate(datum._neighbours)]
    size = [0]
    for mask in range(1, 1 << datum.rank):
        low = mask & -mask
        size.append(max(size[mask ^ low],
                        1 + size[mask & ~closed[low.bit_length() - 1]]))
    return tuple(size)


def independent_violating_set(spec: GroupSpec, weight: Weight) -> ParabolicSubset:
    """Largest independent node set where the weight avoids {0, q-1}.

    Only defined for split groups.  Nodes with coefficient in {0, q-1} are
    discarded; among the remaining free nodes a largest independent subset
    of the Dynkin diagram is read off :func:`_independent_set_sizes`.  Ties
    are broken by the lexicographically smallest node tuple: the nodes are
    walked lowest first, and node v is taken when v, with a largest
    independent set among the higher free nodes that are not its
    neighbours, still reaches the size needed.  Raises ValueError for a
    weight that is not restricted for the group.
    """
    if not spec.is_split:
        raise UnsupportedGroupError(
            "the independent-set criterion is stated for split groups")
    _check_weight(weight, coefficient_ranges(spec))
    q = spec.q
    datum = spec.datum
    size = _independent_set_sizes(datum)
    free = sum(1 << (i - 1) for i in range(1, datum.rank + 1)
               if weight[i] not in (0, q - 1))
    need = size[free]
    nodes = []
    while need:
        low = free & -free
        free ^= low
        rest = free & ~datum._neighbours[low.bit_length() - 1]
        if 1 + size[rest] == need:
            nodes.append(low.bit_length())
            need -= 1
            free = rest
    return ParabolicSubset(datum, frozenset(nodes))
