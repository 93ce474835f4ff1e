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
:mod:`pimbounds.bounds` runs over the pieces of :func:`descent_pieces`,
those not strictly inside a piece of split type A, instead of over every
proper parabolic.  A piece over a given field has one descendant group and
one projection of coefficients (:func:`_piece_descent`);
:func:`descend_weight`, the group plans of :mod:`pimbounds.bounds` and the
candidate sieve all read that one map.

The candidate sieve is descent at value 1: a weight survives when its
projection to every Levi piece has certified bound 1 in
:func:`bounds.best_bound`, which holds every small-group fact the sieve
relies on.  It builds the weights one orbit of the diagram symmetry on the
nodes at a time, tries only the zero and maximal blocks of an orbit whose
piece has bound at least 2 elsewhere, and drops a partial weight at the
first piece inside the assigned orbits that fails, so it never runs over
every proper parabolic, nor over every block of such an orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import add, ge, index, itemgetter, mul

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
        # ``operator.index``, not ``int``: a float or a string is refused,
        # not truncated or parsed into a weight nobody asked about.
        try:
            coeffs = tuple(map(index, self.coeffs))
        except TypeError as exc:
            raise ValueError(f"weight coefficients must be integers: {exc}"
                             ) from None
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


def _one_orbit_sets(datum: RootDatum) -> list[int]:
    """The twist-stable proper node sets of a datum that are a single
    Frobenius orbit of connected components, as masks, ordered by the
    bitmask with bit k set when the set holds the k-th orbit of
    :func:`_node_orbits`.

    They are the closures under the diagram symmetry of the connected node
    sets: each component of a closure holds an image of the connected set,
    so the closure of any component is the whole closure.  So they are
    found from the connected node sets (:func:`_connected_sets`), without
    listing the 2^(relative rank) - 2 proper parabolics: 43 of the 254 of
    E8, 33 of 126 on E7, 10 of 14 on D4 and 209 of 2^20 - 2 on A20.
    """
    orbits = _node_orbits(datum)

    def position(mask: int) -> int:
        # The node set as a mask over the orbits.
        return sum(1 << k for k, orbit in enumerate(orbits)
                   if mask >> (min(orbit) - 1) & 1)

    sets = {_closure(datum, c) for c in _connected_sets(datum._neighbours)}
    sets.discard((1 << datum.rank) - 1)
    return sorted(sets, key=position)


@lru_cache(maxsize=None)
def levi_pieces(datum: RootDatum) -> tuple[_LeviPiece, ...]:
    """The supported pieces of a datum, one per node set of
    :func:`_one_orbit_sets`, in its order.  Built once per datum.

    A piece depends only on its orbit of components, so every piece of a
    proper parabolic's plan is the piece of its own node set, and a plan is
    unsupported exactly when one of its pieces is.  A maximum over the
    pieces of every supported proper parabolic is therefore a maximum over
    these pieces.
    """
    pieces = []
    for mask in _one_orbit_sets(datum):
        try:
            pieces.append(_levi_piece(datum, mask))
        except UnsupportedGroupError:
            pass
    return tuple(pieces)


@lru_cache(maxsize=None)
def descent_pieces(datum: RootDatum) -> tuple[_LeviPiece, ...]:
    """The pieces of :func:`levi_pieces` that descent reads: each piece whose
    node set does not lie strictly inside the node set of a piece whose
    descendant is split of type A.  Built once per datum, on first use.
    D4 keeps 3 of its 10 pieces, A4 2 of 9, E7 8 of 33 and E8 10 of 43.

    Only the kept pieces are built.  The node sets of
    :func:`_one_orbit_sets` are visited largest first, and a set is built
    only when it lies inside no split type-A piece already kept.  That
    drops exactly the sets that the rule drops: the largest split type-A
    piece holding a dropped set lies strictly inside no other such piece
    (a larger one would hold the set too), so it is kept, and it is
    visited before the smaller set.  The kept pieces come in the order of
    :func:`levi_pieces`.

    The value of descent (see :func:`bounds.descent_bound`) does not change.
    Let P' be a dropped piece, strictly inside a piece P whose descendant H
    is split A_k over q^a.  A piece strictly inside P is one Frobenius orbit
    of connected sets inside P's components, so it has a components too and
    its descendant lives over q^a as well.  Some piece holding P' is not
    strictly inside another such P, and is kept; take P to be that one.

    * P' projects to an interval of H's diagram, possibly reversed: the
      coefficients of P' are those of H at consecutive nodes, in order or
      reversed (H's components are chains, and P' is one orbit of a
      connected set inside them).
    * H descends, because k >= 2 (P holds P' strictly).
    * Every rule that H's value reads is symmetric under reversing the
      diagram of A_k: the Steinberg weight, the embedded table (its entries
      for type A depend only on whether the weight is zero), the
      independent set, and descent into the sub-intervals, which reversal
      permutes (by induction on k).  Split type A has no doubling step.
    * If the projection of λ to P is the Steinberg weight of H, its
      projection to P' is the Steinberg weight of P''s descendant, and both
      values are 1.
    * Otherwise H descends into the interval of P', or into an interval
      holding it, so value_H(proj_P λ) >= value(proj_P' λ) by induction on
      k, and the maximum over the pieces is unchanged.

    The designated doubling piece is never dropped: no twist-stable proper
    node set holds strictly A_{n-1} in B/C/D, A_{n-2} in ²D or the
    two-component orbit of ²A, which its middle nodes would join into the
    whole diagram.

    A piece strictly inside a piece of another type may set the maximum,
    because descent reads the node labels: E6(2) at (0,0,1,1,1,0) reads 4
    through its pieces and 2 through its maximal pieces D5, A5 and D5
    alone.  So only split type A containers prune.  The candidate sieve of
    :func:`minimal_pim_candidates` reads every piece of :func:`levi_pieces`:
    there the small pieces are the pruning, since they check a partial
    weight as soon as its nodes are assigned.
    """
    sets = _one_orbit_sets(datum)
    kept, containers = {}, []
    for mask in sorted(sets, key=int.bit_count, reverse=True):
        # A container seen before is no smaller, so holding the set means
        # holding it strictly.
        if any(mask & ~c == 0 for c in containers):
            continue
        try:
            piece = kept[mask] = _levi_piece(datum, mask)
        except UnsupportedGroupError:
            continue
        if (piece.datum.family, piece.datum.twist_order) == ("A", 1):
            containers.append(mask)
    return tuple(kept[mask] for mask in sets if mask in kept)


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

def minimal_pim_candidates(spec: GroupSpec) -> list[Weight]:
    """Weights whose projective cover may have dimension |G|_p: the
    non-Steinberg, nonzero weights whose projection to every Levi piece
    has certified bound 1.

    Parabolic descent (the rule of :func:`bounds.descent_bound`) bounds the
    multiplier of G at a weight below by the multiplier of each Levi piece
    at the projected weight.  A weight of multiplier 1 therefore has
    :func:`bounds.best_bound` equal to 1 on every piece of
    :func:`levi_pieces` (a Steinberg projection has bound exactly 1).  So
    the sieve is descent at value 1: it keeps too much when a bound is not
    sharp, and never too little.  A piece that the toolkit does not support
    is not listed and lets every weight through.  The zero weight and the
    Steinberg weight are excluded from the output, which is sorted.
    Requires relative rank >= 2 (otherwise there is no proper parabolic
    above the Borel) and a concrete field parameter.

    The weights are built one orbit of the diagram symmetry on the nodes
    (:func:`_node_orbits`) at a time.  Each orbit is itself a piece, of
    relative rank 1, and its coefficient blocks are filtered by that piece
    alone first.  The projection of an orbit's blocks to its piece is one to
    one and sends the zero and maximal blocks to the zero and Steinberg
    weights.  So when :func:`bounds.one_only_at_ends` holds for the piece,
    as for every A1(q^a) and for ²A2(q) with q = 2 or q an odd prime, only
    those two blocks are tried; otherwise every block is.  On E8(3), where
    the A1(3) piece has bound 2 at the coefficient 1, only the coefficients
    0 and 2 are kept at each node.  The kept blocks are joined to the
    partial weights of the orbits before, and once the orbits up to the
    k-th are assigned, the other pieces whose nodes lie inside them are
    checked; a partial weight that fails one is dropped with all its
    extensions.  Each verdict is cached per descendant group and
    coefficient tuple.  The pieces of the orbits are built first, in order,
    so an unsupported orbit raises its :class:`UnsupportedSubdiagramError`
    even when no weight survives.

    Cost: every orbit piece but a ²A2(q) with no embedded minimum tries two
    blocks, whatever q is, so at most 2^(relative rank) partial weights are
    met.  A ²A2(q) orbit, q = 4, 8, 9, 16, ..., has bound 1 at all q^2
    blocks, and each of them survives the orbit.

    The small pieces are the sieve's pruning.  The pieces that
    :func:`descent_pieces` drops move no verdict, but they are the ones
    that end early, so they drop a partial weight orbits before a large
    piece could.  On A_n(2) the sieve asks 2n verdicts; over the descent
    pieces alone it would keep all 2^(n-1) partial weights until the last
    two orbits, and ask 32,770 verdicts on A16(2) instead of 32.
    """
    from .bounds import best_bound, one_only_at_ends  # bounds imports this

    datum = spec.datum
    if twisted_bn_rank(datum) < 2:
        raise UnsupportedGroupError(
            f"{spec.describe()} has no proper parabolic above a Borel subgroup")
    orbits = [sorted(n - 1 for n in orbit) for orbit in _node_orbits(datum)]
    own = [_levi_piece(datum, sum(1 << i for i in orbit)) for orbit in orbits]
    # checks[k]: the descendant group and projection of each piece, other
    # than an orbit's own, whose last orbit is the k-th.
    last = {i: k for k, orbit in enumerate(orbits) for i in orbit}
    checks = [[] for _ in orbits]
    for piece in levi_pieces(datum):
        if piece not in own:
            k = max(last[i] for nodes in piece.indices for i in nodes)
            checks[k].append(_piece_descent(piece, spec))
    verdicts = {}

    def has_bound_one(coeffs, dspec, project) -> bool:
        key = dspec, project(coeffs)
        if key not in verdicts:
            verdicts[key] = best_bound(dspec, Weight(key[1])).bound == 1
        return verdicts[key]

    ranges = coefficient_ranges(spec)
    patterns = [(0,) * datum.rank]
    for orbit, piece, pieces in zip(orbits, own, checks):
        dspec, project = _piece_descent(piece, spec)
        if one_only_at_ends(dspec):
            blocks = [[0] * len(orbit), [ranges[i] - 1 for i in orbit]]
        else:
            blocks = itertools.product(*(range(ranges[i]) for i in orbit))
        # Each block as a weight that is zero outside the orbit, so that
        # adding it to a partial weight assigns the orbit.
        blocks = [block for block in (
            tuple(dict(zip(orbit, b)).get(i, 0) for i in range(datum.rank))
            for b in blocks) if has_bound_one(block, dspec, project)]
        grown = (tuple(map(add, block, pattern))
                 for block in blocks for pattern in patterns)
        patterns = [coeffs for coeffs in grown
                    if all(has_bound_one(coeffs, *check) for check in pieces)]
    top = steinberg_weight(spec).coeffs
    return [Weight(coeffs) for coeffs in sorted(patterns)
            if coeffs != top and any(coeffs)]


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
def _deepest_first(datum: RootDatum) -> tuple[tuple[int, int], ...]:
    """The nodes of a datum deepest first in a breadth-first tree of its
    diagram from node 1, each as its bit and the mask of its neighbours:
    the walk of :func:`_independent_set_size`, built once per datum."""
    neighbours = datum._neighbours
    order, seen = [0], 1
    for node in order:
        new = neighbours[node] & ~seen
        seen |= new
        order += [k for k in range(len(neighbours)) if new >> k & 1]
    return tuple((1 << k, neighbours[k]) for k in reversed(order))


def _independent_set_size(deepest_first: tuple[tuple[int, int], ...],
                          mask: int) -> int:
    """The size of a largest independent node set inside the node set
    ``mask`` (bit i-1 for node i), by the leaf rule along the walk of
    :func:`_deepest_first`.

    A Dynkin diagram is a tree, and the subgraph it induces on a node set is
    a forest.  A leaf or an isolated node v of a forest lies in some largest
    independent set: a largest set without v holds the one neighbour u of
    v, or it could take v too, and exchanging u for v keeps it independent.
    So the leaf rule takes such a v, drops its neighbour, and repeats.  When
    a node of the set has its turn in the deepest-first walk, each of its
    children in the set has been taken or dropped, so unless a taken child
    dropped it, it is a leaf or an isolated node of what is left, and it is
    taken: one pass of bit operations over the nodes.
    """
    taken = 0
    for bit, near in deepest_first:
        if mask & bit and not near & taken:
            taken |= bit
    return taken.bit_count()


def independent_violating_set(spec: GroupSpec, weight: Weight) -> ParabolicSubset:
    """Largest independent node set where the weight avoids {0, q-1}.

    Only defined for split groups.  Nodes with coefficient in {0, q-1} are
    discarded; among the remaining free nodes a largest independent subset
    of the Dynkin diagram has the size of :func:`_independent_set_size`,
    which also gives the sizes that the tie-break reads.  Ties are broken
    by the lexicographically smallest node tuple: the nodes are walked
    lowest first, and node v is taken when v, with a largest independent
    set among the higher free nodes that are not its neighbours, still
    reaches the size needed.  Raises ValueError for a weight that is not restricted for
    the group.
    """
    if not spec.is_split:
        raise UnsupportedGroupError(
            "the independent-set criterion is stated for split groups")
    _check_weight(weight, coefficient_ranges(spec))
    q = spec.q
    datum = spec.datum
    walk = _deepest_first(datum)
    free = sum(1 << (i - 1) for i in range(1, datum.rank + 1)
               if weight[i] not in (0, q - 1))
    need = _independent_set_size(walk, free)
    nodes = []
    while need:
        low = free & -free
        free ^= low
        rest = free & ~datum._neighbours[low.bit_length() - 1]
        if 1 + _independent_set_size(walk, rest) == need:
            nodes.append(low.bit_length())
            need -= 1
            free = rest
    return ParabolicSubset(datum, frozenset(nodes))
