"""Exact integer polynomial arithmetic and embedded character-degree datasets.

Everything here is exact: polynomials carry integer coefficients, division is
either exact or reported as inexact, and no floating point is used anywhere.

Three datasets are embedded:

* ``U4``     -- degrees and class-value data for the regular characters of
                U(4,p) together with the handful of non-regular degrees used
                by the exhaustive case analysis for SU(4,p).
* ``D4``     -- degrees of the regular characters of the triality groups of
                type D4 over a prime field, plus the auxiliary degrees that
                feed the cyclotomic-residue contradiction.
* ``REE2G2`` -- character degrees of the rank-1 Ree groups of type G2 in the
                integer parameter t = 3^f (where the field size satisfies
                q^2 = 3 t^2, so q*sqrt(3) = 3t and q/sqrt(3) = t).

:data:`DATASETS` maps each tag to its builder.  A dataset is the only
statement of its character-table facts: each family has one ``kind`` (one of
``_KINDS``), its values at class probes are :class:`ProbeValue` entries, and
the sums excluded by inspecting an external character table are the keys of
``CharacterFamilyData.inspected``.  The case analyses in ``caseanalysis``
read all three from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping


class InexactDivisionError(ArithmeticError):
    """Raised when a polynomial division that must be exact is not."""


class DegreePolynomial:
    """A univariate polynomial with exact integer coefficients.

    Coefficients are stored in ascending order of degree; the zero polynomial
    has an empty coefficient tuple.  The indeterminate has no intrinsic name:
    depending on the dataset it stands for p, q or the Ree parameter t.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("DegreePolynomial is immutable")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, c: int) -> "DegreePolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "DegreePolynomial":
        return cls((0,) * k + (c,))

    # -- basic structure ----------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("DegreePolynomial", self.coeffs))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            elif k == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{k}" if c != 1 else f"x^{k}")
        return " + ".join(terms).replace("+ -", "- ")

    # -- ring operations ----------------------------------------------
    def __add__(self, other) -> "DegreePolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return DegreePolynomial(
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "DegreePolynomial":
        return DegreePolynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "DegreePolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "DegreePolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DegreePolynomial":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return DegreePolynomial()
        out = [0] * (len(a) + len(b) - 1)
        # Only the nonzero terms of either side: a factor X^d - 1 has two.
        terms = [(j, cb) for j, cb in enumerate(b) if cb]
        for i, ca in enumerate(a):
            if ca:
                for j, cb in terms:
                    out[i + j] += ca * cb
        return DegreePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "DegreePolynomial":
        if k < 0:
            raise ValueError("negative exponent")
        out = DegreePolynomial.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- evaluation and division --------------------------------------
    def evaluate(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divmod(self, divisor: "DegreePolynomial"):
        """Polynomial division; the result must have integer coefficients.

        Integer long division: each quotient coefficient is the leading
        remainder coefficient divided by the divisor's leading coefficient.
        While every earlier quotient coefficient is an integer the remainder
        stays integral, so an :class:`InexactDivisionError` is raised at the
        first step that leaves a nonzero residue -- exactly where division
        over the rationals would produce its first non-integral coefficient.
        An integral quotient forces an integral remainder, and a monic
        divisor never raises.
        """
        divisor = _coerce(divisor)
        if divisor is None or divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs) - 1
        quot = [0] * max(len(rem) - dn, 0)
        for k in range(len(rem) - dn - 1, -1, -1):
            factor, r = divmod(rem[k + dn], dcs[-1])
            if r:
                raise InexactDivisionError(
                    f"inexact division of {self!r} by {divisor!r}")
            quot[k] = factor
            if factor:
                for j, dc in enumerate(dcs):
                    rem[k + j] -= factor * dc
        return DegreePolynomial(quot), DegreePolynomial(rem[:dn])

    def divexact(self, divisor) -> "DegreePolynomial":
        """Exact division; raises if a nonzero remainder appears."""
        divisor = _coerce(divisor)
        q, r = self.divmod(divisor)
        if not r.is_zero():
            raise InexactDivisionError(
                f"{self!r} is not divisible by {divisor!r} (remainder {r!r})"
            )
        return q

    def reduce_mod(self, modulus: "DegreePolynomial") -> "DegreePolynomial":
        """Remainder of division by ``modulus`` (always legal for monic moduli)."""
        _, r = self.divmod(modulus)
        return r

    def shift_p_part(self):
        """Split off the largest power of the variable dividing the polynomial.

        Returns ``(k, quotient)`` with ``self = x^k * quotient`` and the
        quotient having a nonzero constant term.  Useful for separating the
        p-part of an order polynomial whose variable stands for p.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has no p-part decomposition")
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return k, DegreePolynomial(self.coeffs[k:])


def _coerce(value):
    if isinstance(value, DegreePolynomial):
        return value
    if isinstance(value, int):
        return DegreePolynomial((value,))
    return None


# Convenient aliases used across the package.
X = DegreePolynomial.monomial(1)
ONE = DegreePolynomial.constant(1)


def poly(*coeffs: int) -> DegreePolynomial:
    """Build a polynomial from ascending coefficients."""
    return DegreePolynomial(coeffs)


def cyclotomic3_residue(f: DegreePolynomial) -> DegreePolynomial:
    """Residue of ``f`` modulo x^2+x+1 computed by exponent folding.

    Independent of :meth:`DegreePolynomial.reduce_mod`: it first folds all
    exponents with the relation x^3 = 1 and then rewrites x^2 as -x-1.
    Used as a cross-implementation oracle for the long-division path.
    """
    folded = [0, 0, 0]
    for k, c in enumerate(f.coeffs):
        folded[k % 3] += c
    # x^2 = -x - 1
    c0 = folded[0] - folded[2]
    c1 = folded[1] - folded[2]
    return DegreePolynomial((c0, c1))


# ---------------------------------------------------------------------------
# Character-degree datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeValue:
    """Value of a whole degree-family of characters at a class probe.

    ``kind`` is one of:

    * ``"exact"``       -- every character of the family takes this value;
    * ``"per_char"``    -- every character takes +magnitude or -magnitude,
                           the sign may vary from character to character;
    * ``"global_sign"`` -- every character takes s * magnitude where the
                           single sign s is one global convention (resolved
                           uniformly for the whole family).
    """

    kind: str
    magnitude: DegreePolynomial

    def __post_init__(self):
        if self.kind not in {"exact", "per_char", "global_sign"}:
            raise ValueError(f"unknown probe value kind {self.kind!r}")


# The kinds of character family: regular characters, constituents of the
# permutation character 1_U^G, cuspidal unipotent characters, and the rest.
_KINDS = ("regular", "in_1UG", "cuspidal_unipotent", "other")


@dataclass(frozen=True)
class CharacterFamily:
    """A family of irreducible characters sharing one degree."""

    name: str
    degree: DegreePolynomial
    # Some degrees are integer-valued polynomials with a constant denominator
    # (2 or 4); ``degree`` then stores the numerator.
    denominator: int = 1
    # One of ``_KINDS``; a family of none of the first three kinds is "other".
    kind: str = "other"
    class_label: str | None = None
    centralizer_order: DegreePolynomial | None = None
    class_values: Mapping[str, ProbeValue] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown character family kind {self.kind!r}")

    def degree_at(self, x: int) -> int:
        """Integer degree at a concrete parameter value."""
        value = self.degree.evaluate(x)
        if value % self.denominator:
            raise InexactDivisionError(
                f"degree of {self.name} is not integral at {x}")
        return value // self.denominator

    def flags(self) -> dict:
        return {kind: self.kind == kind for kind in _KINDS}


@dataclass(frozen=True)
class CharacterFamilyData:
    """One dataset: its character families and its table inspections.

    ``inspected`` holds the candidate sums excluded by inspection of an
    external character table, each as its tuple of (name, multiplicity)
    pairs with nonzero multiplicity, in the order of the candidate.
    """

    tag: str
    variable: str
    families: tuple[CharacterFamily, ...]
    group_order: DegreePolynomial | None = None
    inspected: frozenset[tuple[tuple[str, int], ...]] = frozenset()

    def family(self, name: str) -> CharacterFamily:
        for fam in self.families:
            if fam.name == name:
                return fam
        raise KeyError(f"no character family named {name!r} in dataset {self.tag}")

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "variable": self.variable,
            "group_order": list(self.group_order.coeffs) if self.group_order else None,
            "families": [
                {
                    "name": fam.name,
                    "class": fam.class_label,
                    "degree_coefficients": list(fam.degree.coeffs),
                    "degree_denominator": fam.denominator,
                    "flags": fam.flags(),
                    "class_values": {
                        probe: {"kind": v.kind, "magnitude": list(v.magnitude.coeffs)}
                        for probe, v in sorted(fam.class_values.items())
                    },
                }
                for fam in self.families
            ],
        }


def _u4_dataset() -> CharacterFamilyData:
    p = X
    # Full unitary group order |U(4,p)|; the centralizer orders in the regular
    # rows below live in U(4,p), not in its special subgroup of index p+1.
    order_u4 = (p ** 6) * (p + 1) * (p ** 2 - 1) * (p ** 3 + 1) * (p ** 4 - 1)

    def fam(name, degree, **kw):
        return CharacterFamily(name=name, degree=degree, **kw)

    # Probes:
    #   "A10A11"            : the combination chi(g) + (p-1) chi(h) with g, h
    #                         non-semisimple elements sharing a semisimple part;
    #   "regular_unipotent" : value at a regular unipotent element.
    exact0 = ProbeValue("exact", DegreePolynomial())
    regular_rows = [
        ("A1", "chi11", order_u4, p ** 6),
        ("A6", "chi13", (p ** 3) * (p + 1) ** 2 * (p ** 2 - 1) * (p ** 3 + 1),
         (p ** 3) * (p - 1) * (p ** 2 + 1)),
        ("A9", "chi20", (p ** 2) * (p + 1) ** 2 * (p ** 2 - 1) ** 2,
         (p ** 2) * (p ** 2 + 1) * (p ** 2 - p + 1)),
        ("A12", "chi15", p * (p + 1) ** 3 * (p ** 2 - 1),
         p * (p - 1) * (p ** 2 - p + 1) * (p ** 2 + 1)),
        ("A14", "chi10", (p + 1) ** 4,
         (p - 1) ** 2 * (p ** 2 - p + 1) * (p ** 2 + 1)),
        ("B1", "chi8", p * (p + 1) * (p ** 2 - 1) ** 2,
         p * (p ** 2 + 1) * (p ** 3 + 1)),
        ("B3", "chi6", (p + 1) ** 2 * (p ** 2 - 1),
         (p - 1) * (p ** 2 + 1) * (p ** 3 + 1)),
        ("C1", "chi4", (p ** 2) * (p ** 2 - 1) * (p ** 4 - 1),
         (p ** 2) * (p + 1) * (p ** 3 + 1)),
        ("C3", "chi2", (p ** 2 - 1) ** 2,
         (p + 1) * (p ** 2 + 1) * (p ** 3 + 1)),
        ("D1", "chi9", (p + 1) * (p ** 3 + 1),
         (p ** 2 - 1) * (p ** 4 - 1)),
        ("E1", "chi5", p ** 4 - 1,
         (p + 1) * (p ** 3 + 1) * (p ** 2 - 1)),
    ]
    families = []
    for cls, name, cent, deg in regular_rows:
        values = {}
        if name == "chi10":
            values = {"A10A11": exact0,
                      "regular_unipotent": ProbeValue("exact", ONE)}
        if name == "chi15":
            # Vanishes at the regular unipotent class (table inspection);
            # no value is embedded for the A10/A11 probe.
            values = {"regular_unipotent": exact0}
        families.append(
            fam(name, deg, kind="regular", class_label=cls,
                centralizer_order=cent, class_values=values))

    # Principal-series constituents of the relevant induced character.
    families.append(fam("sigma", (p ** 2) * (p ** 2 + 1), kind="in_1UG"))
    families.append(
        fam("tau", (p ** 3) * (p ** 2 - p + 1), kind="in_1UG",
            class_values={
                "A10A11": ProbeValue("per_char", p),
                "regular_unipotent": exact0,
            })
    )

    # Non-regular characters outside the principal block data above.
    families.append(
        fam("chi16", (p - 1) * (p ** 2 - p + 1) * (p ** 2 + 1),
            class_values={
                "A10A11": ProbeValue("per_char", ONE),
                "regular_unipotent": ProbeValue("exact", -ONE),
            })
    )
    families.append(
        fam("chi17", p * (p - 1) ** 2 * (p ** 2 + 1),
            class_values={"A10A11": exact0, "regular_unipotent": exact0})
    )
    families.append(
        fam("chi19", (p - 1) * (p ** 2 + 1),
            class_values={
                "A10A11": ProbeValue("per_char", ONE),
                # The sources disagree on the sign of the value at the regular
                # unipotent element; it is carried as a single global sign
                # convention and every verification is run under both.
                "regular_unipotent": ProbeValue("global_sign", ONE),
            })
    )
    # Two sums are excluded by a non-vanishing fact read off an external
    # character table, not recomputed: each fails to vanish on a
    # non-semisimple class.  The first is tau plus the row whose degree
    # equals p^6 - tau(1); the second is case A12 with one chi17.
    inspected = frozenset({
        (("tau", 1), ("chi13", 1)),
        (("tau", 1), ("chi15", 1), ("chi17", 1)),
    })
    return CharacterFamilyData("U4", "p", tuple(families), group_order=order_u4,
                               inspected=inspected)


def _d4_dataset() -> CharacterFamilyData:
    p = X
    order = (p ** 12) * (p ** 6 - 1) * (p ** 2 - 1) * (p ** 8 + p ** 4 + 1)
    phi12 = p ** 4 - p ** 2 + 1
    rows = [
        ("s1", "St", p ** 12),
        ("s2", "chi2", (p ** 4) * (p ** 8 + p ** 4 + 1)),
        ("s3", "chi3", (p ** 3) * (p + 1) * (p ** 8 + p ** 4 + 1)),
        ("s4", "chi4", (p ** 3) * (p ** 3 + 1) * (p ** 2 - p + 1) * phi12),
        ("s5", "chi5", p * (p ** 3 + 1) * (p ** 8 + p ** 4 + 1)),
        ("s6", "chi6", (p + 1) * (p ** 3 + 1) * (p ** 8 + p ** 4 + 1)),
        ("s7", "chi7", (p ** 3) * (p - 1) * (p ** 8 + p ** 4 + 1)),
        ("s8", "chi8", (p - 1) * (p ** 3 + 1) * (p ** 8 + p ** 4 + 1)),
        ("s9", "chi9", (p ** 3) * (p ** 3 - 1) * (p ** 2 + p + 1) * phi12),
        ("s10", "chi10", p * (p ** 3 - 1) * (p ** 8 + p ** 4 + 1)),
        ("s11", "chi11", (p + 1) * (p ** 3 - 1) * (p ** 8 + p ** 4 + 1)),
        ("s12", "chi12", (p - 1) ** 2 * (p ** 3 + 1) ** 2 * phi12),
        ("s13", "chi13", (p + 1) ** 2 * (p ** 3 - 1) ** 2 * phi12),
        ("s14", "chi14", (p ** 6 - 1) ** 2),
        ("s15", "chi15", (p - 1) * (p ** 3 - 1) * (p ** 8 + p ** 4 + 1)),
    ]
    families = [
        CharacterFamily(name=name, degree=deg, kind="regular", class_label=cls)
        for cls, name, deg in rows
    ]
    # Principal-series pieces of the induced identity and the distinguished
    # principal-series constituent tau.
    families.append(CharacterFamily("rho1p", (p ** 7) * phi12, kind="in_1UG"))
    families.append(CharacterFamily(
        "rho2p", (p ** 3) * (p ** 3 + 1) ** 2, denominator=2, kind="in_1UG"))
    families.append(CharacterFamily(
        "rho2", (p ** 3) * (p + 1) ** 2 * phi12, denominator=2, kind="in_1UG"))
    families.append(CharacterFamily("tau", (p ** 7) * phi12, kind="in_1UG"))
    # Cuspidal unipotent degrees.  The second one is stated in the source with
    # the factor p^4-p^2+1; that form is not divisible by p^2+p+1, which
    # contradicts the divisibility property the argument rests on (and the
    # identity quoted in its support is (p^2-p+1)(p^2+p+1) = p^4+p^2+1).
    # The embedded degree therefore uses the factor p^4+p^2+1.
    families.append(CharacterFamily(
        "e1", (p ** 3) * (p ** 3 - 1) ** 2, denominator=2,
        kind="cuspidal_unipotent"))
    families.append(CharacterFamily(
        "e2", (p ** 3) * (p - 1) ** 2 * (p ** 4 + p ** 2 + 1), denominator=4,
        kind="cuspidal_unipotent"))
    # Non-regular characters in the outer series.
    families.append(CharacterFamily("e3", (p ** 3 - 1) * (p ** 2 + p + 1) * phi12))
    families.append(CharacterFamily("e4", p * (p ** 3 - 1) ** 2 * phi12))
    families.append(CharacterFamily("e5", (p ** 3 - 1) * (p ** 8 + p ** 4 + 1)))
    return CharacterFamilyData("D4", "p", tuple(families), group_order=order)


def _ree2g2_dataset() -> CharacterFamilyData:
    """Degrees for the rank-1 Ree groups, as polynomials in t = 3^f.

    With q^2 = 3 t^2 the substitutions q*sqrt(3) = 3t and q/sqrt(3) = t turn
    every degree into an integer polynomial in t.
    """
    t = X
    q2 = 3 * t ** 2          # q^2
    q4 = 9 * t ** 4          # q^4
    q6 = 27 * t ** 6         # q^6
    d1 = q4 - q2 + 1
    d2 = q6 - q4 + q2
    d3 = (q2 - 1) * (q4 - q2 + 1)
    d4 = (q4 - 1) * (q2 - 3 * t + 1)            # (q^4-1)(q^2 - q sqrt3 + 1)
    d5 = t * (q4 - 1)                           # q (q^4-1) / sqrt3
    # d6 and d7 are stored as numerators over the denominator 2; they are
    # integral at every odd t.
    d6_num = t * (q2 - 1) * (q2 - 3 * t + 1)
    d7_num = t * (q2 - 1) * (q2 + 3 * t + 1)
    m = t  # the value q / sqrt(3) appearing in the class-Y column
    fams = (
        CharacterFamily("St", q6, kind="regular",
                        class_values={"Y": ProbeValue("exact", DegreePolynomial())}),
        CharacterFamily("tau", d1, kind="in_1UG",
                        class_values={"Y": ProbeValue("exact", ONE)}),
        CharacterFamily("d2", d2, kind="in_1UG"),
        CharacterFamily("d3", d3, kind="regular"),
        CharacterFamily("gamma", d4, kind="regular",
                        class_values={"Y": ProbeValue("exact", -ONE)}),
        CharacterFamily("xi5", d5, class_values={"Y": ProbeValue("exact", -m)}),
        CharacterFamily("xi6", d6_num, denominator=2,
                        class_values={"Y": ProbeValue("exact", m)}),
        CharacterFamily("xi7", d7_num, denominator=2,
                        class_values={"Y": ProbeValue("exact", m)}),
    )
    order = q6 * (q2 - 1) * (q6 + 1)
    return CharacterFamilyData("REE2G2", "t", fams, group_order=order)


# The builder of each embedded dataset, by tag.
DATASETS = {"U4": _u4_dataset, "D4": _d4_dataset, "REE2G2": _ree2g2_dataset}


@lru_cache(maxsize=None)
def dataset(tag: str) -> CharacterFamilyData:
    """Return the embedded dataset for one tag of :data:`DATASETS`."""
    if tag not in DATASETS:
        raise KeyError(f"unknown dataset tag {tag!r}")
    return DATASETS[tag]()


# ---------------------------------------------------------------------------
# Verification operations
# ---------------------------------------------------------------------------


class DatasetCorruptError(AssertionError):
    """An embedded identity failed: the dataset is inconsistent."""


def verify_induced_identity(tag: str) -> dict:
    """Check the decomposition identities of the two induced characters.

    For ``U4``: p^2 (p+1)(p^3+1) = p^6 + p^2(p^2+1) + p^3(p^2-p+1).
    For ``D4``: p^3 (p+1)(p^8+p^4+1)
                = p^12 + p^3(p^3+1)^2/2 + p^3(p+1)^2(p^4-p^2+1)/2
                  + p^7(p^4-p^2+1).
    Both are verified as exact polynomial identities.
    """
    p = X
    if tag == "U4":
        data = dataset("U4")
        lhs = (p ** 2) * (p + 1) * (p ** 3 + 1)
        rhs = p ** 6 + data.family("sigma").degree + data.family("tau").degree
    elif tag == "D4":
        # The two half-integral constituents are stored as numerators over 2,
        # so the identity is verified in doubled form.
        data = dataset("D4")
        lhs = 2 * (p ** 3) * (p + 1) * (p ** 8 + p ** 4 + 1)
        rhs = (2 * p ** 12 + data.family("rho2p").degree
               + data.family("rho2").degree + 2 * data.family("rho1p").degree)
    else:
        raise KeyError(f"no induced identity for tag {tag!r}")
    if lhs != rhs:
        raise DatasetCorruptError(
            f"induced-character identity failed for {tag}: {lhs!r} != {rhs!r}")
    return {"tag": tag, "identity_holds": True,
            "lhs_coefficients": list(lhs.coeffs)}


def verify_regular_degree_identities() -> list[dict]:
    """Check every regular row of the U4 table against the degree formula.

    A regular character attached to a semisimple class with centralizer C in
    the full unitary group H satisfies, as a polynomial identity,
    ``degree = |C|_p * (|H|/|C|)_{p'}``.
    """
    data = dataset("U4")
    order = data.group_order
    reports = []
    for fam in data.families:
        if fam.kind != "regular" or fam.centralizer_order is None:
            continue
        index = order.divexact(fam.centralizer_order)
        k_cent, _ = fam.centralizer_order.shift_p_part()
        _, index_pprime = index.shift_p_part()
        expected = DegreePolynomial.monomial(k_cent) * index_pprime
        ok = expected == fam.degree
        if not ok:
            raise DatasetCorruptError(
                f"regular-degree identity failed for row {fam.class_label}: "
                f"expected {expected!r}, embedded {fam.degree!r}")
        reports.append({"class": fam.class_label, "name": fam.name,
                        "identity_holds": True})
    return reports


def cyclotomic_residue_report(p_range: Iterable[int] = (3, 5, 7, 11, 13)) -> dict:
    """Divisibility analysis behind the triality-group contradiction.

    Verifies, as polynomial identities, that x^2+x+1 divides each of the five
    auxiliary degrees e1..e5; computes f1 = T - deg(chi12) and
    f2 = T - deg(chi15) with T = x^12 - deg(tau), reduces both modulo
    x^2+x+1 (by long division and, independently, by exponent folding), and
    checks that the residues are nonzero at every odd prime in ``p_range``.
    The residues once claimed for these two quantities (-5 and 2p-11) are
    reported as claims only; the recomputed values are authoritative here.
    """
    data = dataset("D4")
    p = X
    phi3 = p ** 2 + p + 1
    divisible = {}
    for name in ("e1", "e2", "e3", "e4", "e5"):
        # Divisibility by the monic modulus can be read off the numerator.
        rem = data.family(name).degree.reduce_mod(phi3)
        if not rem.is_zero():
            raise DatasetCorruptError(
                f"{name} is not divisible by x^2+x+1 (remainder {rem!r})")
        divisible[name] = True
    T = p ** 12 - data.family("tau").degree
    f1 = T - data.family("chi12").degree
    f2 = T - data.family("chi15").degree
    residues = {}
    for label, f in (("f1", f1), ("f2", f2)):
        r_div = f.reduce_mod(phi3)
        r_fold = cyclotomic3_residue(f)
        if r_div != r_fold:
            raise DatasetCorruptError(
                f"residue oracles disagree for {label}: {r_div!r} vs {r_fold!r}")
        if r_div.is_zero():
            raise DatasetCorruptError(
                f"residue of {label} vanishes; the contradiction would fail")
        per_prime = {}
        for q in p_range:
            modulus = phi3.evaluate(q)
            value = r_div.evaluate(q) % modulus
            if value == 0:
                raise DatasetCorruptError(
                    f"x^2+x+1 divides {label} at p={q}; contradiction fails")
            per_prime[q] = value
        residues[label] = {
            "residue_coefficients": list(r_div.coeffs),
            "nonzero_at": per_prime,
        }
    return {
        "divisible": divisible,
        "T_mod": list(T.reduce_mod(phi3).coeffs),
        "residues": residues,
        "reported_claims": {"f1": "-5", "f2": "2p-11"},
        "claims_are_informational_only": True,
    }
