"""Exhaustive decomposition searches and their elimination arguments.

Three verification drivers live here, one per family of groups for which a
"could the smallest projective module be as small as a Sylow p-subgroup"
question is settled by exhaustive integer decomposition plus class-value
probes:

* :func:`u4_verify`  -- the special unitary groups of degree 4 over F_p;
* :func:`d4_verify`  -- the triality groups of type D4 over F_p;
* :func:`ree_verify` -- the rank-1 Ree groups of type G2 with parameter 3^f.

Each driver returns a :class:`CaseVerdict` whose elimination log records, for
every surviving candidate decomposition and every sign convention, which
probe rules it out.  The facts of the character tables come from the
datasets of ``degrees`` alone: the drivers select families by their kind,
and :func:`_eliminate_candidates` disposes of the dataset's inspected sums
and tests every other candidate against its embedded class values.  All
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .degrees import DegreePolynomial, X, cyclotomic_residue_report, dataset
from .rootdata import UnsupportedGroupError, factor_prime_power


class CaseAnalysisError(AssertionError):
    """An exhaustive case analysis did not come out as certified."""


# ---------------------------------------------------------------------------
# Bounded decomposition enumeration (two independent implementations)
# ---------------------------------------------------------------------------


def enumerate_decompositions(target: int, part_sizes) -> list[tuple[int, ...]]:
    """All multiplicity vectors m with sum(m[i] * part_sizes[i]) == target.

    Multiplicities are nonnegative integers and the result is sorted
    lexicographically.  The iterative search is always compared against an
    independent recursive implementation: the agreement is part of the
    certified analysis.
    """
    sizes = tuple(int(s) for s in part_sizes)
    if target < 0 or any(s <= 0 for s in sizes):
        raise ValueError("target must be >= 0 and part sizes positive")
    result = _enumerate_iterative(target, sizes)
    if result != _enumerate_recursive(target, sizes):
        raise CaseAnalysisError(
            f"decomposition implementations disagree for target={target}, "
            f"sizes={sizes}")
    return result


def _enumerate_iterative(target: int, sizes) -> list[tuple[int, ...]]:
    """Explicit-stack depth-first search in lexicographic order."""
    n = len(sizes)
    out = []
    # Stack entries: (index, remaining, prefix).
    stack = [(0, target, ())]
    while stack:
        idx, remaining, prefix = stack.pop()
        if idx == n:
            if remaining == 0:
                out.append(prefix)
            continue
        max_mult = remaining // sizes[idx]
        # Push in reverse so that smaller multiplicities are explored first.
        for mult in range(max_mult, -1, -1):
            stack.append((idx + 1, remaining - mult * sizes[idx],
                          prefix + (mult,)))
    return out


def _enumerate_recursive(target: int, sizes) -> list[tuple[int, ...]]:
    """Plain recursion; written independently of the iterative search."""
    if not sizes:
        return [()] if target == 0 else []
    head, tail = sizes[0], sizes[1:]
    solutions = []
    mult = 0
    while mult * head <= target:
        for rest in _enumerate_recursive(target - mult * head, tail):
            solutions.append((mult,) + rest)
        mult += 1
    solutions.sort()
    return solutions


# ---------------------------------------------------------------------------
# Probe evaluation
# ---------------------------------------------------------------------------


def _attainable_values(family, probe: str, multiplicity: int, x: int,
                       sign_convention: int):
    """Set of values a multiplicity-k sub-sum can take at a probe, or None.

    ``None`` means the dataset embeds no value for this family at this probe,
    so the probe cannot be used against candidates containing the family.
    """
    if multiplicity == 0:
        return {0}
    pv = family.class_values.get(probe)
    if pv is None:
        return None
    v = pv.magnitude.evaluate(x)
    if pv.kind == "exact":
        return {multiplicity * v}
    if pv.kind == "global_sign":
        return {multiplicity * sign_convention * v}
    # per_char: each of the k constituents independently contributes +-v.
    return {(multiplicity - 2 * k) * v for k in range(multiplicity + 1)}


def _probe_eliminates(families_with_mult, probe: str, x: int,
                      sign_convention: int) -> bool:
    """True when the probe value 0 is unattainable for the candidate."""
    totals = {0}
    for family, mult in families_with_mult:
        contrib = _attainable_values(family, probe, mult, x, sign_convention)
        if contrib is None:
            return False  # probe not applicable to this candidate
        totals = {t + c for t in totals for c in contrib}
    return 0 not in totals


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Elimination:
    """One candidate ruled out by one probe under one sign convention."""

    candidate: tuple[tuple[str, int], ...]
    probe: str
    sign_convention: int | None
    detail: str

    def to_json(self) -> dict:
        return {
            "candidate": {name: mult for name, mult in self.candidate},
            "probe": self.probe,
            "sign_convention": self.sign_convention,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CaseVerdict:
    """Outcome of one exhaustive case analysis."""

    label: str
    outcome: str  # "NoSolution" or "Inconclusive"
    candidates_considered: int
    eliminations: tuple[Elimination, ...]
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "outcome": self.outcome,
            "candidates_considered": self.candidates_considered,
            "eliminations": [e.to_json() for e in self.eliminations],
            "data": self.data,
        }


def _eliminate_candidates(candidates, x, probes, label,
                          inspected) -> list[Elimination]:
    """Eliminate every candidate under every sign convention, or raise.

    ``candidates`` is a list of ``families_with_mult`` tuples.  A candidate
    whose key, its (name, multiplicity) pairs with nonzero multiplicity, is
    in ``inspected`` (the dataset's table inspections) is disposed of
    outright; every other one must fail one of ``probes``.
    """
    eliminations = []
    for families_with_mult in candidates:
        key = tuple(
            (fam.name, mult) for fam, mult in families_with_mult if mult)
        if key in inspected:
            eliminations.append(Elimination(
                candidate=key, probe="table_inspection", sign_convention=None,
                detail="embedded non-vanishing datum excludes this sum"))
            continue
        uses_global_sign = any(
            mult and any(v.kind == "global_sign" for v in fam.class_values.values())
            for fam, mult in families_with_mult)
        conventions = (1, -1) if uses_global_sign else (None,)
        for sign in conventions:
            s = sign if sign is not None else 1
            killed = None
            for probe in probes:
                if _probe_eliminates(families_with_mult, probe, x, s):
                    killed = probe
                    break
            if killed is None:
                raise CaseAnalysisError(
                    f"{label}: candidate {key} survives all probes "
                    f"(sign convention {sign})")
            eliminations.append(Elimination(
                candidate=key, probe=killed, sign_convention=sign,
                detail=f"value 0 unattainable at probe {killed}"))
    return eliminations


# ---------------------------------------------------------------------------
# The unitary groups of degree 4
# ---------------------------------------------------------------------------


def _require_odd_prime(p: int) -> None:
    try:
        odd_prime = p > 2 and factor_prime_power(p) == (p, 1)
    except UnsupportedGroupError:
        raise  # beyond the factoring budget, which its message names
    except ValueError:  # not a prime power
        odd_prime = False
    if not odd_prime:
        raise ValueError("the analysis is stated for odd primes p")


def u4_verify(p: int) -> CaseVerdict:
    """Exhaustive analysis for the special unitary group of degree 4 over F_p.

    Establishes that no sum of the Steinberg character and further ordinary
    characters of the shape forced by the degree bound can equal the character
    of a projective module of dimension p^6, by enumerating all integer
    decompositions and ruling each out with embedded class values or table
    inspections.  Every elimination is performed under both sign conventions
    for the one character value on which the sources disagree.
    """
    _require_odd_prime(p)
    data = dataset("U4")
    tau = data.family("tau")
    extras = tuple(data.family(n) for n in ("chi16", "chi17", "chi19"))
    f_bound = p ** 6 - tau.degree.evaluate(p)
    expected_f = (X ** 3 * (X - 1) * (X ** 2 + 1)).evaluate(p)
    if f_bound != expected_f:
        raise CaseAnalysisError("degree bound mismatch for the U4 analysis")

    # Regular characters small enough to appear alongside tau, in table order.
    small = [fam for fam in data.families
             if fam.kind == "regular" and fam.degree.evaluate(p) <= f_bound]
    small_classes = [fam.class_label for fam in small]
    if small_classes != ["A6", "A12", "A14"]:
        raise CaseAnalysisError(
            f"unexpected degree filter result {small_classes} for p={p}")

    # Structural expectations for the decomposition searches; deg(chi13)
    # equals the degree bound, so case A6 leaves nothing to decompose.
    expected = {
        "A6": [(0, 0, 0)],
        "A12": [(0, 0, p * (p - 1)), (0, 1, 0)],
        "A14": [(0, 0, 2 * p * p - 2 * p + 1), (1, 1, 0), (0, 2, 1),
                (1, 0, p * (p - 1)), (0, 1, p * (p - 1) + 1)],
    }
    extra_sizes = [fam.degree.evaluate(p) for fam in extras]
    candidates = []
    cases = {}
    for gamma in small:
        remainder = f_bound - gamma.degree.evaluate(p)
        solutions = enumerate_decompositions(remainder, extra_sizes)
        if solutions != sorted(expected[gamma.class_label]):
            raise CaseAnalysisError(
                f"unexpected solutions in case {gamma.class_label}: {solutions}")
        cases[gamma.class_label] = solutions
        candidates += [((tau, 1), (gamma, 1)) + tuple(zip(extras, sol))
                       for sol in solutions]

    label = f"U4(p={p})"
    eliminations = _eliminate_candidates(
        candidates, p, ("A10A11", "regular_unipotent"), label, data.inspected)
    return CaseVerdict(
        label=label,
        outcome="NoSolution",
        candidates_considered=len(candidates),
        eliminations=tuple(eliminations),
        data={
            "degree_bound": f_bound,
            "case_solution_counts": {k: len(v) for k, v in sorted(cases.items())},
        },
    )


# ---------------------------------------------------------------------------
# The triality groups of type D4
# ---------------------------------------------------------------------------


def d4_verify(p: int) -> CaseVerdict:
    """Divisibility analysis for the triality groups of type D4 over F_p.

    The two regular characters that survive the degree filter lead to
    quantities f1 and f2 that would have to be divisible by p^2 + p + 1; the
    recomputed residues are nonzero, so no decomposition exists.
    """
    _require_odd_prime(p)
    data = dataset("D4")
    tau = data.family("tau")
    T = p ** 12 - tau.degree.evaluate(p)
    outer = [data.family(f"chi{i}") for i in range(9, 16)]
    survivors = sorted(f.name for f in outer if f.degree.evaluate(p) <= T)
    if survivors != ["chi12", "chi15"]:
        raise CaseAnalysisError(
            f"unexpected degree filter result {survivors} for p={p}")
    report = cyclotomic_residue_report((p,))
    eliminations = []
    for label, name in (("f1", "chi12"), ("f2", "chi15")):
        residue = report["residues"][label]["nonzero_at"][p]
        eliminations.append(Elimination(
            candidate=((tau.name, 1), (name, 1)),
            probe="cyclotomic_residue",
            sign_convention=None,
            detail=(f"{label} = T - deg({name}) has residue {residue} "
                    f"modulo p^2+p+1 = {p * p + p + 1}"),
        ))
    return CaseVerdict(
        label=f"D4(p={p})",
        outcome="NoSolution",
        candidates_considered=len(survivors),
        eliminations=tuple(eliminations),
        data={
            "degree_bound": T,
            "divisible_auxiliary_degrees": report["divisible"],
            "residues": {
                k: v["nonzero_at"][p] for k, v in report["residues"].items()
            },
            "reported_claims": report["reported_claims"],
        },
    )


# ---------------------------------------------------------------------------
# The rank-1 Ree groups of type G2
# ---------------------------------------------------------------------------


def _ree_symbolic_replay() -> dict:
    """Certify the symbolic reductions of the Ree-group analysis.

    Starting from ``q^6 = d1 + d4 + a d5 + b d7 + c d6`` (a character-theoretic
    decomposition forced on a hypothetical small projective module) the
    argument passes to a linear relation and then, after substituting the
    constraint a = b + c coming from an embedded class value, to
    ``3 (q^2+1)(b+c-2) = q sqrt(3) (c-b-4)``.  All steps are verified here as
    exact polynomial identities in t = q / sqrt(3).
    """
    data = dataset("REE2G2")
    t = X
    q2 = 3 * t ** 2
    d1 = data.family("tau").degree
    d4 = data.family("gamma").degree
    d5 = data.family("xi5").degree
    d6_num = data.family("xi6").degree  # numerator: twice the degree
    d7_num = data.family("xi7").degree  # numerator: twice the degree
    steinberg = data.family("St").degree

    # Doubled linear relation: 2*(q^6 - d1 - d4 - a d5 - b d7 - c d6)
    # equals -t(3t^2-1) times E(a,b,c) with
    # E = 2a(q^2+1) + (q^2+1)(b+c) - 6(q^2+1) - 3t(c-b) + 12t.
    factor = t * (q2 - 1)
    checks = {
        "coefficient_a": 2 * d5 == factor * (2 * (q2 + 1)),
        "coefficient_b": d7_num == factor * (q2 + 1 + 3 * t),
        "coefficient_c": d6_num == factor * (q2 + 1 - 3 * t),
        "constant_term":
            2 * (steinberg - d1 - d4) == factor * (6 * (q2 + 1) - 12 * t),
    }
    # Substituting a = b + c turns E into
    # E2(b,c) = 3(q^2+1)(b+c-2) - 3t(c-b-4); verified coefficient-wise.
    checks["substitution_b"] = (
        2 * (q2 + 1) + (q2 + 1) + 3 * t == 3 * (q2 + 1) + 3 * t)
    checks["substitution_c"] = (
        2 * (q2 + 1) + (q2 + 1) - 3 * t == 3 * (q2 + 1) - 3 * t)
    checks["substitution_const"] = (
        -6 * (q2 + 1) + 12 * t == 3 * (q2 + 1) * (-2) - 3 * t * (-4))
    # Multiplicity bound: a <= 2 because 3 d5 - (q^6 - d1 - d4) = 18t^4 - 6t^2,
    # positive for every t >= 1.
    margin = 3 * d5 - (steinberg - d1 - d4)
    checks["multiplicity_margin"] = margin == 18 * t ** 4 - 6 * t ** 2
    if not all(checks.values()):
        raise CaseAnalysisError(f"symbolic replay failed: {checks}")

    def linear_relation(b: int, c: int) -> DegreePolynomial:
        """E2(b, c) as a polynomial in t, for integers b and c."""
        return 3 * (q2 + 1) * (b + c - 2) - 3 * t * (c - b - 4)

    # With 0 < a = b + c <= 2 only five (b, c) pairs remain; each must make
    # the linear relation nonzero for every admissible t.
    residue_polys = {}
    for b, c in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        residue_polys[(b, c)] = linear_relation(b, c)
    return {"checks": checks, "residue_polys": residue_polys}


def ree_verify(f: int) -> CaseVerdict:
    """Exhaustive analysis for the rank-1 Ree groups of type G2, f >= 1.

    Enumerates every decomposition of the Steinberg degree minus the two
    forced constituents into the three remaining degree families, applies the
    embedded class-value constraint, and replays the symbolic elimination of
    the surviving multiplicity patterns at t = 3^f.
    """
    if f < 1:
        raise ValueError("the analysis applies to f >= 1 "
                         "(f = 0 gives the small group with a known answer)")
    t = 3 ** f
    data = dataset("REE2G2")
    tau, gamma = data.family("tau"), data.family("gamma")
    extras = tuple(data.family(name) for name in ("xi5", "xi7", "xi6"))
    remainder = (data.family("St").degree_at(t) - tau.degree_at(t)
                 - gamma.degree_at(t))
    solutions = enumerate_decompositions(
        remainder, [fam.degree_at(t) for fam in extras])
    replay = _ree_symbolic_replay()
    if any(a > 2 for a, _, _ in solutions):
        raise CaseAnalysisError(
            f"multiplicity bound violated at f={f}: {solutions}")
    # The class-Y values of the dataset sum to t(b + c - a) on the candidate
    # with multiplicities (a, b, c): the probe rules out every candidate
    # unless a = b + c, and ``_eliminate_candidates`` raises on a survivor.
    label = f"REE2G2(f={f})"
    candidates = [((tau, 1), (gamma, 1)) + tuple(zip(extras, sol))
                  for sol in solutions]
    eliminations = _eliminate_candidates(
        candidates, t, ("Y",), label, data.inspected)
    # Any survivor would have a = b + c in {1, 2}; the replayed linear
    # relation is nonzero there, so none can exist.  Record the five symbolic
    # eliminations evaluated at this t.
    for (b, c), poly in sorted(replay["residue_polys"].items()):
        value = poly.evaluate(t)
        if value == 0:
            raise CaseAnalysisError(
                f"linear relation vanishes at t={t} for (b, c)=({b}, {c})")
        eliminations.append(Elimination(
            candidate=(("tau", 1), ("gamma", 1)) + tuple(
                (fam.name, mult) for fam, mult in zip(extras, (b + c, b, c))
                if mult),
            probe="linear_relation",
            sign_convention=None,
            detail=f"relation value {value} != 0 at t={t}"))
    return CaseVerdict(
        label=label,
        outcome="NoSolution",
        candidates_considered=len(solutions),
        eliminations=tuple(eliminations),
        data={
            "t": t,
            "remainder": remainder,
            "solution_count_before_class_filter": len(solutions),
            "symbolic_checks": {k: bool(v) for k, v in replay["checks"].items()},
        },
    )
