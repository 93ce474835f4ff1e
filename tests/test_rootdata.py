"""Tests for root data, reflection matrices and order polynomials."""

import dataclasses
import hashlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from pimbounds import rootdata as rd
from pimbounds.degrees import DegreePolynomial


def all_small_data():
    for family, ranks in (("A", range(1, 9)), ("B", range(2, 9)),
                          ("C", range(2, 9)), ("D", range(3, 9)),
                          ("E6", (6,)), ("E7", (7,)), ("E8", (8,)),
                          ("F4", (4,)), ("G2", (2,))):
        for rank in ranks:
            yield rd.build_root_datum(family, rank)


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_cartan_matrices_have_valid_entries():
    for datum in all_small_data():
        n = datum.rank
        for i in range(n):
            assert datum.cartan[i][i] == 2
            for j in range(n):
                if i != j:
                    assert -3 <= datum.cartan[i][j] <= 0
                    # Zero entries must be symmetric (no edge at all).
                    assert (datum.cartan[i][j] == 0) == (datum.cartan[j][i] == 0)


def test_known_cartan_matrices():
    a2 = rd.build_root_datum("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    g2 = rd.build_root_datum("G2", 2)
    # Stored transposed: entry [j][i] pairs root i against coroot j.
    assert g2.cartan == ((2, -3), (-1, 2))
    b3 = rd.build_root_datum("B", 3)
    assert b3.cartan == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    c3 = rd.build_root_datum("C", 3)
    assert c3.cartan == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    # B and C matrices are transposes of one another.
    assert b3.cartan == tuple(zip(*c3.cartan))
    f4 = rd.build_root_datum("F4", 4)
    assert f4.cartan == ((2, -1, 0, 0), (-1, 2, -1, 0),
                         (0, -2, 2, -1), (0, 0, -1, 2))


def test_long_short_node_flags():
    assert rd.build_root_datum("B", 2).long_nodes == (True, False)
    assert rd.build_root_datum("C", 2).long_nodes == (False, True)
    assert rd.build_root_datum("G2", 2).long_nodes == (False, True)
    assert rd.build_root_datum("F4", 4).long_nodes == (True, True, False, False)
    assert rd.build_root_datum("E8", 8).long_nodes == (True,) * 8


def reference_long_nodes(family, rank):
    """The long simple roots of each family in Bourbaki numbering, as a
    table per family: the statement that ``_long_nodes`` replaced by
    reading the lengths off the Cartan matrix."""
    if family == "B":
        return tuple(i < rank - 1 for i in range(rank))
    if family == "C":
        return tuple(i == rank - 1 for i in range(rank))
    if family == "F4":
        return (True, True, False, False)
    if family == "G2":
        return (False, True)
    return (True,) * rank


def all_small_twisted_data():
    """Every datum of ``all_small_data`` with each diagram symmetry."""
    for datum in all_small_data():
        for twist in (1, 2, 3):
            try:
                yield rd.build_root_datum(datum.family, datum.rank, twist)
            except rd.UnsupportedGroupError:
                pass


def test_long_nodes_equal_the_family_table():
    data = list(all_small_twisted_data())
    # 33 split data and 17 twisted: ²A2-²A8, ²D4-²D8, ³D4, ²E6, ²B2, ²F4, ²G2.
    assert len(data) == 33 + 17
    for datum in data:
        assert datum.long_nodes == reference_long_nodes(
            datum.family, datum.rank), datum


def test_classifier_orders_read_the_standard_cartan_matrix():
    # Every connected node set of every datum up to rank 8: read in the
    # classifier's order, the Cartan matrix on the set is the stored form
    # (the transpose) of the standard matrix of the classified type, so the
    # family, the rank, the Bourbaki order and the root lengths all agree.
    seen = set()
    for datum in all_small_data():
        for mask in range(1, 1 << datum.rank):
            if len(rd._components(datum._neighbours, mask)) != 1:
                continue
            family, order = rd._classify(datum._neighbours, datum._bonds,
                                         datum.long_nodes, mask)
            assert sorted(order) == [k for k in range(datum.rank)
                                     if mask >> k & 1]
            standard = rd._standard_cartan(family, len(order))
            assert [[datum.cartan[i][j] for j in order] for i in order] == [
                [standard[b][a] for b in range(len(order))]
                for a in range(len(order))], (datum, mask)
            seen.add((family, len(order)))
    assert ("B", 2) not in seen and ("C", 2) in seen  # a B2 reads as C2
    assert {"A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2"} == {
        family for family, _ in seen}


def test_classifier_outputs_digest_is_pinned():
    # The type and order of all 1,611 connected node sets of A1-A12,
    # B2-B12, C2-C12, D3-D12, E6-E8, F4 and G2, as the per-family
    # classifier gave them before ``_classify`` (0-based orders); the
    # Cartan oracle above cannot tell orders that differ by a diagram
    # automorphism.
    data = ([("A", r) for r in range(1, 13)]
            + [(family, r) for family in "BC" for r in range(2, 13)]
            + [("D", r) for r in range(3, 13)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
    lines = []
    for family, rank in data:
        datum = rd.build_root_datum(family, rank)
        for mask in range(1, 1 << rank):
            if len(rd._components(datum._neighbours, mask)) == 1:
                sub, order = rd._classify(datum._neighbours, datum._bonds,
                                          datum.long_nodes, mask)
                lines.append(f"{family}{rank} {mask} {sub} {order}")
    assert len(lines) == 1611
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == (
        "a92ae6e962e9794d5f15e817435e1db200d4ce515774c5034250fe5347e6674c")


def test_coxeter_relations_all_families():
    for datum in all_small_data():
        n = datum.rank
        mats = rd.reflection_matrices(datum)
        for i in range(n):
            assert mat_mul(mats[i], mats[i]) == identity(n)
        for i in range(n):
            for j in range(i + 1, n):
                order = datum.coxeter_order(i + 1, j + 1)
                assert order in (2, 3, 4, 6)
                prod = mat_mul(mats[i], mats[j])
                acc = identity(n)
                for _ in range(order):
                    acc = mat_mul(acc, prod)
                assert acc == identity(n)
                # No smaller power of the product is the identity.
                acc = prod
                for _ in range(order - 1):
                    assert acc != identity(n)
                    acc = mat_mul(acc, prod)


def test_weyl_orders_against_formulas():
    assert rd.build_root_datum("A", 7).weyl_order == math.factorial(8)
    assert rd.build_root_datum("B", 5).weyl_order == 2 ** 5 * math.factorial(5)
    assert rd.build_root_datum("D", 6).weyl_order == 2 ** 5 * math.factorial(6)
    assert rd.build_root_datum("E6", 6).weyl_order == 51840
    assert rd.build_root_datum("E7", 7).weyl_order == 2903040
    # Independent oracle: product of the invariant degrees.
    assert rd.build_root_datum("E8", 8).weyl_order == 2 * 8 * 12 * 14 * 18 * 20 * 24 * 30
    assert rd.build_root_datum("F4", 4).weyl_order == 1152
    assert rd.build_root_datum("G2", 2).weyl_order == 12


def datum_name(datum):
    return datum.family if datum.family[0] in "EFG" else f"{datum.family}{datum.rank}"


def test_weyl_order_by_bfs_small_groups():
    # Every datum that `verify tables` checks, the five with |W| > 10^6
    # included, against the order formulas.
    data = list(all_small_data())
    assert len(data) == 33
    names = {datum_name(d) for d in data if d.weyl_order > 10 ** 6}
    assert names == {"B8", "C8", "D8", "E7", "E8"}
    for datum in data:
        assert rd.weyl_order_by_bfs(datum) == rd._weyl_order(
            datum.family, datum.rank), datum_name(datum)


@pytest.mark.parametrize(
    "datum", [d for d in all_small_data() if d.weyl_order <= 10 ** 6],
    ids=datum_name)
def test_parabolic_chain_equals_full_closure(datum):
    # The oracle: the orbit of the strictly dominant (1, ..., 1) is free.
    assert rd.weyl_order_by_bfs(datum) == len(
        rd.weyl_orbit(datum, (1,) * datum.rank))


def test_weyl_orbit_under_every_node_is_the_full_orbit():
    for datum in all_small_data():
        n = datum.rank
        nodes = range(1, n + 1)
        omega_1 = (1,) + (0,) * (n - 1)
        assert (rd.weyl_orbit(datum, omega_1, nodes=nodes)
                == rd.weyl_orbit(datum, omega_1))
        start = tuple(i % 3 for i in range(1, n + 1))
        assert (rd.weyl_orbit(datum, start, 3, nodes=nodes)
                == rd.weyl_orbit(datum, start, 3))


def test_equal_data_hash_equal_and_survive_pickling_as_keys():
    datum = rd.build_root_datum("E6", 6, 2)
    copy = dataclasses.replace(datum)
    assert copy is not datum
    assert copy == datum and hash(copy) == hash(datum)
    spec = rd.GroupSpec(datum, rd.IntegerField(4))
    table = pickle.loads(pickle.dumps({datum: "datum", spec: "spec"}))
    assert table[copy] == "datum"
    assert table[rd.GroupSpec(copy, rd.IntegerField(4))] == "spec"
    # The hash reads fewer fields than equality: a datum that differs
    # elsewhere is still a different key.
    assert dataclasses.replace(datum, weyl_order=1) not in table


def test_a_spec_names_itself_once():
    # The name is built with the spec; ``replace`` and unpickling build it
    # afresh, for the new field in the first case.
    cases = [(rd.group("D", 4, q=8), "D4(q=8)"),
             (rd.group("E6", 6, q=4, twist_order=2), "2E6(q=4)"),
             (rd.group("D", 4, q=3, twist_order=3), "3D4(q=3)"),
             (rd.special_unitary(6, 2), "2A5(q=2)"),
             (rd.group("B", 2, suzuki_ree_e=1), "2B2(q^2=8)"),
             (rd.group("G2", 2, suzuki_ree_e=0), "2G2(q^2=3)")]
    for spec, name in cases:
        assert spec.describe() == name
        assert spec.describe() is spec.describe()
        assert pickle.loads(pickle.dumps(spec)).describe() == name
    other = dataclasses.replace(cases[0][0], field=rd.IntegerField(4))
    assert other.describe() == "D4(q=4)"


def test_a_pickled_spec_hashes_afresh_in_another_process():
    # A spec caches its hash, which depends on the string-hash seed; a spec
    # pickled under one seed is still found as a key under another.
    src = Path(rd.__file__).resolve().parent.parent
    head = "import pickle, sys\nfrom pimbounds import rootdata as rd\n"
    dump = head + ("sys.stdout.buffer.write(pickle.dumps("
                   "{rd.group('E6', 6, q=4): 'spec'}))")
    load = head + ("print(pickle.loads(sys.stdin.buffer.read())"
                   "[rd.group('E6', 6, q=4)])")

    def run(code, seed, data=None):
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        return subprocess.run([sys.executable, "-c", code], env=env,
                              input=data, check=True,
                              capture_output=True).stdout

    assert run(load, "2", run(dump, "1")) == b"spec\n"


def test_positive_root_counts():
    expected = {("A", 5): 15, ("B", 4): 16, ("C", 4): 16, ("D", 5): 20,
                ("E6", 6): 36, ("E7", 7): 63, ("E8", 8): 120,
                ("F4", 4): 24, ("G2", 2): 6}
    for (fam, rank), count in expected.items():
        assert rd.build_root_datum(fam, rank).positive_root_count == count


def test_min_nonlinear_degrees():
    cases = {("A", 2): 2, ("A", 3): 2, ("A", 5): 5, ("B", 2): 2, ("B", 4): 2,
             ("B", 5): 4, ("C", 3): 2, ("D", 4): 2, ("D", 6): 5,
             ("E6", 6): 6, ("E7", 7): 7, ("E8", 8): 8, ("F4", 4): 2,
             ("G2", 2): 2}
    for (fam, rank), value in cases.items():
        assert rd.build_root_datum(fam, rank).min_nonlinear_degree == value


def test_diagram_symmetries():
    a5 = rd.build_root_datum("A", 5, 2)
    assert a5.diagram_perm == (5, 4, 3, 2, 1)
    d4 = rd.build_root_datum("D", 4, 3)
    assert d4.diagram_perm == (3, 2, 4, 1)
    assert d4.perm_orbit(1) == (1, 3, 4)
    assert d4.perm_orbit(2) == (2,)
    e6 = rd.build_root_datum("E6", 6, 2)
    assert e6.diagram_perm == (6, 2, 5, 4, 3, 1)
    f4 = rd.build_root_datum("F4", 4, 2)
    assert f4.diagram_perm == (4, 3, 2, 1)


def test_invalid_twists_rejected():
    with pytest.raises(rd.UnsupportedGroupError):
        rd.build_root_datum("A", 1, 2)
    with pytest.raises(rd.UnsupportedGroupError):
        rd.build_root_datum("B", 3, 2)
    with pytest.raises(rd.UnsupportedGroupError):
        rd.build_root_datum("D", 5, 3)
    with pytest.raises(rd.UnsupportedGroupError):
        rd.build_root_datum("G2", 3)


def _has_twist(family, rank, twist):
    """The twists of the toolkit, restated: 1 everywhere; 2 on A (rank >= 2),
    D (rank >= 4), E6, and on B2, G2 and F4 for the Suzuki and Ree groups;
    3 on D4."""
    if twist == 1:
        return True
    if twist == 2:
        return ((family == "A" and rank >= 2) or (family == "D" and rank >= 4)
                or (family, rank) in (("E6", 6), ("B", 2), ("G2", 2), ("F4", 4)))
    return twist == 3 and (family, rank) == ("D", 4)


def test_diagram_symmetry_decides_every_twist():
    # The one twist rule, against its restatement, with the message naming
    # each type as ``GroupSpec.describe`` does.
    types = [(f, n) for f in "ABCD" for n in range(1, 9)
             if not (f in "BC" and n < 2 or f == "D" and n < 3)]
    types += [(f, int(f[1])) for f in ("E6", "E7", "E8", "F4", "G2")]
    for family, rank in types:
        name = family if family[0] in "EFG" else f"{family}{rank}"
        for twist in range(5):
            if _has_twist(family, rank, twist):
                datum = rd.build_root_datum(family, rank, twist)
                assert datum.twist_order == twist
                continue
            with pytest.raises(rd.UnsupportedGroupError) as info:
                rd.build_root_datum(family, rank, twist)
            assert str(info.value) == (
                f"no diagram symmetry of order {twist} for {name}")


def sl_order(n, q):
    """Independent oracle for |SL(n, q)|."""
    return q ** (n * (n - 1) // 2) * math.prod(q ** i - 1 for i in range(2, n + 1))


def test_split_order_polynomials_match_direct_formula():
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5):
            spec = rd.special_linear(n, q)
            assert rd.group_order(spec) == sl_order(n, q)


def test_symplectic_and_exceptional_orders():
    # |Sp(4, q)| = q^4 (q^2-1)(q^4-1)
    for q in (2, 3):
        spec = rd.group("C", 2, q=q)
        assert rd.group_order(spec) == q ** 4 * (q ** 2 - 1) * (q ** 4 - 1)
    # |G2(q)| = q^6 (q^2-1)(q^6-1)
    spec = rd.group("G2", 2, q=3)
    assert rd.group_order(spec) == 3 ** 6 * (3 ** 2 - 1) * (3 ** 6 - 1)


def test_unitary4_order():
    spec = rd.special_unitary(4, 3)
    p = 3
    assert rd.group_order(spec) == (
        p ** 6 * (p ** 4 - 1) * (p ** 3 + 1) * (p ** 2 - 1))


def test_triality_order():
    spec = rd.group("D", 4, q=2, twist_order=3)
    q = 2
    assert rd.group_order(spec) == (
        q ** 12 * (q ** 6 - 1) * (q ** 2 - 1) * (q ** 8 + q ** 4 + 1))


def test_ree_order_p_part_in_t():
    spec = rd.group("G2", 2, suzuki_ree_e=1)
    p_part, pprime = rd.group_order_poly(spec)
    t = 3
    assert p_part.evaluate(t) == 3 ** 9  # q^6 with q^2 = 27
    # |G| = q^6 (q^2 - 1)(q^6 + 1)
    assert pprime.evaluate(t) == (27 - 1) * (3 ** 9 + 1)


def test_order_formula_not_embedded_for_other_twisted():
    with pytest.raises(rd.OrderFormulaError):
        rd.group_order_poly(rd.special_unitary(5, 2))


def test_reflection_matrix_action_matches_vector_form():
    datum = rd.build_root_datum("F4", 4)
    v = (1, 2, 3, 4)
    for i in range(1, 5):
        mat = rd.simple_reflection_matrix(datum, i)
        via_matrix = tuple(sum(mat[j][k] * v[k] for k in range(4))
                           for j in range(4))
        # s_i v = v - v_i alpha_i, with alpha_i column i of the Cartan matrix.
        assert via_matrix == tuple(v[j] - v[i - 1] * datum.cartan[j][i - 1]
                                   for j in range(4))


def test_prime_power_factoring():
    assert rd.factor_prime_power(8) == (2, 3)
    assert rd.factor_prime_power(125) == (5, 3)
    assert rd.factor_prime_power(13) == (13, 1)
    with pytest.raises(ValueError):
        rd.factor_prime_power(12)
    with pytest.raises(ValueError):
        rd.factor_prime_power(1)
    # Trial division stops at 10^6: a q with no prime factor up to there is
    # accepted as prime only while that proves it, up to (10^6 + 1)^2 - 1.
    assert rd.factor_prime_power(999983 ** 2) == (999983, 2)
    assert rd.factor_prime_power(10 ** 12 + 39) == (10 ** 12 + 39, 1)
    assert rd.factor_prime_power(2 ** 60) == (2, 60)
    for q in (1000003 ** 2, 2 ** 61 - 1):
        with pytest.raises(rd.UnsupportedGroupError, match="budget"):
            rd.factor_prime_power(q)


def test_suzuki_ree_specs():
    suz = rd.group("B", 2, suzuki_ree_e=1)
    assert suz.field.q_squared == 8
    assert suz.field.q1 == 2
    ree = rd.group("G2", 2, suzuki_ree_e=0)
    assert ree.field.q_squared == 3
    with pytest.raises(rd.UnsupportedGroupError):
        rd.GroupSpec(rd.build_root_datum("C", 2, 1), rd.SuzukiReeField(2, 1))


def test_twisted_b2_g2_f4_need_a_suzuki_ree_field():
    for family, rank in (("B", 2), ("G2", 2), ("F4", 4)):
        with pytest.raises(rd.UnsupportedGroupError):
            rd.group(family, rank, q=4, twist_order=2)
        with pytest.raises(rd.UnsupportedGroupError):
            rd.GroupSpec(rd.build_root_datum(family, rank, 2),
                         rd.IntegerField(3))


def test_rank_weyl_order_and_roots_from_the_invariant_degrees():
    # |W| = prod d_i, N = sum (d_i - 1) and rank = #d_i, against the
    # factorial formulas of the classical families.
    for family, formula in (
            ("A", lambda n: (math.factorial(n + 1), n * (n + 1) // 2)),
            ("B", lambda n: (2 ** n * math.factorial(n), n * n)),
            ("C", lambda n: (2 ** n * math.factorial(n), n * n)),
            ("D", lambda n: (2 ** (n - 1) * math.factorial(n), n * (n - 1)))):
        for rank in range(3, 9):
            datum = rd.build_root_datum(family, rank)
            assert (datum.weyl_order, datum.positive_root_count) == formula(rank)
    for family, rank in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)):
        with pytest.raises(rd.UnsupportedGroupError, match=f"has rank {rank}"):
            rd.build_root_datum(family, rank + 1)
