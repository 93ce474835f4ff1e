"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from pimbounds import cli, degrees, rootdata


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


def test_info_plain_and_json(capsys):
    code, out, _ = run(capsys, "info", "A", "2", "--q", "3")
    assert code == 0
    assert "weyl_order: 6" in out
    code, blob = run_json(capsys, "info", "C", "2", "--q", "3", "--json")
    assert code == 0
    assert blob["weyl_order"] == 8
    assert blob["steinberg_weight"] == [2, 2]
    assert blob["steinberg_dimension"] == 81
    assert blob["group_order"] == 3 ** 4 * (3 ** 2 - 1) * (3 ** 4 - 1)


def test_info_suzuki_ree(capsys):
    code, blob = run_json(capsys, "info", "G2", "2", "--suzuki-ree-e", "1",
                          "--json")
    assert code == 0
    assert blob["restricted_weight_count"] == 3 * 9  # ranges (3, 9)


def test_orbit_command(capsys):
    code, blob = run_json(capsys, "orbit", "C", "2", "--q", "4",
                          "--beta", "1,0", "--json")
    assert code == 0
    assert blob["orbit_size"] == 4
    assert len(blob["orbit"]) == 4
    assert blob["modulus"] == 3


def test_orbit_takes_negative_character_coordinates(capsys):
    # -1 and 3 agree mod q - 1 = 4, so they name the same torus character.
    code, neg = run_json(capsys, "orbit", "A", "2", "--q", "5",
                         "--beta=-1,0", "--json")
    assert code == 0
    code, pos = run_json(capsys, "orbit", "A", "2", "--q", "5",
                         "--beta", "3,0", "--json")
    assert code == 0
    assert neg["beta"] == [-1, 0]
    assert neg["orbit_size"] == pos["orbit_size"] == 3
    assert neg["orbit"] == pos["orbit"]


def test_help_names_the_form_of_a_negative_beta(capsys, monkeypatch):
    # argparse reads "--beta -1,0" as an option and exits 2; the help names
    # the "=" form, which runs.
    monkeypatch.setenv("COLUMNS", "200")
    assert cli.main(["orbit", "--help"]) == 0
    assert "--beta=-1,0" in capsys.readouterr().out
    assert cli.main(["orbit", "A", "2", "--q", "5", "--beta=-1,0"]) == 0
    assert cli.main(["orbit", "A", "2", "--q", "5", "--beta", "-1,0"]) == 2


def test_orbit_scan_command(capsys):
    code, blob = run_json(capsys, "orbit-scan", "C", "2", "--q", "4", "--json")
    assert code == 0
    assert blob["min_nontrivial_orbit"] == 4
    assert blob["total_points"] == 9


def test_orbit_scan_has_no_cache_dir(capsys):
    code, out, err = run(capsys, "orbit-scan", "C", "2", "--q", "4",
                         "--cache-dir", "scans", "--json")
    assert code == 2
    assert out == ""
    assert "--cache-dir" in err


def test_bound_command(capsys):
    code, blob = run_json(capsys, "bound", "A", "1", "--q", "9",
                          "--weight", "0", "--json")
    assert code == 0
    assert blob["bound"] == 3
    assert blob["exact"]
    code, out, _ = run(capsys, "bound", "A", "5", "--q", "4",
                       "--weight", "1,2,1,2,1")
    assert code == 0
    assert "bound:" in out


def test_candidates_command(capsys):
    code, blob = run_json(capsys, "candidates", "A", "2", "--q", "3", "--json")
    assert code == 0
    assert blob["count"] == len(blob["candidates"]) == 2
    assert blob["candidates"] == [[0, 2], [2, 0]]


def test_candidates_large_ree_reports_its_unsupported_levi(capsys):
    # The symmetry-fixed pair {2, 3} of the large Ree groups is a C2 on
    # which the symmetry acts with order 2; the sieve stops there.
    code, out, err = run(capsys, "candidates", "F4", "4", "--suzuki-ree-e", "1")
    assert code == 2
    assert out == ""
    assert ("induced symmetry of order 2 on a component of type C is outside "
            "the toolkit") in err


def test_verify_u4_ok(capsys):
    code, blob = run_json(capsys, "verify", "u4", "--primes", "3", "--json")
    assert code == 0
    assert blob["verified"]
    assert blob["report"]["u4"] == {"3": "NoSolution"}


def test_verify_ree_ok(capsys):
    code, out, _ = run(capsys, "verify", "ree", "--f", "1")
    assert code == 0
    assert "verified" in out


def test_verify_d4_ok(capsys):
    code, blob = run_json(capsys, "verify", "d4", "--primes", "5", "--json")
    assert code == 0
    assert blob["report"]["d4"] == {"5": "NoSolution"}


def test_verify_rejects_an_odd_composite(capsys):
    code, out, err = run(capsys, "verify", "u4", "--primes", "15")
    assert code == 2
    assert "odd primes" in err
    assert out == ""


def test_verify_tables_reports_a_wrong_stored_weyl_order(capsys, monkeypatch):
    e8 = rootdata.build_root_datum("E8", 8)
    wrong = dataclasses.replace(e8, weyl_order=e8.weyl_order // 2)
    monkeypatch.setattr(cli, "_iter_small_data", lambda: iter([wrong]))
    code, blob = run_json(capsys, "verify", "tables", "--json")
    assert code == cli.EXIT_VIOLATION
    assert not blob["verified"]
    assert blob["counterexample"] == {
        "failed": "closure cardinality differs from the stored Weyl order",
        "family": "E8", "rank": 8,
        "closure": e8.weyl_order, "stored": wrong.weyl_order}


def test_verify_reports_a_program_fault_as_internal(capsys, monkeypatch):
    # A bare AssertionError is a fault in the program, not a counterexample.
    def fault(tag):
        raise AssertionError("simulated fault")

    monkeypatch.setattr(degrees, "verify_induced_identity", fault)
    code, out, err = run(capsys, "verify", "tables", "--json")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "internal error: AssertionError: simulated fault\n"


def test_verify_reports_a_corrupt_dataset_as_a_violation(capsys, monkeypatch):
    def corrupt(tag):
        raise degrees.DatasetCorruptError(f"{tag} identity fails")

    monkeypatch.setattr(degrees, "verify_induced_identity", corrupt)
    code, blob = run_json(capsys, "verify", "tables", "--json")
    assert code == cli.EXIT_VIOLATION == 1
    assert blob == {"verified": False, "error": "U4 identity fails",
                    "partial_report": {"rootdata": "ok"}}


@pytest.mark.parametrize("argv", [
    ("bound", "B", "2", "--q", "4", "--twist", "2", "--weight", "1,0"),
    ("info", "F4", "4", "--q", "2", "--twist", "2"),
    ("info", "G2", "2", "--q", "3", "--twist", "2"),
])
def test_twisted_b2_g2_f4_need_a_suzuki_ree_field(capsys, argv):
    # Their twisted forms exist only as the Suzuki and Ree groups.
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert "need a Suzuki-Ree field parameter" in err


_NEEDS_SUZUKI_REE = "are Suzuki or Ree groups and need a Suzuki-Ree field parameter"


@pytest.mark.parametrize("argv, message", [
    (("info", "E7", "7", "--q", "4", "--twist", "2"),
     "no diagram symmetry of order 2 for E7"),
    (("info", "F4", "4", "--q", "2", "--twist", "2"),
     f"the twisted groups of type F4 {_NEEDS_SUZUKI_REE}"),
    (("info", "G2", "2", "--q", "3", "--twist", "2"),
     f"the twisted groups of type G2 {_NEEDS_SUZUKI_REE}"),
    (("info", "E6", "6", "--suzuki-ree-e", "1"),
     "no Suzuki-Ree group of type E6"),
    (("info", "F4", "3", "--suzuki-ree-e", "1"), "F4 has rank 4"),
])
def test_messages_name_exceptional_types_as_describe_does(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_orbit_of_a_suzuki_ree_group_is_refused(capsys):
    # The torus-orbit layer checks that the group is split before anything
    # reads the field size.
    code, out, err = run(capsys, "orbit", "B", "2", "--suzuki-ree-e", "1",
                         "--beta", "0,0")
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert "split groups only" in err


@pytest.mark.parametrize("family, rank", [("A", "3"), ("C", "2")])
def test_suzuki_ree_parameter_needs_a_suzuki_ree_type(capsys, family, rank):
    code, out, err = run(capsys, "info", family, rank, "--suzuki-ree-e", "1")
    assert code == cli.EXIT_USAGE == 2
    assert out == ""
    assert err == f"error: no Suzuki-Ree group of type {family}{rank}\n"


def test_export_tables(capsys):
    code, blob = run_json(capsys, "export-tables")
    assert code == 0
    assert set(blob["datasets"]) == {"U4", "D4", "REE2G2"}
    assert any(row["family"] == "G2" for row in blob["weyl_groups"])
    assert any(not row["irreducible"]
               for row in blob["natural_representation_irreducibility"])


def test_usage_errors(capsys, monkeypatch):
    assert cli.main(["info", "Z", "2"]) == 2
    capsys.readouterr()
    assert cli.main(["info", "A"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "nope"]) == 2
    capsys.readouterr()
    # Semantic errors also map to exit code 2.
    assert cli.main(["info", "A", "2", "--q", "6"]) == 2
    capsys.readouterr()
    assert cli.main(["orbit", "A", "3", "--q", "4", "--beta", "1,2"]) == 2
    capsys.readouterr()
    assert cli.main(["orbit", "A", "2", "--q", "5", "--beta=-1,0,2"]) == 2
    assert "expected 2 coefficients, got 3" in capsys.readouterr().err
    monkeypatch.setattr(cli.charlattice, "ORBIT_BUDGET", 10)
    assert cli.main(["orbit-scan", "E8", "8", "--q", "7"]) == 2
    assert "budget" in capsys.readouterr().err


def test_weight_parsing_variants(capsys):
    code, blob = run_json(capsys, "bound", "A", "2", "--q", "3",
                          "--weight", "1 1", "--json")
    assert code == 0
    assert blob["weight"] == [1, 1]


def test_orbit_plain_mode_never_enumerates(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plain mode must not enumerate the orbit")

    monkeypatch.setattr(cli.charlattice, "orbit", refuse)
    code, out, _ = run(capsys, "orbit", "E8", "8", "--q", "16",
                       "--beta", "1,2,3,4,5,6,7,8")
    assert code == 0
    assert "orbit_size: 7257600" in out


def test_orbit_json_refuses_an_orbit_over_budget(capsys):
    # 43,545,600 points exceed the default budget of 10^6.
    code, out, err = run(capsys, "orbit", "E8", "8", "--q", "16",
                         "--beta", "1,0,0,1,0,1,0,1", "--json")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_orbit_json_refuses_a_multi_million_orbit(capsys):
    # 7,257,600 points: too many to list as JSON.
    code, out, err = run(capsys, "orbit", "E8", "8", "--q", "16",
                         "--beta", "1,2,3,4,5,6,7,8", "--json")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_main_builds_the_parser_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    try:
        for argv in (("info", "A", "2", "--q", "3"),
                     ("bound", "A", "2", "--q", "3", "--weight", "1,0"),
                     ("bound", "A", "2", "--q", "3"),
                     ("info", "A", "2", "--q", "0")):
            run(capsys, *argv)
        assert cli.build_parser.cache_info().misses == 1
        assert cli.build_parser() is cli.build_parser()

        def patched(args):
            print("patched", args.family, args.rank)
            return cli.EXIT_OK

        monkeypatch.setattr(cli, "_cmd_info", patched)
        assert run(capsys, "info", "C", "3", "--q", "4") == (
            cli.EXIT_OK, "patched C 3\n", "")
        assert cli.build_parser.cache_info().misses == 1
    finally:
        cli.build_parser.cache_clear()


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "_cmd_info", boom)
    code, out, err = run(capsys, "info", "A", "2", "--q", "3")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "internal error: RuntimeError: simulated fault\n"
