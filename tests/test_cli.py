"""Tests for the command-line interface."""

import json

import pytest

from pimbounds import cli


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


def test_orbit_scan_with_cache(capsys, tmp_path):
    cache = str(tmp_path / "scans")
    code, blob = run_json(capsys, "orbit-scan", "C", "2", "--q", "4",
                          "--cache-dir", cache, "--json")
    assert code == 0
    assert blob["min_nontrivial_orbit"] == 4
    files = list((tmp_path / "scans").iterdir())
    assert len(files) == 1
    # Second run must be served from the cache file (unchanged content).
    code2, blob2 = run_json(capsys, "orbit-scan", "C", "2", "--q", "4",
                            "--cache-dir", cache, "--json")
    assert code2 == 0
    assert blob2 == blob
    assert list((tmp_path / "scans").iterdir()) == files


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


def test_export_tables(capsys):
    code, blob = run_json(capsys, "export-tables")
    assert code == 0
    assert set(blob["datasets"]) == {"U4", "D4", "REE2G2"}
    assert any(row["family"] == "G2" for row in blob["weyl_groups"])
    assert any(not row["irreducible"]
               for row in blob["natural_representation_irreducibility"])


def test_usage_errors(capsys):
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
    assert cli.main(["orbit-scan", "E8", "8", "--q", "7",
                     "--budget", "10"]) == 2
    capsys.readouterr()


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


def _scan(capsys, cache, *extra):
    return run(capsys, "orbit-scan", "C", "2", "--q", "4",
               "--cache-dir", str(cache), "--json", *extra)


def test_orbit_scan_cache_hit_respects_budget(capsys, tmp_path):
    code, _, _ = _scan(capsys, tmp_path)
    assert code == 0
    code, out, err = _scan(capsys, tmp_path, "--budget", "5")
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("damage", ["truncate", "garbage", "other-group"])
def test_orbit_scan_recomputes_a_bad_cache_file(capsys, tmp_path, damage):
    code, fresh, _ = _scan(capsys, tmp_path)
    assert code == 0
    [path] = tmp_path.iterdir()
    good = path.read_text()
    if damage == "truncate":
        path.write_text(good[: len(good) // 2])
    elif damage == "garbage":
        path.write_bytes(b"\xff\xfe not json")
    else:
        code, _, _ = run(capsys, "orbit-scan", "C", "2", "--q", "8",
                         "--cache-dir", str(tmp_path / "other"), "--json")
        assert code == 0
        [other] = (tmp_path / "other").iterdir()
        path.write_text(other.read_text())
    code, out, _ = _scan(capsys, tmp_path)
    assert code == 0
    assert out == fresh
    assert path.read_text() == good


def test_orbit_scan_cache_key_includes_version(capsys, tmp_path, monkeypatch):
    code, _, _ = _scan(capsys, tmp_path)
    assert code == 0
    monkeypatch.setattr(cli, "__version__", "0.0.0-other")
    code, _, _ = _scan(capsys, tmp_path)
    assert code == 0
    assert len(list(tmp_path.iterdir())) == 2


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "_cmd_info", boom)
    code, out, err = run(capsys, "info", "A", "2", "--q", "3")
    assert code == cli.EXIT_INTERNAL == 3
    assert out == ""
    assert err == "internal error: RuntimeError: simulated fault\n"
