"""Byte-for-byte regression test of the CLI on a fixed list of invocations.

The expected exit codes and standard outputs in ``data/golden_cli.json`` were
recorded with the orbit-enumerating implementation, before torus-orbit sizes
came from alcove stabilizers.  The twisted, Suzuki-Ree and ``candidates``
invocations were added later, recorded with the per-weight descent that
preceded descent plans; the embedded-value invocations were recorded before
the bound cascades shared their scope predicates and table step.  The
``info``, ``export-tables`` and ``verify`` invocations were recorded before
the Dynkin-diagram facts (components, independent sets, Weyl constants)
were kept in one place in ``rootdata``.  The three invocations
``bound A 2 --q 2 --weight {0,0|1,0|0,1} --json`` were recorded again when
the embedded table gained SL(3, 2), and the seven ``bound`` invocations
whose weight has a nontrivial Borel socle (D4(8) at 1,2,3,4, 6,5,4,3 and
1,1,1,1, A4(8) at 1,2,3,4 and 3,6,2,5, E6(8) at 1,2,3,4,5,6 and E7(8) at
1,2,3,4,5,6,7) when the restriction step left those weights.  The zero
weights of D4(8), A4(8) and E6(8) were recorded again when it left the zero
weight too, and ``bound D 4 --q 2 --twist 3 --weight 0,0,0,0`` (15 to 7)
when the 3D4(2) table entry, which had no source, was deleted.  The entry
``bound G2 2 --suzuki-ree-e 0 --weight 0,0`` was added with the table's
2G2(3) entry.  Refactors
must keep every output identical.
To record the file again, for a change that is meant to alter an output::

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from pimbounds import cli

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_cli.json"

_BOUND_WEIGHTS = (
    (("D", "4", "--q", "8"),
     ("0,0,0,0", "1,2,3,4", "7,0,7,0", "6,5,4,3", "1,1,1,1")),
    (("A", "4", "--q", "8"), ("0,0,0,0", "1,2,3,4", "7,7,0,7", "3,6,2,5")),
    (("E6", "6", "--q", "8"),
     ("0,0,0,0,0,0", "1,2,3,4,5,6", "7,0,7,0,7,0")),
    (("E7", "7", "--q", "8"), ("1,2,3,4,5,6,7", "0,7,0,7,0,7,0")),
    (("F4", "4", "--q", "9"), ("0,0,0,0", "1,2,3,4", "8,0,4,0", "5,6,7,8")),
    (("G2", "2", "--q", "49"), ("0,0", "1,2", "24,12", "48,7", "30,41")),
    # q - 1 = 1 and q - 1 = 2.
    (("A", "2", "--q", "2"), ("0,0", "1,0", "0,1", "1,1")),
    (("C", "3", "--q", "3"), ("0,0,0", "1,0,1", "2,1,0", "1,1,1")),
)

# Twisted and Suzuki-Ree groups: the only ones whose parabolics have orbits
# of Levi components.  Each list has the zero and the Steinberg weight.
_TWISTED_BOUND_WEIGHTS = (
    (("A", "4", "--q", "16", "--twist", "2"),
     ("0,0,0,0", "15,15,15,15", "1,2,3,4", "15,0,0,15", "3,7,7,3")),
    (("D", "4", "--q", "9", "--twist", "3"),
     ("0,0,0,0", "8,8,8,8", "1,2,3,4", "8,0,8,8", "2,5,2,2")),
    (("E6", "6", "--q", "4", "--twist", "2"),
     ("0,0,0,0,0,0", "3,3,3,3,3,3", "1,2,3,0,1,2", "3,0,0,3,0,3")),
    (("D", "5", "--q", "4", "--twist", "2"),
     ("0,0,0,0,0", "3,3,3,3,3", "1,2,3,0,1", "3,0,3,1,2")),
    (("B", "2", "--suzuki-ree-e", "2"), ("0,0", "3,7", "1,2", "3,0", "2,5")),
    (("G2", "2", "--suzuki-ree-e", "1"), ("0,0", "8,2", "1,1", "4,2", "8,0")),
    (("F4", "4", "--suzuki-ree-e", "1"),
     ("0,0,0,0", "1,1,3,3", "1,0,2,1", "0,1,3,0")),
)

# One invocation for each embedded value no other entry pins: the exact
# rank-1 values, every rule name of ``bounds.known_minimum`` and the exact
# value of a 1-PIM.
_EMBEDDED_BOUND_WEIGHTS = (
    (("A", "1", "--q", "8"), ("0",)),
    (("A", "1", "--q", "9"), ("4",)),
    (("C", "2", "--q", "3"), ("0,0", "1,0")),
    (("C", "2", "--q", "2"), ("1,0",)),
    (("B", "2", "--q", "5"), ("1,2",)),
    (("A", "2", "--q", "5"), ("1,3",)),
    (("G2", "2", "--q", "2"), ("1,0",)),
    (("G2", "2", "--q", "7"), ("3,4",)),
    (("A", "2", "--q", "5", "--twist", "2"), ("1,2",)),
    (("A", "3", "--q", "2", "--twist", "2"), ("1,0,0",)),
    (("A", "4", "--q", "2", "--twist", "2"), ("1,0,0,1",)),
    (("D", "4", "--q", "2", "--twist", "3"), ("0,0,0,0",)),
    (("F4", "4", "--suzuki-ree-e", "0"), ("0,0,0,0",)),
    (("G2", "2", "--suzuki-ree-e", "0"), ("0,0",)),
)

_CANDIDATE_GROUPS = (
    ("A", "3", "--q", "3", "--twist", "2"),
    ("D", "4", "--q", "2", "--twist", "3"),
    ("A", "4", "--q", "2", "--twist", "2"),
)

_ORBITS = (
    (("C", "2", "--q", "4"), "1,0"),
    (("A", "3", "--q", "5"), "1,2,3"),
    (("B", "3", "--q", "5"), "2,0,1"),
    (("D", "4", "--q", "4"), "1,0,2,1"),
    (("G2", "2", "--q", "7"), "1,1"),
    (("E6", "6", "--q", "3"), "1,0,0,0,0,1"),
    (("A", "2", "--q", "2"), "1,1"),
)

# Every group of `pimbounds verify orbits`, each once.
_SCAN_GROUPS = (
    [("C", str(rank), "--q", str(q)) for rank in (2, 3, 4) for q in (4, 8)]
    + [("D", "4", "--q", str(q)) for q in (4, 8)]
    + [("A", str(n - 1), "--q", str(q)) for n in range(3, 7) for q in (3, 4, 5)]
    + [("G2", "2", "--q", str(q)) for q in (4, 5, 7)]
    + [("F4", "4", "--q", str(q)) for q in (3, 5)]
    + [("E6", "6", "--q", "4"), ("E7", "7", "--q", "3"), ("E8", "8", "--q", "3")]
)

# One group of each family, the twisted forms with order formulas and the
# three Suzuki-Ree families: pins rank, |W|, N and the order polynomials.
_INFO_GROUPS = (
    ("A", "3", "--q", "4"), ("B", "3", "--q", "3"), ("C", "4", "--q", "5"),
    ("D", "5", "--q", "2"), ("E6", "6", "--q", "2"), ("E7", "7", "--q", "3"),
    ("E8", "8", "--q", "2"), ("F4", "4", "--q", "3"), ("G2", "2", "--q", "5"),
    ("A", "4", "--q", "16", "--twist", "2"),
    ("D", "4", "--q", "9", "--twist", "3"),
    ("B", "2", "--suzuki-ree-e", "1"), ("G2", "2", "--suzuki-ree-e", "1"),
    ("F4", "4", "--suzuki-ree-e", "1"),
)

INVOCATIONS = tuple(
    [("bound", *group, "--weight", w, "--json")
     for group, ws in _BOUND_WEIGHTS for w in ws]
    + [("orbit", *group, "--beta", beta, "--json") for group, beta in _ORBITS]
    + [("orbit", *group, "--beta", beta) for group, beta in _ORBITS[:2]]
    + [("orbit-scan", *group, "--json") for group in _SCAN_GROUPS]
    + [("bound", *group, "--weight", w, "--json")
       for group, ws in _TWISTED_BOUND_WEIGHTS for w in ws]
    + [("bound", *group, "--weight", w, "--json")
       for group, ws in _EMBEDDED_BOUND_WEIGHTS for w in ws]
    + [("candidates", *group, "--json") for group in _CANDIDATE_GROUPS]
    + [("info", *group, "--json") for group in _INFO_GROUPS]
    + [("export-tables",)]
    + [("verify", suite, "--json")
       for suite in ("tables", "orbits", "u4", "d4", "ree", "all")]
)


def run_cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return {" ".join(entry["argv"]): entry for entry in json.load(fh)}


def test_golden_file_covers_every_invocation(golden):
    assert set(golden) == {" ".join(argv) for argv in INVOCATIONS}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_is_byte_identical(golden, argv):
    expected = golden[" ".join(argv)]
    got = run_cli(argv)
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]


def record() -> None:
    entries = [{"argv": list(argv), **run_cli(argv)} for argv in INVOCATIONS]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
