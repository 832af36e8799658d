"""Replay the golden command-line runs of tests/golden/.

Where the header of ``runs.json`` matches this environment (Python and
numpy versions, ``platform.machine()``), each run's stdout, stderr, exit
code and written files must match byte for byte.  Elsewhere the last
bits may differ, since they come from LAPACK's eigen-solver and libm:
there every non-numeric token must match exactly and every number
within ``REL``.  ``tests/golden/regenerate.py`` rewrites the files.
"""

import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from golden.regenerate import CASES, header, run

GOLDEN = Path(__file__).parent / "golden"
RUNS = json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))

# runs whose text argparse writes; its layout and wording change
# between Python versions
ARGPARSE_TEXT = {"format_xml", "geometry_5ring", "point_help", "fig2_help"}

# The README's resolution bound on a variance is eps omega_m / min|Re
# lambda|.  Over the golden runs' stable points the slowest decay is
# smallest at delta = 0, gamma_m / 2 = omega_m / 2Q with Q = 6700, so the
# bound is 2 Q eps = 3.0e-12.  The stored run and this one may each be
# that far from the exact value, hence twice it; and a 12-digit CSV cell
# may round the other way, one unit in its last digit, up to 1e-11.
RESOLUTION = 2 * 6700 * np.finfo(float).eps
REL = 2 * RESOLUTION + 1e-11

# a number that is a token of its own, not part of a name like 4ring
_NUMBER = re.compile(
    r"((?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.]))")


def _same_tokens(got: str, want: str) -> bool:
    """Every non-numeric piece equal, every number within REL."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w) or g[::2] != w[::2]:
        return False
    return all(abs(float(a) - float(b)) <= REL * abs(float(b))
               for a, b in zip(g[1::2], w[1::2]))


def _read(name: str) -> str:
    with open(GOLDEN / name, encoding="utf-8", newline="") as fh:
        return fh.read()


def test_the_stored_runs_are_the_cases():
    assert {name: shlex.split(line) for name, line in CASES.items()} \
        == {name: r["argv"] for name, r in RUNS["runs"].items()}


def test_the_token_comparison_tolerates_only_rel():
    assert _same_tokens("x 1.000000000001 4ring 0", "x 1 4ring 0")
    assert not _same_tokens("x 1.0000000001", "x 1")
    assert not _same_tokens("x 0", "x 1e-300")
    assert not _same_tokens("3ring", "4ring")
    assert not _same_tokens("a,1,2", "a,1")


@pytest.mark.parametrize("name", CASES)
def test_golden_run(name):
    stored = RUNS["runs"][name]
    code, out, err, files = run(stored["argv"])
    assert code == stored["exit"]
    assert sorted(files) == stored["files"]
    got = {"stdout": out, "stderr": err,
           **{f"file {f}": text for f, text in files.items()}}
    want = {"stdout": _read(f"{name}.stdout"),
            "stderr": _read(f"{name}.stderr"),
            **{f"file {f}": _read(f"{name}.{f}") for f in stored["files"]}}
    here, there = header(), RUNS["header"]
    if here == there:
        assert got == want
        return
    python = here["python"].split(".")[:2] == there["python"].split(".")[:2]
    if name in ARGPARSE_TEXT and not python:
        pytest.skip(f"argparse's text on Python {here['python']} differs "
                    f"from {there['python']}'s")
    for what in want:
        assert _same_tokens(got[what], want[what]), what
