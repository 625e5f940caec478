"""CLI output pinned byte for byte against checked-in golden files.

Each case runs ``crkit`` in-process from ``tests/golden`` (so file targets
are the bare input names) and compares stdout and the exit code with
``tests/golden/<case>.out``.  Together the cases reach every record
emitter: catalog verification, ``catalog show`` and every ``analyze``
analysis on an algebra, a CR-pair and an orbit file.

To re-record after an intended output change, run this module as a script:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

import crkit
from crkit.catalog import ROSTER
from crkit.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "verify_all_json": ["catalog", "verify", "all", "--format", "json"],
    "list_json": ["catalog", "list", "--format", "json"],
    "show_quadric_2_1": ["catalog", "show", "quadric(2,1)"],
    "show_heis_solv": ["catalog", "show", "heis_solv"],
    "show_c2_torus": ["catalog", "show", "c2_torus"],
    "show_p2r": ["catalog", "show", "p2r"],
    "analyze_algebra": ["analyze", "sl2.json", "--format", "json", "--explain"],
    # sl(3, R) in a unimodular basis: dense rows and 10-bit constants
    "analyze_sl3_rebased": ["analyze", "sl3_rebased.json", "--format", "json"],
    "analyze_pair": ["analyze", "heisenberg_pair.json", "--format", "json", "--explain"],
    "analyze_orbit": ["analyze", "heis_solv_orbit.json", "--format", "json", "--explain"],
    "analyze_orbit_disconnected": [
        "analyze", "heis_solv_orbit.json", "--format", "json", "--explain",
        "--disconnected-isotropy",
    ],
    "analyze_quadric_orbit": ["analyze", "quadric_2_1_orbit.json", "--format", "json"],
    "analyze_jacobi_failure": ["analyze", "jacobi_failure.json", "--set", "validate"],
    "analyze_pair_bad_square": ["analyze", "heisenberg_pair_bad_square.json"],
    # a witness of 5,000 digits, past str(int)'s default limit of 4,300
    "analyze_pair_large_witness": ["analyze", "heisenberg_pair_large_witness.json"],
    # Q(i) inputs with nonzero imaginary parts: constants, witness, isotropy rows
    "analyze_nonreal_algebra": ["analyze", "nonreal_algebra.json", "--format", "json"],
    "analyze_nonreal_jacobi_failure": [
        "analyze", "nonreal_jacobi_failure.json", "--set", "validate",
    ],
    "analyze_nonreal_orbit": ["analyze", "nonreal_orbit.json", "--format", "json"],
    # a point orbit: no real rows, so every Solver in the analyses is empty
    "analyze_point_orbit": ["analyze", "point_orbit.json", "--format", "json"],
    # a negative pi1 rank: refused on load, before any record
    "analyze_bad_pi1": ["analyze", "bad_pi1_orbit.json"],
}
# the orbit payload of every roster entry, isotropy rows included
CASES.update(
    ("show_" + re.sub(r"\W+", "_", name).strip("_") + "_json",
     ["catalog", "show", name, "--format", "json"])
    for name in ROSTER
)
# the family-sweep benchmark entries, in both orientations
FAMILY_SWEEP = (
    "quadric(2,1)", "quadric(1,2)", "quadric(2,2)", "quadric(3,2)", "quadric(2,3)",
    "quadric(4,2)", "quadric(2,4)", "quadric(3,3)", "quadric(4,3)", "quadric(3,4)",
    "sp_quadric(2,1)", "sp_quadric(1,2)", "twisted(3)", "twisted(4)",
)
CASES.update(
    ("verify_" + re.sub(r"\W+", "_", name).strip("_") + "_json",
     ["catalog", "verify", name, "--format", "json"])
    for name in FAMILY_SWEEP
)
# one mid-size orbit payload per family: ambient brackets and realified real rows
CASES.update(
    ("show_" + re.sub(r"\W+", "_", name).strip("_") + "_json",
     ["catalog", "show", name, "--format", "json"])
    for name in ("quadric(3,2)", "sp_quadric(2,1)", "twisted(3)")
)


def run(argv):
    """Exit code and stdout of one in-process CLI run, inside tests/golden."""
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return f"exit {code}\n" + buf.getvalue()


def golden(case):
    """The checked-in output of a case."""
    with open(os.path.join(GOLDEN, case + ".out"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    assert run(CASES[case]) == golden(case)


GAUSSIAN_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__neg__", "conjugate")


def test_every_case_runs_without_arithmetic_over_q_i():
    # Q(i) values are only read and written at the edges: with every
    # arithmetic operator of GaussianRational raising, each case prints
    # the same bytes.  A fresh interpreter, so no entry another test built
    # and cached without the patch is reused.
    code = (
        "import json\n"
        "from crkit.scalars import GaussianRational\n"
        "calls = []\n"
        "def refuse(op):\n"
        "    def call(*args):\n"
        "        calls.append(op)\n"
        "        raise AssertionError(f'GaussianRational.{op}')\n"
        "    return call\n"
        f"for op in {GAUSSIAN_ARITHMETIC!r}:\n"
        "    setattr(GaussianRational, op, refuse(op))\n"
        "from tests.test_golden import CASES, golden, run\n"
        "print(json.dumps([sorted(c for c in CASES if run(CASES[c]) != golden(c)), calls]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(crkit.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=os.path.dirname(os.path.dirname(GOLDEN)),
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]


if __name__ == "__main__":
    for case, argv in CASES.items():
        with open(os.path.join(GOLDEN, case + ".out"), "w", encoding="utf-8") as fh:
            fh.write(run(argv))
    sys.exit(0)
