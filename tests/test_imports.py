"""The package's import footprint and its public names, in fresh interpreters.

``crkit`` resolves its public names from their submodules on first use,
and the CLI imports the catalog, CR and globalization layers only in the
commands that need them.  Each check runs in a new interpreter, because
this test process has long since imported every layer.
"""

import json
import os
import subprocess
import sys

import pytest

import crkit

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(crkit.__file__)))


def fresh(code):
    """The JSON object a fresh interpreter prints as its last stdout line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_analyze_of_an_algebra_file_loads_no_orbit_layer():
    loaded = fresh(
        "import json, sys\n"
        "from crkit.cli import main\n"
        "code = main(['analyze', 'tests/golden/sl2.json'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('crkit'))]))\n"
    )
    code, modules = loaded
    assert code == 0
    assert "crkit.algebra" in modules
    for layer in ("crkit.catalog", "crkit.complexify", "crkit.cr", "crkit.globalize"):
        assert layer not in modules


LEAN_COMMANDS = {
    "verify": ["catalog", "verify", "quadric(2,1)"],
    "algebra": ["analyze", "tests/golden/sl2.json"],
    "orbit": ["analyze", "tests/golden/heis_solv_orbit.json"],
}


@pytest.mark.parametrize("command", sorted(LEAN_COMMANDS))
def test_commands_start_without_dataclasses_or_inspect(command):
    # the records are namedtuples, so no command needs dataclasses (nor the
    # inspect, ast and dis it imports); an orbit file needs no catalog builder
    code, added = fresh(
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import contextlib, io\n"
        "from crkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({LEAN_COMMANDS[command]!r})\n"
        "import json\n"
        "print(json.dumps([code, sorted(set(sys.modules) - bare)]))\n"
    )
    assert code == 0
    assert "crkit.cli" in added
    assert "dataclasses" not in added and "inspect" not in added
    if command == "orbit":
        assert "crkit.entries" in added and "crkit.catalog" not in added


def loaded_by(argv):
    """The exit code of a fresh main(argv) and the crkit modules it loaded."""
    return fresh(
        "import contextlib, io, json, sys\n"
        "from crkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('crkit'))]))\n"
    )


def test_help_loads_no_layer():
    assert loaded_by(["--help"]) == [0, ["crkit", "crkit.cli", "crkit.errors"]]


def test_catalog_verify_loads_neither_fileio_nor_globalize():
    code, modules = loaded_by(["catalog", "verify", "quadric(2,1)"])
    assert code == 0
    assert "crkit.catalog" in modules
    assert "crkit.fileio" not in modules and "crkit.globalize" not in modules


def test_every_public_name_resolves_to_its_submodule_object():
    result = fresh(
        "import importlib, json, sys\n"
        "import crkit\n"
        "bare = sorted(m for m in sys.modules if m.startswith('crkit.'))\n"
        "names = list(crkit.__all__)\n"
        "moved = [n for n in names if getattr(crkit, n) is not getattr(\n"
        "    importlib.import_module(getattr(crkit, n).__module__), n)]\n"
        "star = {}\n"
        "exec('from crkit import *', star)\n"
        "print(json.dumps({'bare': bare, 'names': names, 'moved': moved,\n"
        "                  'star': sorted(n for n in star if not n.startswith('__')),\n"
        "                  'dir': all(n in dir(crkit) for n in names)}))\n"
    )
    # importing the package loads no layer; every name is still reachable
    assert result["bare"] == []
    assert len(result["names"]) == len(set(result["names"])) == 61
    assert result["moved"] == []
    assert result["star"] == sorted(result["names"])
    assert result["dir"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crkit.no_such_name
    assert crkit.LieAlgebra is crkit.algebra.LieAlgebra
