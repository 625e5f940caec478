"""The package's import footprint and its public names.

``crkit`` resolves its public names from their submodules on first use,
and the CLI imports the catalog, CR and globalization layers only in the
commands that need them.  Each of those checks runs in a new interpreter,
because this test process has long since imported every layer.  The
public names are README's "Library use" list, and every other public
function or class in ``src/crkit`` has a use inside the package.
"""

import ast
import json
import os
import re
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
    assert len(result["names"]) == len(set(result["names"])) == 55
    assert result["moved"] == []
    assert result["star"] == sorted(result["names"])
    assert result["dir"]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crkit.no_such_name
    assert crkit.LieAlgebra is crkit.algebra.LieAlgebra


def readme_library_names():
    """{module: names} from the bullet list of README's "Library use" section."""
    with open(os.path.join(REPO, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    listed = {}
    # one bullet per module: - `crkit.module`: `Name`, `name`, ...
    for item in re.findall(r"^- `crkit\.(\w+)`:(.*?)(?=^- |^$)", section, re.M | re.S):
        module, names = item
        listed[module] = re.findall(r"`(\w+)`", names)
    return listed


def test_readme_lists_exactly_the_exported_names():
    listed = readme_library_names()
    assert sorted(n for names in listed.values() for n in names) == crkit.__all__
    # under the module crkit imports each name from
    assert listed == {module: sorted(names) for module, names in crkit._EXPORTS.items()}


def test_every_public_definition_has_a_use_in_the_package():
    # a public top-level function or class is exported, or something in
    # src/crkit other than its own definition refers to it; code only the
    # tests use belongs in tests/support.py
    package = os.path.dirname(os.path.abspath(crkit.__file__))
    definitions, used = [], set()
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    definitions.append(f"{filename[:-3]}.{own}")
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name != own:
                    used.add(name)
    assert definitions, package
    unused = [d for d in definitions
              if d.split(".")[1] not in used and d.split(".")[1] not in crkit.__all__]
    assert unused == []
