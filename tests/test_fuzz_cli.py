"""Malformed-payload fuzzing of ``crkit analyze``.

Valid algebra, CR-pair and orbit payloads are mutated by dropping keys or
list items, swapping values for ones of another type, and replacing
integers with out-of-range indices.  Whatever the mutation, the CLI must
either run (exit 0) or reject the input (exit 2 with an ``error:``
message); an escaping exception or an internal-error exit fails the test.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crkit.catalog import get_entry
from crkit.cli import main
from crkit.fileio import orbit_payload

from .test_fileio_cli import heisenberg_pair_payload, heisenberg_payload


def base_payloads():
    orbit = orbit_payload(get_entry("quadric(1,1)").model)
    orbit["kahler"] = True
    orbit["pi1"] = {"real": [1, [2]], "complex": [0, []], "surjective": False}
    return {
        "algebra": heisenberg_payload(),
        "cr-pair": heisenberg_pair_payload(),
        "orbit": orbit,
    }


BASES = base_payloads()

# values of every JSON type; the small integers double as out-of-range indices
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "1", "1/0", "-1/2", "Q", "Q_i", "orbit", "cr-pair"]),
    st.lists(st.integers(min_value=-1, max_value=4), max_size=3),
    st.lists(st.sampled_from(["0", "1", "-1"]), max_size=4),
    st.dictionaries(st.sampled_from(["real", "complex", "kind"]), st.integers(0, 2), max_size=2),
)


def paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and indices."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from paths(child, prefix + (index,))


def mutate(payload, data):
    """Apply one drawn mutation to a deep copy of payload."""
    payload = json.loads(json.dumps(payload))
    path = data.draw(st.sampled_from(list(paths(payload))[1:]), label="path")
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    action = data.draw(st.sampled_from(["drop", "swap", "index"]), label="action")
    if action == "drop":
        del parent[key]
    elif action == "swap":
        parent[key] = data.draw(JUNK, label="value")
    else:
        parent[key] = data.draw(st.sampled_from([-1, 3, 6, 7, 40]), label="index")
    return payload


def run_analyze(payload):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", path, "--format", "json"])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(sorted(BASES)), data=st.data())
def test_mutated_payload_exits_0_or_2(kind, data):
    payload = BASES[kind]
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="mutations")):
        payload = mutate(payload, data)
    code, err = run_analyze(payload)
    assert code in (0, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
