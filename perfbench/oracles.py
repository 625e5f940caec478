"""Reference checks for every benchmark op.

The references are closed forms written here, never the program's output
of the same run: the quadric, quaternionic-quadric and twisted-diagonal
families' codimension, CR type and Levi signature, and the Killing
signature and radical dimension of every generated algebra.  The only
output-to-output comparison is the one the corpus is built for: a
canonical algebra and its unimodular rebase must produce identical rows.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import ast
import json
import re

# The shipped roster, copied here so the benchmark does not read it from
# the program it measures.
ROSTER = (
    "quadric(1,1)", "quadric(2,1)", "quadric(2,2)", "quadric(3,1)",
    "sp_quadric(1,1)", "twisted(1)", "twisted(2)", "p2r", "su2xsu2_torus",
    "su2xs1_hopf", "sl2_uz", "heis_solv", "c2_torus",
)

_PARAMS = re.compile(r"^(quadric|sp_quadric|twisted)\(([\d,]+)\)$")
_COMPUTED = re.compile(r"computed=(.*)$")


def family_reference(name):
    """Closed-form invariants of a parametrized catalog entry, or None."""
    m = _PARAMS.match(name)
    if not m:
        return None
    family, params = m.group(1), tuple(int(x) for x in m.group(2).split(","))
    if family == "quadric":
        p, q = params
        n = p + q
        return {"codim": 1, "cr_type": (2 * n - 3, n - 2, 1),
                "levi_signature_unordered": {p - 1, q - 1}}
    if family == "sp_quadric":
        p, q = params
        m_ = p + q
        return {"codim": 1, "cr_type": (4 * m_ - 3, 2 * m_ - 2, 1),
                "levi_signature_unordered": {2 * p - 1, 2 * q - 1}}
    (n,) = params
    return {"codim": 2, "cr_type": (4 * n - 2, 2 * n - 2, 2)}


def _literal(text):
    text = text.strip()
    if text.startswith("frozenset(") and text.endswith(")"):
        return set(ast.literal_eval(text[len("frozenset("):-1]))
    return ast.literal_eval(text)


def _records(stdout):
    try:
        return [json.loads(line) for line in stdout.decode("utf-8").splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return exc


def _check_verify_rows(records, names):
    """Rows of `catalog verify`: all match, and families report and hit their closed forms."""
    problems = []
    seen = {}  # target -> checks it reported
    for rec in records:
        target, check = rec.get("target"), rec.get("check")
        if target == "catalog":
            if rec.get("status") != "all-match":
                problems.append(f"summary {rec.get('status')}")
            continue
        seen.setdefault(target, set()).add(check)
        if rec.get("status") != "match":
            problems.append(f"{target} {check}: {rec.get('status')}")
        ref = family_reference(target)
        if ref is None or check not in ref:
            continue
        m = _COMPUTED.search(rec.get("detail", ""))
        try:
            computed = _literal(m.group(1)) if m else None
        except (ValueError, SyntaxError):
            computed = None
        want = ref[check]
        if isinstance(want, tuple) and isinstance(computed, (tuple, list)):
            computed = tuple(computed)
        if computed != want:
            problems.append(f"{target} {check}: computed {computed!r}, closed form {want!r}")
    if set(seen) != set(names):
        problems.append(f"verified {sorted(seen)}, expected {sorted(names)}")
    # a row the program left out is a check it skipped, not a pass
    for target, checks in seen.items():
        missing = set(family_reference(target) or ()) - checks
        if missing:
            problems.append(f"{target}: no {', '.join(sorted(missing))} row")
    if not any(rec.get("target") == "catalog" for rec in records):
        problems.append("no summary record")
    return problems


def check_catalog(args, code, stdout):
    """Oracle for `catalog verify NAME|all` ops."""
    if code != 0:
        return [f"exit code {code}"]
    records = _records(stdout)
    if isinstance(records, Exception):
        return [f"unparsable output: {records}"]
    name = args[2]
    return _check_verify_rows(records, ROSTER if name == "all" else (name,))


_SIG = re.compile(r"^\((\d+), (\d+), (\d+)\)$")
# The CR axioms `analyze` must report as passing on every orbit file.
CR_AXIOMS = ("kernel-exactness", "square-minus-identity", "isotropy-compatibility",
             "integrability")


def check_analyze(oracle, code, stdout):
    """Oracle for `analyze FILE`: closed forms from the corpus generator."""
    if code != 0:
        return [f"exit code {code}"]
    records = _records(stdout)
    if isinstance(records, Exception):
        return [f"unparsable output: {records}"]
    status = {r.get("check"): r.get("status") for r in records}
    problems = []
    for check in ("antisymmetry", "jacobi"):
        if status.get(check) != "pass":
            problems.append(f"{check}: {status.get(check)}")
    label = "algebra" if oracle["kind"] == "algebra" else "real"
    killing = status.get(f"{label}.killing-signature")
    if killing != str(oracle["killing"]):
        problems.append(f"killing-signature {killing}, closed form {oracle['killing']}")
    radical = status.get(f"{label}.radical-dim")
    if radical != str(oracle["radical"]):
        problems.append(f"radical-dim {radical}, closed form {oracle['radical']}")
    if oracle["kind"] == "orbit":
        p, q = oracle["p"], oracle["q"]
        n = p + q
        if status.get("orbit.codim") != "1":
            problems.append(f"orbit.codim {status.get('orbit.codim')}, closed form 1")
        want = f"(n={2 * n - 3}, l={n - 2}, k=1)"
        if status.get("cr-type") != want:
            problems.append(f"cr-type {status.get('cr-type')}, closed form {want}")
        axioms = {r.get("check"): r.get("status") for r in records
                  if r.get("analysis") == "cr-axioms"}
        for axiom in CR_AXIOMS:
            if axioms.get(axiom) != "pass":
                problems.append(f"cr axiom {axiom}: {axioms.get(axiom)}")
        if n - 2 >= 1:
            m = _SIG.match(status.get("levi-signature") or "")
            if not m or {int(m.group(1)), int(m.group(2))} != {p - 1, q - 1} or m.group(3) != "0":
                problems.append(f"levi-signature {status.get('levi-signature')}, "
                                f"closed form {{{p - 1}, {q - 1}}}")
    return problems


def rows_without_target(stdout):
    """Output rows with the file path removed, for canonical/rebased pairs."""
    records = _records(stdout)
    if isinstance(records, Exception):
        return None
    return [{k: v for k, v in r.items() if k != "target"} for r in records]
