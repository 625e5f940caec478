"""Batch command line front door.

    crkit analyze FILE... --set validate,levi [--format text|json] [--explain]
    crkit catalog list | show NAME | verify NAME|all [--format text|json]

Exit codes: 0 = ran (axiom failures are report content, not errors),
1 = catalog verification mismatch, 2 = bad input, 3 = internal invariant
breach (never expected).  Structured output is line-delimited JSON with a
stable schema tag and sorted keys, so byte-identical inputs give
byte-identical output.  analyze reads each file as one object
(fileio.load_file): a LieAlgebra, a CRPair or an orbit file's
CatalogEntry, which admit the first 2, 4 and 7 ANALYSES.  An entry's
fibration, globalize and fine-class records come from one helper, for
analyze and catalog show alike.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SCHEMA
from .errors import InputError, InternalError, StructureError

# layers are imported by the functions that use them: --help loads none,
# an algebra file no orbit layer, catalog verify neither fileio nor globalize

ANALYSES = (
    "validate",
    "structure",
    "cr-axioms",
    "levi",
    "fibration",
    "globalize",
    "fine-class",
)

EXPLAIN = {
    "antisymmetry": "the bracket tensor must satisfy c[i][j] = -c[j][i] exactly",
    "jacobi": "the cyclic triple bracket sum must vanish coordinatewise",
    "kernel-exactness": "J must vanish modulo h exactly on the isotropy algebra",
    "square-minus-identity": "J must square to minus the identity modulo h on R",
    "isotropy-compatibility": (
        "brackets with the isotropy algebra must preserve R and commute "
        "with J modulo h; with a disconnected isotropy group this is not "
        "checkable from the algebra"
    ),
    "integrability": (
        "[x,y] - [Jx,Jy] must stay in R with vanishing torsion modulo h, "
        "the formal integrability of the structure"
    ),
    "levi-kernel": "joint radical of the symmetrized bracket forms on R/h",
    "levi-signature": (
        "inertia of the scalar form from pairing the bracket form with a "
        "codirection; counts are complex units, both sign orders reported"
    ),
    "degenerate": "degenerate means every direction normalizes the isotropy",
    "isotropy-discrete-proxy": (
        "with a degenerate fibration an almost effective action forces "
        "discrete isotropy; the algebra-level proxy is h = 0"
    ),
    "radical-abelian-on-base": (
        "the derived algebra of the ambient radical must lie in the base "
        "stabilizer, i.e. the radical acts as an abelian group on the base"
    ),
    "condition-c": (
        "the fundamental group of the real stabilizer must have "
        "finite-index (table-flagged surjective) image in that of its "
        "complexification so the fiber action descends"
    ),
    "affine-quadric-involved": (
        "fibers built on the two-dimensional affine quadric admit "
        "nonglobalizable covers, so no verdict is possible wholesale"
    ),
    "overall": (
        "abelian radical action plus the homotopy comparison give a "
        "globalization; a finite cokernel costs at most a finite quotient"
    ),
    "nondegenerate-fiber-abelian": (
        "with nondegenerate Levi form the fibration fiber is a torus "
        "algebra: abelian of dimension at most the codimension"
    ),
    "nondegenerate-fiber-dim-bound": (
        "fiber dimension is bounded by the CR codimension when the Levi "
        "form is nondegenerate"
    ),
    "kahler-m-solvable": (
        "for a Kahler parallelizable instance the maximal complex ideal "
        "must be solvable"
    ),
    "kahler-g-solvable": (
        "in codimension at most two, Kahler parallelizable forces the "
        "whole algebra solvable"
    ),
}


class Reporter:
    def __init__(self, fmt, explain, stream):
        self.fmt = fmt
        self.explain = explain
        self.stream = stream

    def emit(self, **record):
        record.setdefault("schema", SCHEMA)
        if self.explain:
            note = EXPLAIN.get(record.get("check", ""))
            if note:
                record["explain"] = note
        if self.fmt == "json":
            self.stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        else:
            parts = [record.get("target", "")]
            if "analysis" in record:
                parts.append(record["analysis"])
            if "check" in record:
                parts.append(record["check"])
            head = " ".join(p for p in parts if p)
            status = record.get("status", "")
            detail = record.get("detail", "")
            line = f"{head}: {status}" if status != "" else head
            if detail != "":
                line += f"  [{detail}]"
            self.stream.write(line + "\n")
            if "explain" in record:
                self.stream.write(f"    note: {record['explain']}\n")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _structure_records(rep, target, L, label):
    from . import algebra
    from .scalars import QI, QQ

    # a complex algebra is analysed on its realification, where the series
    # terms and the radical are the realified ones, of twice the dimension
    R, scale = (algebra.realify(L), 2) if L.field == QI else (L, 1)
    derived, lower = algebra.derived_series(R), algebra.lower_central_series(R)
    rows = [
        ("dimension", L.dim),
        ("field", L.field),
        ("abelian", algebra.is_abelian(R)),
        ("solvable", derived[-1].dim == 0),
        ("nilpotent", lower[-1].dim == 0),
        ("derived-series-dims", [s.dim // scale for s in derived]),
        ("lower-central-dims", [s.dim // scale for s in lower]),
        ("radical-dim", algebra.radical(R).dim // scale),
    ]
    if L.field == QQ:
        rows.append(("killing-signature", list(algebra.killing_signature(L))))
    for name, value in rows:
        rep.emit(target=target, analysis="structure", check=f"{label}.{name}",
                 status=str(value))


PASS_FAIL = {True: "pass", False: "fail", None: "not-checkable"}
MATCH = {True: "match", False: "MISMATCH"}


def _report_records(rep, target, analysis, report, words=PASS_FAIL):
    """One record per check; a report with no checks means not applicable."""
    if not report.checks:
        rep.emit(target=target, analysis=analysis, check="applicable", status="no")
    for c in report.checks:
        rep.emit(target=target, analysis=analysis, check=c.name,
                 status=words[c.ok], detail=c.detail)


def _levi_records(rep, target, pair):
    from .cr import cr_type, levi_form, levi_signature

    t = cr_type(pair)
    rep.emit(target=target, analysis="levi", check="cr-type",
             status=f"(n={t.n}, l={t.l}, k={t.k})")
    report = levi_form(pair)
    rep.emit(target=target, analysis="levi", check="degenerate-domain",
             status="yes" if report.degenerate_domain else "no")
    rep.emit(target=target, analysis="levi", check="levi-kernel",
             status=str(report.kernel.dim),
             detail="nondegenerate" if report.nondegenerate else "degenerate")
    if report.value_dim >= 1 and not report.degenerate_domain:
        sig = levi_signature(pair)
        rep.emit(target=target, analysis="levi", check="levi-signature",
                 status=str(sig.normalized), detail=f"orderings {sig.orderings}")


def _entry_records(rep, target, entry, analyses=ANALYSES[4:]):
    """The fibration, globalize and fine-class records of an entry, as selected."""
    for analysis in analyses:
        if analysis == "fibration":
            fib = entry.fibration
            for key, value in (("degenerate", fib.degenerate), ("dim_fiber", fib.fiber_dim),
                               ("dim_base", fib.base_dim), ("h_dim", fib.h_dim)):
                rep.emit(target=target, analysis=analysis, check=key, status=str(value))
            if fib.isotropy_discrete_proxy is not None:
                rep.emit(target=target, analysis=analysis, check="isotropy-discrete-proxy",
                         status="pass" if fib.isotropy_discrete_proxy else "fail")
            for caveat in fib.caveats:
                rep.emit(target=target, analysis=analysis, check="caveat", status=caveat)
        elif analysis == "globalize":
            from .globalize import verdict

            v = verdict(entry)
            for name, value in v.rows():
                rep.emit(target=target, analysis=analysis, check=name, status=value)
            for note in v.notes:
                rep.emit(target=target, analysis=analysis, check="note", status=note)
        else:
            from .globalize import fine_classification_checks

            _report_records(rep, target, analysis, fine_classification_checks(entry))


# each input kind admits a prefix of ANALYSES
ADMITTED = {"algebra": 2, "cr-pair": 4, "orbit": len(ANALYSES)}


def cmd_analyze(args, rep):
    from .algebra import validate
    from .fileio import load_file

    selected = ANALYSES if args.set is None else tuple(args.set)
    for path in args.files:
        kind, obj = load_file(path)
        target = path
        # a pair is validated on its algebra g and an orbit on its complex
        # ambient; an orbit's pair is its entry's, induced on first read
        L = obj if kind == "algebra" else obj.g if kind == "cr-pair" else obj.model.ambient
        jacobi_ok = True
        axioms_ok = True
        for analysis in ANALYSES[:ADMITTED[kind]]:
            if analysis not in selected:
                continue
            if analysis == "validate":
                report = validate(L)
                _report_records(rep, target, analysis, report)
                jacobi_ok = report.by_name("jacobi").ok
            elif not jacobi_ok:
                rep.emit(target=target, analysis=analysis, status="skipped",
                         detail="jacobi failed")
            elif analysis == "structure":
                if kind == "orbit":
                    model = obj.model
                    _structure_records(rep, target, model.real_algebra, "real")
                    for name, value in (("codim", model.codim), ("h-dim", model.h.dim),
                                        ("m-dim", model.m.dim)):
                        rep.emit(target=target, analysis=analysis, check=f"orbit.{name}",
                                 status=str(value))
                else:
                    _structure_records(rep, target, L, "algebra")
            elif analysis in ("cr-axioms", "levi"):
                pair = obj if kind == "cr-pair" else obj.cr_pair
                if analysis == "cr-axioms":
                    from .cr import check_cr_pair

                    report = check_cr_pair(pair,
                                           connected_isotropy=not args.disconnected_isotropy)
                    _report_records(rep, target, analysis, report)
                    axioms_ok = report.ok
                elif axioms_ok:
                    _levi_records(rep, target, pair)
                else:
                    rep.emit(target=target, analysis=analysis, check="levi-kernel",
                             status="skipped", detail="cr axioms failed")
            else:
                _entry_records(rep, target, obj, (analysis,))
    return 0


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args, rep):
    from .catalog import ROSTER, get_entry, verify_entry

    action = args.action
    if action in ("list", "show"):
        from .globalize import verdict
    if action == "list":
        for name in ROSTER:
            entry = get_entry(name)
            v = verdict(entry)
            rep.emit(
                target=name, analysis="catalog", check="entry",
                status=v.overall,
                detail=f"family={entry.family} params={entry.params} "
                       f"codim={entry.expected.codim}",
            )
        return 0
    if action == "show":
        entry = get_entry(args.name)
        if args.format == "json":
            from .fileio import orbit_payload

            payload = orbit_payload(entry.model, entry.pi1, kahler=entry.kahler,
                                    quadric_refibers=entry.quadric_refibers,
                                    projective_plane_base=entry.projective_plane_base)
            payload["expected"] = _expected_payload(entry.expected)
            payload["verdict"] = verdict(entry).overall
            rep.stream.write(json.dumps(payload, sort_keys=True) + "\n")
            return 0
        _report_records(rep, entry.name, "verify", verify_entry(entry), MATCH)
        _entry_records(rep, entry.name, entry)
        for note in entry.notes:
            rep.emit(target=entry.name, analysis="catalog", check="note", status=note)
        return 0
    # argparse admits only list, show and verify
    names = list(ROSTER) if args.name == "all" else [args.name]
    all_ok = True
    for name in sorted(names) if args.name == "all" else names:
        entry = get_entry(name)
        report = verify_entry(entry)
        _report_records(rep, entry.name, "verify", report, MATCH)
        all_ok = all_ok and report.ok
    rep.emit(target="catalog", analysis="verify", check="summary",
             status="all-match" if all_ok else "mismatches")
    return 0 if all_ok else 1


def _expected_payload(expected):
    out = {}
    for key, value in expected._asdict().items():
        if value is None:
            continue
        if isinstance(value, frozenset):
            value = sorted(value)
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parse_set(text):
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    for name in names:
        if name not in ANALYSES:
            raise argparse.ArgumentTypeError(f"unknown analysis {name!r}")
    if not names:
        raise argparse.ArgumentTypeError("at least one analysis must be selected")
    return names


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crkit",
        description="exact-arithmetic analyses of invariant CR structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run analyses on structured input files")
    analyze.add_argument("files", nargs="+")
    analyze.add_argument("--set", type=_parse_set, default=None,
                         help="comma-separated subset of: " + ", ".join(ANALYSES))
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--explain", action="store_true")
    analyze.add_argument("--disconnected-isotropy", action="store_true",
                         help="treat the isotropy group as possibly disconnected")

    catalog = sub.add_parser("catalog", help="inspect and verify the shipped instances")
    catalog.add_argument("action", choices=("list", "show", "verify"))
    catalog.add_argument("name", nargs="?", default=None)
    catalog.add_argument("--format", choices=("text", "json"), default="text")
    catalog.add_argument("--explain", action="store_true")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error contract
        return int(exc.code) if exc.code else 0
    rep = Reporter(args.format, args.explain, sys.stdout)
    try:
        if args.command == "analyze":
            return cmd_analyze(args, rep)
        # the subcommand is required, so it is catalog
        if args.action in ("show", "verify") and not args.name:
            print("error: catalog %s needs an entry name" % args.action,
                  file=sys.stderr)
            return 2
        return cmd_catalog(args, rep)
    except (InputError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
