"""Loading and saving the structured (JSON) file formats.

Three payload kinds, detected by their fields:

  algebra     dimension (at most MAX_DIMENSION), field ("Q" | "Q_i"),
              basis, brackets
              brackets is a sparse list of [i, j, [[k, scalar], ...]] with
              i < j only; antisymmetry is filled in by the loader.
  cr-pair     an algebra payload plus h_basis, R_basis (rational rows) and
              J (dense rational matrix); load_file reads a cr-pair file
              as its CRPair, whose algebra is pair.g
  orbit       ambient (an algebra payload over Q_i), real_basis (rational
              rows in realified coordinates), isotropy_hat_basis (rows
              over Q_i), optional flags kahler, quadric_refibers and
              projective_plane_base (CatalogEntry's facts of those
              names) and optional pi1 data
              ({"real": [rank, [torsion...]], "complex": [...],
              "surjective": flag}, nonnegative ranks, orders above 1, at most
              MAX_TORSION orders per list, checked on load);
              a flag is JSON true or false, nothing else.  load_file
              reads an orbit file as a CatalogEntry.

Scalars are exact strings "num/den"; Q(i) scalars are ["re", "im"] pairs
of such strings (a bare string means a real value).  These are the
edges where Q(i) values exist: parse_scalar turns a Q_i scalar into a
GaussianRational, which its algebra stores until realify splits it into
rational parts; load_orbit_model splits a complex isotropy row into its
realified row (realified_rows); and orbit_payload formats the complex
isotropy rows that canonical_complex_rows reads off the realified
isotropy.  An orbit model is built on the echelon rows of the file's
real basis, so its real algebra does not depend on the order or scale of
those rows.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import SCHEMA
from .algebra import LieAlgebra, span
from .errors import InputError, excerpt
from .linalg import echelon, sparse
from .scalars import QI, QQ, format_scalar, parse_rational, parse_scalar

if TYPE_CHECKING:
    from .complexify import OrbitModel

# largest algebra dimension accepted from a file: validation checks the
# Jacobi identity on every triple.  At this size, `crkit analyze` of
# sl(11, R) + R^8 in its standard basis takes about 0.2 CPU seconds (0.04 s
# of it validation) and of sl(11, C) + C^8 as a Q_i file 0.4 s, on a 2-vCPU
# x86-64 VM; dense constants cost more (validating sl(6, R) in a dense
# unimodular basis, dimension 35, takes 0.13 s)
MAX_DIMENSION = 128

# longest pi1 torsion list accepted from a file: each order is only
# checked, never combined with another, so this bounds the input's size,
# not any computation
MAX_TORSION = 256


def _require(payload, key, kind):
    if key not in payload:
        raise InputError(f"{kind} payload is missing {key!r}")
    return payload[key]


def _is_int(x):
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(x, int) and not isinstance(x, bool)


def load_flag(payload, key):
    """An optional boolean field, false when absent; only JSON true and false are accepted."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise InputError(f"{key} must be true or false, got {excerpt(repr(value))}")
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, got {excerpt(repr(value))}")
    return value


def load_algebra(payload) -> LieAlgebra:
    if not isinstance(payload, dict):
        raise InputError("algebra payload must be an object")
    dim = _require(payload, "dimension", "algebra")
    field = _require(payload, "field", "algebra")
    if field not in (QQ, QI):
        raise InputError(f"unknown field tag {excerpt(repr(field))}")
    if not _is_int(dim) or dim < 0:
        raise InputError("dimension must be a nonnegative integer")
    if dim > MAX_DIMENSION:
        raise InputError(f"dimension {excerpt(str(dim))} exceeds the limit of {MAX_DIMENSION}")
    basis = payload.get("basis")
    if basis is None:
        basis = [f"e{k}" for k in range(dim)]
    if not all(isinstance(name, str) for name in _list(basis, "basis")):
        raise InputError("basis names must be strings")
    if len(basis) != dim:
        raise InputError("basis name count does not match dimension")
    brackets = {}
    for item in _list(payload.get("brackets", []), "brackets"):
        try:
            i, j, terms = item
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad bracket entry {excerpt(repr(item))}") from exc
        if not (_is_int(i) and _is_int(j)):
            raise InputError(f"bracket indices must be integers, got {excerpt(repr(item))}")
        pair = excerpt(f"({i}, {j})")
        if not i < j:
            raise InputError(
                f"bracket entry {pair}: only i < j entries are allowed; "
                "antisymmetry is filled in automatically"
            )
        row = {}
        for term in _list(terms, f"terms of bracket {pair}"):
            try:
                k, literal = term
            except (TypeError, ValueError) as exc:
                raise InputError(f"bad bracket term {excerpt(repr(term))}") from exc
            if not _is_int(k):
                raise InputError(
                    f"bracket target index must be an integer, got {excerpt(repr(k))}"
                )
            if k in row:
                raise InputError(f"duplicate bracket target index {excerpt(str(k))} in {pair}")
            row[k] = parse_scalar(literal, field)
        if (i, j) in brackets:
            raise InputError(f"duplicate bracket entry for {pair}")
        brackets[(i, j)] = row
    return LieAlgebra(dim, field, tuple(basis), brackets)


def algebra_payload(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j) in sorted(L.brackets):
        row = L.brackets[(i, j)]
        terms = [[k, format_scalar(row[k], L.field)] for k in sorted(row)]
        brackets.append([i, j, terms])
    return {
        "schema": SCHEMA,
        "kind": "algebra",
        "dimension": L.dim,
        "field": L.field,
        "basis": list(L.names),
        "brackets": brackets,
    }


def _rational_rows(data, width, what):
    rows = []
    for row in _list(data, what):
        if len(_list(row, f"a {what} row")) != width:
            raise InputError(f"{what} rows must have length {width}")
        rows.append(tuple(parse_rational(x) for x in row))
    return rows


def load_cr_pair(payload):
    """The CRPair of a cr-pair payload; its algebra is pair.g."""
    from .cr import CRPair, matrix_columns

    g = load_algebra(payload)
    if g.field != QQ:
        raise InputError("CR pairs need a real (Q) algebra")
    h_rows = _rational_rows(_require(payload, "h_basis", "cr-pair"), g.dim, "h_basis")
    r_rows = _rational_rows(_require(payload, "R_basis", "cr-pair"), g.dim, "R_basis")
    jdata = _list(_require(payload, "J", "cr-pair"), "J")
    if len(jdata) != g.dim:
        raise InputError("J must be a dim x dim matrix")
    j = tuple(tuple(parse_rational(x) for x in _list(row, "a J row")) for row in jdata)
    for row in j:
        if len(row) != g.dim:
            raise InputError("J must be a dim x dim matrix")
    return CRPair(g, span(g, h_rows), span(g, r_rows), matrix_columns(j))


def load_orbit_model(payload) -> OrbitModel:
    """The orbit model of a payload, on the echelon rows of its real basis.

    The complex isotropy rows become their realifications.  Echelon rows
    make the model independent of the file's row order and scaling.
    """
    from .complexify import OrbitModel, realified_rows

    ambient = load_algebra(_require(payload, "ambient", "orbit"))
    if ambient.field != QI:
        raise InputError("orbit ambient algebra must be complex (Q_i)")
    width = 2 * ambient.dim
    real_rows = _rational_rows(_require(payload, "real_basis", "orbit"), width, "real_basis")
    iso_rows = []
    for row in _list(payload.get("isotropy_hat_basis", []), "isotropy_hat_basis"):
        if len(_list(row, "an isotropy row")) != ambient.dim:
            raise InputError("isotropy rows must have the ambient complex dimension")
        iso_rows.append(sparse([parse_scalar(x, QI) for x in row]))
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"orbit name must be a string, got {excerpt(repr(name))}")
    basis = echelon(map(sparse, real_rows))
    if len(basis) != len(real_rows):
        raise InputError("real basis rows are linearly dependent")
    return OrbitModel(
        ambient, list(basis.values()), realified_rows(iso_rows, ambient.dim), name=name
    )


def load_pi1(raw):
    """((rank, torsion), (rank, torsion), surjective) from orbit pi1 data, or None.

    The two groups are the fundamental groups of the real stabilizer and of
    its complexification, each a free rank plus a torsion list.
    """
    if raw is None:
        return None
    try:
        real = (raw["real"][0], tuple(raw["real"][1]))
        cplx = (raw["complex"][0], tuple(raw["complex"][1]))
    except (KeyError, TypeError, IndexError) as exc:
        raise InputError(f"bad pi1 data: {excerpt(repr(raw))}") from exc
    for rank, torsion in (real, cplx):
        if not (_is_int(rank) and all(_is_int(t) for t in torsion)):
            raise InputError(
                f"pi1 ranks and torsion orders must be integers: {excerpt(repr(raw))}"
            )
        if len(torsion) > MAX_TORSION:
            raise InputError(
                f"pi1 torsion list of length {len(torsion)} exceeds the limit of {MAX_TORSION}"
            )
        if rank < 0:
            raise InputError("rank must be nonnegative")
        if any(t <= 1 for t in torsion):
            raise InputError("torsion orders must exceed 1")
    surjective = load_flag(raw, "surjective")
    return real, cplx, surjective


def orbit_payload(model: OrbitModel, pi1=None, **flags) -> dict:
    """The orbit file of a model, with pi1 data (as load_pi1 returns it) when
    given and each flag (kahler, quadric_refibers, projective_plane_base)
    that is true: load_file reads back the entry."""
    payload = {
        "schema": SCHEMA,
        "kind": "orbit",
        "name": model.name,
        "ambient": algebra_payload(model.ambient),
        "real_basis": [
            [format_scalar(x, QQ) for x in row] for row in model.real_rows
        ],
        "isotropy_hat_basis": [
            [format_scalar(x, QI) for x in row] for row in model.isotropy_rows
        ],
    }
    if pi1 is not None:
        (rank, torsion), (crank, ctorsion), surjective = pi1
        payload["pi1"] = {"real": [rank, list(torsion)], "complex": [crank, list(ctorsion)],
                          "surjective": surjective}
    payload.update((flag, True) for flag, value in flags.items() if value)
    return payload


def detect_kind(payload) -> str:
    if not isinstance(payload, dict):
        raise InputError("payload must be a JSON object")
    kind = payload.get("kind")
    if kind in ("algebra", "cr-pair", "orbit"):
        return kind
    if "ambient" in payload:
        return "orbit"
    if "R_basis" in payload or "h_basis" in payload:
        return "cr-pair"
    if "dimension" in payload:
        return "algebra"
    raise InputError("cannot determine payload kind")


def load_file(path):
    """(kind, object) for a structured input file: a LieAlgebra, a CRPair, or
    an orbit file's CatalogEntry, which asserts no invariants.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"no such file: {path}") from exc
    except ValueError as exc:
        # JSONDecodeError, undecodable bytes, or an integer literal past
        # int_max_str_digits: each reads as malformed input
        raise InputError(f"bad JSON in {path}: {excerpt(str(exc))}") from exc
    except RecursionError as exc:
        raise InputError(f"bad JSON in {path}: nested too deeply") from exc
    kind = detect_kind(payload)
    if kind == "algebra":
        return kind, load_algebra(payload)
    if kind == "cr-pair":
        return kind, load_cr_pair(payload)
    from .complexify import CatalogEntry, Expected

    model = load_orbit_model(payload)  # a bad model is reported before bad pi1 data
    return kind, CatalogEntry(model.name or "orbit", "file", (), model, Expected(),
                              pi1=load_pi1(payload.get("pi1")),
                              kahler=load_flag(payload, "kahler"),
                              quadric_refibers=load_flag(payload, "quadric_refibers"),
                              projective_plane_base=load_flag(payload, "projective_plane_base"))
