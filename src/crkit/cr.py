"""Invariant CR-structure pairs on a Lie algebra and their Levi theory.

A pair consists of a subspace R with h <= R <= g and an endomorphism J of
R that squares to -id modulo the isotropy algebra h.  The axioms checked
here are exactly the closure and integrability identities that make the
pair the infinitesimal model of an invariant partial complex structure on
the homogeneous space of g modulo h.

J is canonicalized by projecting its values onto the pivot-free
complement of h inside R, so equivalent pairs (J differing by an h-valued
map) compare equal.

Inside, vectors are sparse {index: coefficient} dicts and J is a sparse
column map {j: {k: coeff}} with J e_j = sum coeff e_k; the axiom loops and
the Levi form run on those.  A pair is built from that column map; the
file format's dense J matrix is converted at the edge (matrix_columns),
and dense tuples come back out only as witnesses and the completed Levi
form matrices.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .algebra import LieAlgebra, Subspace, is_subalgebra, pivot_complement
from .errors import InputError, InternalError, StructureError
from .linalg import (
    combine_rows,
    dense,
    kernel_rows,
    left_nullspace,
    signature_of_symmetric,
    sparse,
    vec_add,
    vec_sub,
)
from .report import Check, Report, witness_check
from .scalars import QQ


def apply_endo(columns, v):
    """The image of a sparse vector under a sparse column map {j: {k: coeff}}."""
    acc = {}
    for j, vj in v.items():
        col = columns.get(j)
        if col:
            for k, t in col.items():
                acc[k] = acc.get(k, 0) + t * vj
    return {k: x for k, x in acc.items() if x}


def matrix_columns(matrix):
    """Sparse column map {j: {k: coeff}} of a dense matrix (column convention)."""
    columns = {}
    for k, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x:
                columns.setdefault(j, {})[k] = x
    return columns


class CRPair:
    """(R, J) with h <= R <= g and J an endomorphism of R, stored mod h.

    j_columns is J as a sparse column map {j: {k: coeff}} with every index
    in range(dim g).  j_raw keeps a copy of it, complement is
    pivot_complement(R, h), and j is the canonical J: projecting onto R
    along its pivot-free coordinates sends e_p to R's row at p (0 off R's
    pivots), so column p is J of that row modulo h.  Raw Js that differ by
    an h-valued map, as induced_cr_pair's may, give the same pair.
    """

    def __init__(self, g: LieAlgebra, h: Subspace, r: Subspace, j_columns):
        if g.field != QQ:
            raise StructureError("CR pairs live on real (Q) algebras")
        if h.parent != g or r.parent != g:
            raise InputError("h and R must be subspaces of g")
        indices = range(g.dim)
        for j, col in j_columns.items():
            if j not in indices or any(k not in indices for k in col):
                raise InputError("J indices must lie in range(dim g)")
        if not r.contains_space(h):
            raise StructureError("isotropy algebra h is not contained in R")
        self.g = g
        self.h = h
        self.r = r
        self.j_raw = {j: dict(col) for j, col in j_columns.items()}
        images = {p: apply_endo(self.j_raw, v) for p, v in r.echelon.items()}
        if not all(r.contains(img) for img in images.values()):
            raise StructureError("J does not preserve R")
        reduced = {p: h.reduce(img) for p, img in images.items()}
        self.j = {p: img for p, img in reduced.items() if img}
        self.complement = pivot_complement(r, h)

    @cached_property
    def _levi(self):
        # read by the levi analysis, catalog verification and the fine
        # classification alike, so like a Killing form it is built once
        return _levi_form(self)

    def apply_j(self, v):
        """The canonical J of a sparse vector."""
        return apply_endo(self.j, v)

    def __eq__(self, other):
        if not isinstance(other, CRPair):
            return NotImplemented
        return (
            self.g == other.g
            and self.h == other.h
            and self.r == other.r
            and self.j == other.j
        )

    def __repr__(self):
        return f"CRPair(dim g={self.g.dim}, dim h={self.h.dim}, dim R={self.r.dim})"


# manifold dimension n, complex CR rank l, codimension k
CRType = namedtuple("CRType", "n l k")


def cr_type(pair: CRPair) -> CRType:
    n = pair.g.dim - pair.h.dim
    two_l = pair.r.dim - pair.h.dim
    if two_l % 2 != 0:
        raise StructureError(
            "dim R - dim h is odd; no endomorphism squares to -id there"
        )
    l = two_l // 2
    return CRType(n, l, n - 2 * l)


def check_cr_pair(pair: CRPair, connected_isotropy: bool = True) -> Report:
    """Evaluate the four defining conditions of an invariant CR pair.

    Check names in the report (a failing check carries a witness vector):
      kernel-exactness        J vanishes mod h exactly on h
      square-minus-identity   J^2 = -id mod h on R
      isotropy-compatibility  [h, R] <= R and J[xi, zeta] = [xi, J zeta] mod h
      integrability           bracket closure and vanishing torsion mod h

    The isotropy condition is the connected-isotropy form; with a
    disconnected isotropy group the algebra cannot see the remaining
    components, and the row is reported as not checkable.

    The last two conditions are bilinear and antisymmetric, so they hold
    on R once they hold on a basis of it: h's rows plus the complement.
    When the first two rows pass and h is a subalgebra, every pair with an
    argument in h passes (Jh <= h, [h, R] <= R, and J[eta, J zeta] =
    [eta, J^2 zeta] = -[eta, zeta] mod h for eta in h), so isotropy is
    checked on h x complement and, given isotropy, integrability on
    complement x complement.  A failure there reruns the ordered loop over
    R's rows, whose first failing pair is the witness.
    """
    g, h, r = pair.g, pair.h, pair.r
    j = pair.j_raw
    checks = []

    def found(name, witness):
        # a witness leaves as a dense tuple
        checks.append(
            witness_check(name, None if witness is None else dense(witness, g.dim), "witness ")
        )

    # kernel exactness: J(h) <= h, and ker(J mod h) restricted to R equals h
    witness = None
    for v in h.echelon.values():
        if not h.contains(apply_endo(j, v)):
            witness = v
            break
    comp = list(pair.complement.values())
    if witness is None and comp:
        # the complement rows vanish on h's pivots, and a nonzero vector of
        # h does not, so a nonzero combination of them never lies in h
        images = [h.reduce(apply_endo(j, v)) for v in comp]
        witness = next(iter(combine_rows(left_nullspace(images), comp)), None)
    found("kernel-exactness", witness)

    # J^2 + id = 0 mod h on R
    witness = None
    rows = list(r.echelon.values())
    for v in rows:
        if not h.contains(vec_add(apply_endo(j, apply_endo(j, v)), v)):
            witness = v
            break
    found("square-minus-identity", witness)

    # a file pair's h is never checked to be a subalgebra, so closure is a precondition
    reduced = all(c.ok for c in checks) and is_subalgebra(g, h)
    # isotropy compatibility (connected form), on h x complement first
    witness = _isotropy_witness(g, h, r, j, comp) if reduced else None
    if connected_isotropy:
        if not reduced or witness is not None:
            witness = _isotropy_witness(g, h, r, j, rows)
        found("isotropy-compatibility", witness)
    else:
        # disconnected isotropy is invisible at the algebra level; the
        # connected condition above still licenses the reduced loop below
        checks.append(Check("isotropy-compatibility", None))
    reduced = reduced and witness is None

    # integrability: [xi,zeta] - [Jxi,Jzeta] in R, and the torsion lands in h
    witness = _integrability_witness(g, h, r, j, comp) if reduced else None
    if not reduced or witness is not None:
        witness = _integrability_witness(g, h, r, j, rows)
    found("integrability", witness)
    return Report(tuple(checks))


def _isotropy_witness(g, h, r, j, rows):
    """The first (xi in h, zeta in rows) failing the connected isotropy condition."""
    j_of_rows = [apply_endo(j, zeta) for zeta in rows]
    for xi in h.echelon.values():
        for zeta, jzeta in zip(rows, j_of_rows):
            b = g.bracket(xi, zeta)
            if not r.contains(b):
                return b
            diff = vec_sub(apply_endo(j, b), g.bracket(xi, jzeta))
            if not h.contains(diff):
                return diff
    return None


def _integrability_witness(g, h, r, j, rows):
    """The first pair a < b of rows with [xi,zeta] - [Jxi,Jzeta] outside R or torsion outside h."""
    j_of_rows = [apply_endo(j, zeta) for zeta in rows]
    for a in range(len(rows)):
        xi, jxi = rows[a], j_of_rows[a]
        for b in range(a + 1, len(rows)):
            zeta, jzeta = rows[b], j_of_rows[b]
            first = vec_sub(g.bracket(xi, zeta), g.bracket(jxi, jzeta))
            if not r.contains(first):
                return first
            torsion = vec_sub(
                vec_sub(apply_endo(j, first), g.bracket(jxi, zeta)), g.bracket(xi, jzeta)
            )
            if not h.contains(torsion):
                return torsion
    return None


class LeviReport(namedtuple(
    "LeviReport", "value_indices completed_matrices kernel nondegenerate degenerate_domain"
)):
    """The bracket-induced form on R/h with values in g/R, plus its kernel.

    completed_matrices[c][i][j] is the value-coordinate c (value_indices[c]
    of g) of the J-symmetrized form on the rows i, j of pair.complement in
    pivot order; their joint radical is the Levi kernel.  For a pair that
    passes the axioms they carry the raw form too: its value-coordinate c
    on (i, j) is -sum_l C[j][l] completed[c][i][l], where
    C[j][l] = pair.j[p_j].get(p_l, 0) and p_j is the pivot of row j.
    """

    __slots__ = ()

    @property
    def value_dim(self):
        return len(self.value_indices)


def levi_form(pair: CRPair) -> LeviReport:
    """The quotient-valued Levi form of a checked pair, built once per pair.

    The raw form is psi([xi, zeta]) with psi the projection onto the
    pivot-free complement of R in g.  Its J-compatible symmetrization
    S_c(xi, zeta) = (1/2) (lambda_c[xi, J zeta] + lambda_c[zeta, J xi])
    carries the kernel: a complement vector is in the Levi kernel iff it
    is in the radical of every S_c.  One bracket [xi, J zeta] per pair of
    complement rows gives all of S; once the axioms hold,
    lambda[xi, zeta] = -lambda[xi, J J zeta] is read off S through J.
    levi_signature pairs the completed forms with a codirection.
    """
    return pair._levi


def _levi_form(pair):
    g, r = pair.g, pair.r
    comp = list(pair.complement.values())
    m = len(comp)
    value_idx = tuple(i for i in range(g.dim) if i not in r.echelon)
    k = len(value_idx)
    # a residual vanishes on R's pivots: its support lies in value_idx
    position = {c: t for t, c in enumerate(value_idx)}

    def lam(v):
        return {position[c]: x for c, x in r.reduce(v).items()}

    jimg = [pair.apply_j(v) for v in comp]
    # mixed[i][j] = lambda[comp_i, J comp_j], each bracket taken once
    mixed = [[lam(g.bracket(x, jy)) for jy in jimg] for x in comp]
    half = Fraction(1, 2)
    completed = tuple(
        tuple(
            tuple(half * (mixed[i][j].get(c, 0) + mixed[j][i].get(c, 0)) for j in range(m))
            for i in range(m)
        )
        for c in range(k)
    )
    # an empty value space (k = 0) leaves no conditions: the kernel is all of R/h
    images = [[sparse(completed[c][i]) for c in range(k)] for i in range(m)]
    kernel = Subspace(g, kernel_rows(comp, images))
    return LeviReport(value_idx, completed, kernel, kernel.dim == 0, m == 0)


# normalized is (max, min, zero), orientation-free; orderings has both sign conventions
SignatureResult = namedtuple("SignatureResult", "normalized orderings")


def levi_signature(pair: CRPair, codirection=None) -> SignatureResult:
    """Inertia of the Levi form paired with a covector on g/R.

    The scalar form on R/h is J-invariant, so its inertia counts are even
    and are reported in complex units: (pos, neg, zero) with
    pos + neg + zero = CR rank.  Replacing the codirection by a positive
    multiple is invisible; negating it swaps pos and neg, hence the
    normalized ordering plus both orderings in the result.

    codirection defaults to the first value coordinate, (1, 0, ..., 0).
    In codimension 0 there is no value coordinate and no signature: that
    is an InputError, whatever codirection is passed.
    In codimension k >= 2 that default is a choice of basis of g/R, so two
    bases of one model can give different results; verify_entry compares
    signatures on codimension-1 entries only.  The Levi kernel
    (levi_form(pair).nondegenerate) is basis-free.
    """
    report = pair._levi
    k = report.value_dim
    if k == 0:
        raise InputError("codimension 0 leaves no value space, so the Levi form has no "
                         "codirection and no signature")
    if codirection is None:
        codirection = tuple(int(c == 0) for c in range(k))
    if len(codirection) != k:
        raise InputError(f"codirection must have length {k}")
    if not any(codirection):
        raise InputError("codirection must be nonzero")
    m = len(pair.complement)
    s = [[Fraction(0)] * m for _ in range(m)]
    for c in range(k):
        w = Fraction(codirection[c])
        if w == 0:
            continue
        mat = report.completed_matrices[c]
        for i in range(m):
            for j in range(m):
                s[i][j] += w * mat[i][j]
    pos, neg, zero = signature_of_symmetric(s)
    if pos % 2 or neg % 2 or zero % 2:
        raise InternalError("J-invariant form with odd inertia counts")
    pos, neg, zero = pos // 2, neg // 2, zero // 2
    hi, lo = (pos, neg) if pos >= neg else (neg, pos)
    return SignatureResult((hi, lo, zero), ((pos, neg, zero), (neg, pos, zero)))
