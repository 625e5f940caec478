"""Invariant CR-structure pairs on a Lie algebra and their Levi theory.

A pair consists of a subspace R with h <= R <= g and an endomorphism J of
R/h that squares to -id, h the isotropy algebra.  The axioms checked
here are exactly the closure and integrability identities that make the
pair the infinitesimal model of an invariant partial complex structure on
the homogeneous space of g modulo h.

J is canonicalized by projecting its values onto the pivot-free
complement of h inside R, so equivalent pairs (J differing by an h-valued
map) compare equal; the axioms read that canonical J alone, on one basis
of R (h's echelon rows, then the complement), so they also report alike.

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

from .algebra import LieAlgebra, Subspace, pivot_complement
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
    in range(dim g); the pair keeps only J mod h.  complement is
    pivot_complement(R, h), and j is the canonical J: projecting onto R
    along its pivot-free coordinates sends e_p to R's row at p (0 off R's
    pivots), so column p is J of that row modulo h.  Raw Js that differ by
    an h-valued map, as induced_cr_pair's may, give the same pair, and
    check_cr_pair reads only the canonical J.
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
        images = {p: apply_endo(j_columns, v) for p, v in r.echelon.items()}
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

    Each condition is one ordered loop of the canonical J (pair.apply_j)
    over one basis B of R: h's echelon rows, then the complement.  A loop
    skips only what an earlier check has decided.  Once kernel-exactness
    holds, J vanishes on h.  Then h's rows pass J^2 = -1, and on a pair of
    h's rows the isotropy condition reads [h_a, h_b] in h; that is
    symmetric, so it is checked for a < b, by one bracket.  Once isotropy
    holds too, every integrability pair with a row of h passes, and that
    loop runs over complement x complement; under disconnected isotropy
    the connected condition is computed only to license this.  A skipped
    pair passes, so each row's witness is the unskipped loop's first.
    """
    g, h, r = pair.g, pair.h, pair.r
    j = pair.apply_j
    nh = h.dim
    basis = [*h.echelon.values(), *pair.complement.values()]
    images = [j(v) for v in basis]
    checks = []

    def found(name, witness):
        # a witness leaves as a dense tuple
        checks.append(
            witness_check(name, None if witness is None else dense(witness, g.dim), "witness ")
        )

    # kernel exactness: J(h) <= h, and ker(J mod h) restricted to R equals h
    witness = next((v for v, jv in zip(basis[:nh], images) if jv), None)
    if witness is None and nh < len(basis):
        # the complement rows vanish on h's pivots, and a nonzero vector of
        # h does not, so a nonzero combination of them never lies in h
        witness = next(iter(combine_rows(left_nullspace(images[nh:]), basis[nh:])), None)
    found("kernel-exactness", witness)
    # once kernel-exactness holds, J sends the first skip rows of B, h's, to 0
    skip = nh if witness is None else 0

    # J^2 + id = 0 mod h on R
    witness = next((v for v, jv in zip(basis[skip:], images[skip:])
                    if not h.contains(vec_add(j(jv), v))), None)
    found("square-minus-identity", witness)

    def isotropy():
        for a, xi in enumerate(basis[:nh]):
            for b in range(a + 1 if skip else 0, len(basis)):
                bracket = g.bracket(xi, basis[b])
                # with J = 0 on both rows of h, the pair holds iff its bracket
                # lies in h, as its mirror (b, a) does
                if b < skip and h.contains(bracket):
                    continue
                if not r.contains(bracket):
                    return bracket
                diff = vec_sub(j(bracket), g.bracket(xi, images[b]))
                if not h.contains(diff):
                    return diff
        return None

    def integrability(rows, jrows):
        for a, (xi, jxi) in enumerate(zip(rows, jrows)):
            for zeta, jzeta in zip(rows[a + 1:], jrows[a + 1:]):
                first = vec_sub(g.bracket(xi, zeta), g.bracket(jxi, jzeta))
                if not r.contains(first):
                    return first
                torsion = vec_sub(
                    vec_sub(j(first), g.bracket(jxi, zeta)), g.bracket(xi, jzeta)
                )
                if not h.contains(torsion):
                    return torsion
        return None

    # isotropy compatibility (connected form)
    witness = isotropy() if connected_isotropy or skip else None
    if connected_isotropy:
        found("isotropy-compatibility", witness)
    else:
        # disconnected isotropy is invisible at the algebra level
        checks.append(Check("isotropy-compatibility", None))

    # integrability: [xi,zeta] - [Jxi,Jzeta] in R, and the torsion lands in h
    start = skip if witness is None else 0
    found("integrability", integrability(basis[start:], images[start:]))
    return Report(tuple(checks))


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
