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
and dense tuples come back out only as witnesses, the Levi form matrices
and j_matrix.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from .algebra import LieAlgebra, Subspace, is_subalgebra
from .errors import InputError, InternalError, StructureError
from .linalg import (
    combine_rows,
    dense,
    echelon,
    echelon_rows,
    kernel_rows,
    left_nullspace,
    signature_of_symmetric,
    sparse,
    vec_add,
    vec_sub,
)
from .report import Check, Report, witness_check
from .scalars import QQ, compact


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
    in range(dim g).  j_raw keeps a copy of it, j the canonical one,
    complement the sparse echelon form of the pivot-free complement of h
    in R.
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
        for v in r.echelon.values():
            if not r.contains(apply_endo(self.j_raw, v)):
                raise StructureError("J does not preserve R")
        self.j = self._canonical_j()
        self.complement = echelon([self.h.reduce(v) for v in self.r.echelon.values()])

    @cached_property
    def _levi(self):
        # read by the levi analysis, catalog verification and the fine
        # classification alike, so like a Killing form it is built once
        return _levi_form(self)

    @property
    def complement_rows(self):
        """The complement of h in R as dense echelon rows."""
        return echelon_rows(self.complement, self.g.dim)[0]

    def _canonical_j(self):
        # v -> reduce_h(J(project_R(v))), with project_R along the pivot complement
        columns = {}
        for j in range(self.g.dim):
            e = {j: 1}
            proj = vec_sub(e, self.r.reduce(e))
            img = self.h.reduce(apply_endo(self.j_raw, proj))
            if img:
                columns[j] = img
        return columns

    def apply_j(self, v):
        """The canonical J of a sparse vector."""
        return apply_endo(self.j, v)

    def j_matrix(self):
        """The canonical J as a dense matrix (column convention)."""
        n = self.g.dim
        return tuple(
            tuple(compact(self.j.get(j, {}).get(k, 0)) for j in range(n)) for k in range(n)
        )

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
    if witness is None:
        images = [h.reduce(apply_endo(j, v)) for v in comp]
        if images:
            for vec in combine_rows(left_nullspace(images), comp):
                if not h.contains(vec):
                    witness = vec
                    break
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
    "LeviReport",
    "complement_rows value_indices form_matrices completed_matrices kernel nondegenerate "
    "degenerate_domain",
)):
    """The bracket-induced form on R/h with values in g/R, plus its kernel.

    form_matrices[c][i][j] is the value-coordinate c of the raw form on
    the complement basis pair (i, j); completed_matrices hold the
    J-symmetrized scalar forms whose joint radical is the Levi kernel.
    """

    __slots__ = ()

    @property
    def cr_rank(self):
        return len(self.complement_rows) // 2

    @property
    def value_dim(self):
        return len(self.value_indices)


def levi_form(pair: CRPair) -> LeviReport:
    """The quotient-valued Levi form of a checked pair, built once per pair.

    The raw form is psi([xi, zeta]) with psi the projection onto the
    pivot-free complement of R in g.  Its J-compatible symmetrization
    S_c(xi, zeta) = (1/2) (lambda_c[xi, J zeta] + lambda_c[zeta, J xi])
    carries the kernel: a complement vector is in the Levi kernel iff it
    is in the radical of every S_c.  levi_signature pairs the completed
    forms with a codirection.
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
    raw = [[lam(g.bracket(x, y)) for y in comp] for x in comp]
    # mixed[i][j] = lambda[comp_i, J comp_j], each bracket taken once
    mixed = [[lam(g.bracket(x, jy)) for jy in jimg] for x in comp]
    half = Fraction(1, 2)
    form = tuple(
        tuple(tuple(compact(raw[i][j].get(c, 0)) for j in range(m)) for i in range(m))
        for c in range(k)
    )
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
    return LeviReport(
        pair.complement_rows, value_idx, form, completed, kernel, kernel.dim == 0, m == 0
    )


class SignatureResult(namedtuple("SignatureResult", "normalized orderings")):
    # normalized is (max, min, zero), orientation-free; orderings has both sign conventions
    __slots__ = ()

    def unordered(self):
        p, q, z = self.normalized
        return frozenset({p, q}), z


def levi_signature(pair: CRPair, codirection=None) -> SignatureResult:
    """Inertia of the Levi form paired with a covector on g/R.

    The scalar form on R/h is J-invariant, so its inertia counts are even
    and are reported in complex units: (pos, neg, zero) with
    pos + neg + zero = CR rank.  Replacing the codirection by a positive
    multiple is invisible; negating it swaps pos and neg, hence the
    normalized ordering plus both orderings in the result.

    codirection defaults to the first value coordinate, (1, 0, ..., 0).
    """
    report = pair._levi
    k = report.value_dim
    if codirection is None:
        codirection = tuple(int(c == 0) for c in range(k))
    if len(codirection) != k:
        raise InputError(f"codirection must have length {k}")
    if not any(codirection):
        raise InputError("codirection must be nonzero")
    m = len(report.complement_rows)
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
