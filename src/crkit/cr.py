"""Invariant CR-structure pairs on a Lie algebra and their Levi theory.

A pair consists of a subspace R with h <= R <= g and an endomorphism J of
R that squares to -id modulo the isotropy algebra h.  The axioms checked
here are exactly the closure and integrability identities that make the
pair the infinitesimal model of an invariant partial complex structure on
the homogeneous space of g modulo h.

J is canonicalized by projecting its values onto the pivot-free
complement of h inside R, so equivalent pairs (J differing by an h-valued
map) compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, Subspace, span
from .errors import InputError, InternalError, StructureError
from .linalg import combine_rows, left_nullspace, rref, signature_of_symmetric
from .report import Check, Report, witness_check
from .scalars import QQ


def apply_endo(matrix, v):
    """Matrix action on a coordinate vector (column convention)."""
    nz = [(j, vj) for j, vj in enumerate(v) if vj]
    out = []
    for row in matrix:
        acc = 0
        for j, vj in nz:
            t = row[j]
            if t:
                acc = acc + t * vj
        out.append(acc)
    return tuple(out)


class CRPair:
    """(R, J) with h <= R <= g and J an endomorphism of R, stored mod h."""

    def __init__(self, g: LieAlgebra, h: Subspace, r: Subspace, j_matrix):
        if g.field != QQ:
            raise StructureError("CR pairs live on real (Q) algebras")
        if h.parent != g or r.parent != g:
            raise InputError("h and R must be subspaces of g")
        if len(j_matrix) != g.dim or any(len(row) != g.dim for row in j_matrix):
            raise InputError("J must be a dim(g) x dim(g) matrix")
        if not r.contains_space(h):
            raise StructureError("isotropy algebra h is not contained in R")
        self.g = g
        self.h = h
        self.r = r
        self.j_raw = tuple(tuple(x for x in row) for row in j_matrix)
        for v in r.rows:
            if not r.contains(apply_endo(self.j_raw, v)):
                raise StructureError("J does not preserve R")
        self.j = self._canonical_j()
        self.complement_rows = self._complement_of_h_in_r()

    def _complement_of_h_in_r(self):
        reduced = []
        for v in self.r.rows:
            w = self.h.reduce(v)
            if any(w):
                reduced.append(w)
        rows, _ = rref(reduced)
        return rows

    def _canonical_j(self):
        # v -> reduce_h(J(project_R(v))), with project_R along the pivot complement
        n = self.g.dim
        cols = []
        for j in range(n):
            v = self.g.basis_vector(j)
            residual = self.r.reduce(v)
            proj = tuple(a - b for a, b in zip(v, residual))
            img = self.h.reduce(apply_endo(self.j_raw, proj))
            cols.append(img)
        return tuple(tuple(cols[j][k] for j in range(n)) for k in range(n))

    def apply_j(self, v):
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


@dataclass(frozen=True)
class CRType:
    n: int  # manifold dimension
    l: int  # complex CR rank
    k: int  # codimension


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
    """
    g, h, r = pair.g, pair.h, pair.r
    checks = []

    # kernel exactness: J(h) <= h, and ker(J mod h) restricted to R equals h
    witness = None
    for v in h.rows:
        if not h.contains(apply_endo(pair.j_raw, v)):
            witness = v
            break
    if witness is None:
        comp = pair.complement_rows
        images = [h.reduce(apply_endo(pair.j_raw, v)) for v in comp]
        if images:
            for vec in combine_rows(left_nullspace(images), comp):
                if not h.contains(vec):
                    witness = vec
                    break
    checks.append(witness_check("kernel-exactness", witness, "witness "))

    # J^2 + id = 0 mod h on R
    witness = None
    for v in r.rows:
        w = apply_endo(pair.j_raw, apply_endo(pair.j_raw, v))
        total = tuple(a + b for a, b in zip(w, v))
        if not h.contains(total):
            witness = v
            break
    checks.append(witness_check("square-minus-identity", witness, "witness "))

    # isotropy compatibility (connected form)
    j_of_r = [apply_endo(pair.j_raw, zeta) for zeta in r.rows]
    if connected_isotropy:
        witness = None
        for xi in h.rows:
            for zeta, jzeta in zip(r.rows, j_of_r):
                b = g.bracket(xi, zeta)
                if not r.contains(b):
                    witness = b
                    break
                lhs = apply_endo(pair.j_raw, b)
                rhs = g.bracket(xi, jzeta)
                diff = tuple(a - c for a, c in zip(lhs, rhs))
                if not h.contains(diff):
                    witness = diff
                    break
            if witness is not None:
                break
        checks.append(witness_check("isotropy-compatibility", witness, "witness "))
    else:
        # disconnected isotropy is invisible at the algebra level
        checks.append(Check("isotropy-compatibility", None))

    # integrability: [xi,zeta] - [Jxi,Jzeta] in R, and the torsion lands in h
    witness = None
    rows = r.rows
    for a in range(len(rows)):
        xi, jxi = rows[a], j_of_r[a]
        for b in range(a + 1, len(rows)):
            zeta, jzeta = rows[b], j_of_r[b]
            first = tuple(
                p - q for p, q in zip(g.bracket(xi, zeta), g.bracket(jxi, jzeta))
            )
            if not r.contains(first):
                witness = first
                break
            torsion = apply_endo(pair.j_raw, first)
            torsion = tuple(
                t - u - v
                for t, u, v in zip(torsion, g.bracket(jxi, zeta), g.bracket(xi, jzeta))
            )
            if not h.contains(torsion):
                witness = torsion
                break
        if witness is not None:
            break
    checks.append(witness_check("integrability", witness, "witness "))
    return Report(tuple(checks))


@dataclass
class LeviReport:
    """The bracket-induced form on R/h with values in g/R, plus its kernel.

    form_matrices[c][i][j] is the value-coordinate c of the raw form on
    the complement basis pair (i, j); completed_matrices hold the
    J-symmetrized scalar forms whose joint radical is the Levi kernel.
    signature is populated only when a codirection was supplied.
    """

    complement_rows: tuple
    value_indices: tuple
    form_matrices: tuple
    completed_matrices: tuple
    kernel: Subspace
    nondegenerate: bool
    degenerate_domain: bool
    signature: tuple | None = None

    @property
    def cr_rank(self):
        return len(self.complement_rows) // 2

    @property
    def value_dim(self):
        return len(self.value_indices)


def levi_form(pair: CRPair, codirection=None) -> LeviReport:
    """Compute the quotient-valued Levi form of a checked pair.

    The raw form is psi([xi, zeta]) with psi the projection onto the
    pivot-free complement of R in g.  Its J-compatible symmetrization
    S_c(xi, zeta) = (1/2) (lambda_c[xi, J zeta] + lambda_c[zeta, J xi])
    carries the kernel: a complement vector is in the Levi kernel iff it
    is in the radical of every S_c.  Supplying a codirection additionally
    records the normalized scalar signature.
    """
    g, h, r = pair.g, pair.h, pair.r
    comp = pair.complement_rows
    m = len(comp)
    value_idx = tuple(i for i in range(g.dim) if i not in set(r.pivots))

    def lam(v):
        red = r.reduce(v)
        return tuple(red[i] for i in value_idx)

    form = [[[Fraction(0)] * m for _ in range(m)] for _ in value_idx]
    completed = [[[Fraction(0)] * m for _ in range(m)] for _ in value_idx]
    jimg = [pair.apply_j(v) for v in comp]
    half = Fraction(1, 2)
    for i in range(m):
        for j in range(m):
            raw = lam(g.bracket(comp[i], comp[j]))
            mixed_ij = lam(g.bracket(comp[i], jimg[j]))
            mixed_ji = lam(g.bracket(comp[j], jimg[i]))
            for c in range(len(value_idx)):
                form[c][i][j] = raw[c]
                completed[c][i][j] = half * (mixed_ij[c] + mixed_ji[c])

    if m == 0:
        kernel = span(g, [])
        return LeviReport(
            comp,
            value_idx,
            tuple(tuple(tuple(row) for row in mat) for mat in form),
            tuple(tuple(tuple(row) for row in mat) for mat in completed),
            kernel,
            True,
            True,
        )

    # an empty value space (k = 0) leaves no conditions: the kernel is all of R/h
    stacked = [
        tuple(x for c in range(len(value_idx)) for x in completed[c][i])
        for i in range(m)
    ]
    kernel = span(g, combine_rows(left_nullspace(stacked), comp))
    report = LeviReport(
        comp,
        value_idx,
        tuple(tuple(tuple(row) for row in mat) for mat in form),
        tuple(tuple(tuple(row) for row in mat) for mat in completed),
        kernel,
        kernel.dim == 0,
        False,
    )
    if codirection is not None:
        report.signature = levi_signature(pair, codirection, report=report).normalized
    return report


@dataclass(frozen=True)
class SignatureResult:
    normalized: tuple  # (max, min, zero): orientation-free
    orderings: tuple   # both sign conventions

    def unordered(self):
        p, q, z = self.normalized
        return frozenset({p, q}), z


def levi_signature(pair: CRPair, codirection=None, *, report=None) -> SignatureResult:
    """Inertia of the Levi form paired with a covector on g/R.

    The scalar form on R/h is J-invariant, so its inertia counts are even
    and are reported in complex units: (pos, neg, zero) with
    pos + neg + zero = CR rank.  Replacing the codirection by a positive
    multiple is invisible; negating it swaps pos and neg, hence the
    normalized ordering plus both orderings in the result.

    codirection defaults to the first value coordinate, (1, 0, ..., 0).
    report, if given, is levi_form(pair), reused instead of rebuilding it.
    """
    if report is None:
        report = levi_form(pair)
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
