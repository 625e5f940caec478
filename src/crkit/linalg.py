"""Exact linear algebra over Q.

The library calls these routines on rational data only: a complex
subspace is handled as its J-stable realification.  They use nothing but
field operations, so entries of another exact field still work.

At the interface, vectors are tuples of scalars and matrices are tuples
of row tuples; results come back dense, with entries compacted (integral
values as plain ints) and zeros as int 0.  Inside, rows are sparse
{column: value} dicts holding only the nonzero entries, so elimination,
reduction and nullspaces touch nonzeros only: the catalog's realified
rows are a few percent nonzero.

A subspace is always represented by its reduced row echelon form with the
zero rows dropped, so two subspaces are equal iff the representing
matrices are equal.  The reduction routines take those echelon rows
either dense or as their sparse_echelon view, which a caller reducing
against one basis many times builds once.  All routines are pure; nothing
here mutates its arguments.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .scalars import compact, exact_div


def _sparse(row):
    """{column: value} map of the nonzero entries of a dense row."""
    return {c: x for c, x in enumerate(row) if x}


def _dense(row, ncols):
    """Dense tuple of a sparse row: entries compacted, zeros as int 0."""
    out = [0] * ncols
    for c, x in row.items():
        out[c] = compact(x)
    return tuple(out)


def _axpy(dst, a, src):
    """dst += a * src on sparse rows, in place; a is nonzero."""
    for c, x in src.items():
        y = dst.get(c)
        if y is None:
            dst[c] = a * x
        else:
            y = y + a * x
            if y:
                dst[c] = y
            else:
                del dst[c]


def _echelon(rows):
    """Reduced echelon form of sparse rows, as {pivot: row} with row[pivot] == 1.

    Rows are taken one at a time: each is reduced against the rows kept so
    far, normalized at its first nonzero column, and that column is then
    cleared from the kept rows.  The kept rows are always the reduced
    echelon form of the rows seen, which is unique, so the result does not
    depend on the elimination order.  The input dicts are consumed.
    """
    basis = {}
    for row in rows:
        for p in [c for c in row if c in basis]:
            _axpy(row, -row[p], basis[p])
        if not row:
            continue
        q = min(row)
        inv = row[q]
        if inv != 1:
            row = {c: exact_div(x, inv) for c, x in row.items()}
        row[q] = 1
        for other in basis.values():
            f = other.get(q)
            if f is not None:
                _axpy(other, -f, row)
        basis[q] = row
    return basis


def rref(rows):
    """Reduced row echelon form.

    Returns (rows, pivots): the nonzero echelon rows as tuples and the
    pivot column of each row.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    basis = _echelon([_sparse(r) for r in rows])
    pivots = tuple(sorted(basis))
    return tuple(_dense(basis[p], ncols) for p in pivots), pivots


def rank(rows):
    return len(rref(rows)[0])


def sparse_echelon(basis, pivots):
    """Sparse view {pivot: {column: value}} of reduced echelon rows.

    reduce_mod, in_span and coefficients_in_span accept it in place of the
    dense rows; callers that reduce against one basis many times build it
    once.
    """
    return {p: _sparse(row) for row, p in zip(basis, pivots)}


def _residual(v, basis, pivots):
    # reduced echelon rows vanish on each other's pivots, so only the
    # pivots in v's own support need clearing, in any order
    view = basis if isinstance(basis, dict) else sparse_echelon(basis, pivots)
    w = _sparse(v)
    for p in [c for c in w if c in view]:
        _axpy(w, -w[p], view[p])
    return w


def reduce_mod(v, basis, pivots):
    """Reduce v against reduced echelon rows (dense, or their sparse_echelon view).

    The residual is zero iff v is in the span.
    """
    return _dense(_residual(v, basis, pivots), len(v))


def in_span(v, basis, pivots):
    return not _residual(v, basis, pivots)


def coefficients_in_span(v, basis, pivots):
    """Coefficients of v over reduced echelon rows, or None if v is outside the span."""
    if _residual(v, basis, pivots):
        return None
    # each echelon row is the only one nonzero on its pivot
    return tuple(compact(v[p]) if v[p] else 0 for p in pivots)


def independent_rows(rows):
    """Indices of the rows outside the span of the rows before them, ascending.

    They are the pivot columns of the transposed matrix's echelon form, so
    one elimination picks the same rows as a greedy pass in order.
    """
    columns = {}
    for i, row in enumerate(rows):
        for c, x in enumerate(row):
            if x:
                columns.setdefault(c, {})[i] = x
    return tuple(sorted(_echelon(list(columns.values()))))


def span_rows(rows):
    """Canonical (rref) basis of the row space."""
    return rref(rows)[0]


def left_nullspace(rows):
    """Basis of {x : x . rows = 0}, i.e. linear relations among the rows."""
    rows = [tuple(r) for r in rows]
    n = len(rows)
    if n == 0:
        return ()
    ncols = len(rows[0])
    aug = []
    for i, r in enumerate(rows):
        row = _sparse(r)
        row[ncols + i] = 1
        aug.append(row)
    basis = _echelon(aug)
    # rows pivoting in the tag block vanish on the original columns; their
    # tags are already in reduced echelon form
    return tuple(
        _dense({c - ncols: x for c, x in basis[p].items()}, n)
        for p in sorted(basis)
        if p >= ncols
    )


def intersect_spaces(a_rows, b_rows):
    """Canonical basis of rowspace(a) ∩ rowspace(b)."""
    a_rows = list(a_rows)
    b_rows = list(b_rows)
    if not a_rows or not b_rows:
        return ()
    na = len(a_rows)
    relations = left_nullspace(a_rows + b_rows)
    return rref(combine_rows([rel[:na] for rel in relations], a_rows))[0]


def solve_condition_coefficients(domain_rows, residual_fn):
    """Coefficient vectors x with sum x_a * residual(domain[a]) = 0.

    residual_fn maps each domain basis vector to a list of residual
    vectors (same shapes across calls).  Returns canonical rows in the
    coefficient space of the domain basis.
    """
    cond_rows = []
    for d in domain_rows:
        flat = []
        for res in residual_fn(d):
            flat.extend(res)
        cond_rows.append(flat)
    return left_nullspace(cond_rows)


def combine_rows(coeff_rows, domain_rows):
    """Nonzero combinations sum c_a * domain[a], one per coefficient vector."""
    domain = [_sparse(r) for r in domain_rows]
    if not domain:
        return []
    ncols = len(domain_rows[0])
    out = []
    for cvec in coeff_rows:
        acc = {}
        for c, row in zip(cvec, domain):
            if c:
                _axpy(acc, c, row)
        if acc:
            out.append(_dense(acc, ncols))
    return out


def solve_linear_conditions(domain_rows, residual_fn):
    """Subspace of the span of domain_rows cut out by linear conditions.

    residual_fn maps each domain basis vector to a list of residual
    vectors (all the same shapes across calls); a combination
    sum x_a * domain[a] satisfies the conditions iff the same combination
    of residuals vanishes.  Returns canonical rows of the solution space.
    """
    domain_rows = list(domain_rows)
    coeffs = solve_condition_coefficients(domain_rows, residual_fn)
    return rref(combine_rows(coeffs, domain_rows))[0]


class Solver:
    """Repeated exact solves of x . rows = v for a fixed row matrix.

    The elimination of the transposed system is done once; each solve is
    a sparse matrix-vector product plus a consistency check.
    """

    def __init__(self, rows):
        rows = [tuple(r) for r in rows]
        if not rows:
            raise InputError("Solver needs at least one row")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0])
        n = self.nrows
        # eliminate [rows^T | I] so solving becomes reading transformed entries
        aug = [{n + c: 1} for c in range(self.ncols)]
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                if x:
                    aug[c][r] = x
        reduced = _echelon(aug)
        if sum(1 for p in reduced if p < n) < n:
            raise InputError("Solver rows are linearly dependent")
        # x[p] (p < nrows) or a consistency check (p >= nrows) is the pivot-p
        # row's identity block dotted with v; index that block by column of v
        self._by_column = {}
        for p, row in reduced.items():
            for c, t in row.items():
                if c >= n:
                    self._by_column.setdefault(c - n, []).append((p, t))

    def solve(self, v):
        """Coefficients x with x . rows = v, or None if v is not in the span."""
        if len(v) != self.ncols:
            raise InputError("dimension mismatch in Solver.solve")
        acc = {}
        for c, vc in enumerate(v):
            if vc:
                for p, t in self._by_column.get(c, ()):
                    acc[p] = acc.get(p, 0) + t * vc
        x = [0] * self.nrows
        for p, a in acc.items():
            if a:
                if p >= self.nrows:
                    return None
                x[p] = compact(a)
        return tuple(x)


def congruence_diagonalize(matrix):
    """Lagrange diagonalization of a symmetric matrix over Q.

    Returns (diagonal entries, transform P) with P . M . P^T diagonal.
    """
    m = [list(r) for r in matrix]
    n = len(m)
    for row in m:
        if len(row) != n:
            raise InputError("congruence_diagonalize needs a square matrix")
    p = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]

    def add_row_col(dst, src, factor):
        m[dst] = [a + factor * b for a, b in zip(m[dst], m[src])]
        for row in m:
            row[dst] = row[dst] + factor * row[src]
        p[dst] = [a + factor * b for a, b in zip(p[dst], p[src])]

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]
        p[a], p[b] = p[b], p[a]

    for k in range(n):
        if m[k][k] == 0:
            # swap in a later nonzero diagonal entry; failing that, add a
            # row/column j with m[j][k] != 0: the pivot m[j][j] + 2 m[j][k]
            # cannot cancel once the remaining diagonal is zero
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                swap(k, j)
            else:
                j = next((j for j in range(k + 1, n) if m[j][k] != 0), None)
                if j is None:
                    continue
                add_row_col(k, j, Fraction(1))
        for j in range(k + 1, n):
            if m[j][k] != 0:
                add_row_col(j, k, -exact_div(m[j][k], m[k][k]))
    diag = tuple(m[i][i] for i in range(n))
    return diag, tuple(tuple(r) for r in p)


def signature_of_symmetric(matrix):
    """(positive, negative, zero) inertia of a symmetric rational matrix."""
    diag, _ = congruence_diagonalize(matrix)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def matvec(rows, v):
    # zero terms are skipped: the Killing rows and derived rows of radical are sparse
    return tuple(sum((a * b for a, b in zip(row, v) if a and b), row[0] - row[0]) for row in rows)
