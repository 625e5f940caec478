"""Exact linear algebra over Q.

The library calls these routines on rational data only: a complex
subspace is handled as its J-stable realification.  Rows over Q(i) still
work, and the public algebra functions on a Q_i algebra pass them.

Vectors are sparse {column: value} dicts holding only the nonzero
entries, so elimination, reduction, nullspaces and solves touch nonzeros
only: the catalog's realified rows are a few percent nonzero.  A vector
stays sparse from where it is made to where it is shown; dense tuples
are the edge form only.  signature_of_symmetric takes a dense matrix (a
form matrix), echelon_rows makes the dense rows a record or payload
shows, and sparse/dense convert one vector.  Dense results have their
entries compacted (integral values as plain ints) and zeros as int 0.
Every elimination runs through one routine, _echelon.  Over Q it is
fraction-free: a row is scaled to ints once, kept primitive with a
positive pivot, and its pivot is divided out only in the result; a row
holding a GaussianRational is normalized to pivot 1 in the same loop.  A
span told its number of columns stops once it is full.  Relations among
rows (left_nullspace) and solves in them (Solver) share one layout, the
rows tagged with their indices (_tagged_echelon), so a Solver hands back
the echelon form of its span and no basis needs a second elimination.

A subspace is always represented by its reduced row echelon form with the
zero rows dropped, so two subspaces are equal iff the representing
matrices are equal.  Sparse, that form is a {pivot: row} dict in
ascending pivot order (echelon, kernel_rows, intersect_spaces,
Solver.echelon), and the
reduction routines take it as the basis.  All routines are pure; nothing
here mutates its arguments.

Every subspace the library solves for (centralizers, normalizers, the
radical, intersections, the CR-normalizer, the CR subspace R, the Levi
kernel, line stabilizers) is the set of combinations of some domain rows
cut out by linear conditions on their images, and kernel_rows is the one
route that computes it.

Inertia (signature_of_symmetric) comes from fraction-free congruence
elimination: the matrix is scaled to integers once and every division is
exact, so no Fraction is built however large the entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError
from .scalars import compact, exact_div


def sparse(row):
    """{column: value} map of the nonzero entries of a dense row."""
    return {c: x for c, x in enumerate(row) if x}


def dense(row, ncols):
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


def vec_add(a, b):
    """a + b on sparse vectors."""
    out = dict(a)
    _axpy(out, 1, b)
    return out


def vec_sub(a, b):
    """a - b on sparse vectors."""
    out = dict(a)
    _axpy(out, -1, b)
    return out


def _integral(row):
    """A row of ints and Fractions scaled to ints by the lcm of its denominators.

    Any other row (one holding a GaussianRational) is returned as it is.
    """
    den = 0  # stays 0 while every entry is an int
    for x in row.values():
        if type(x) is not int:
            if not isinstance(x, Fraction):
                return row
            den = lcm(den or 1, x.denominator)
    if not den:
        return row
    return {c: x.numerator * (den // x.denominator) for c, x in row.items()}


def _eliminate(row, b, p):
    """a * row - row[p] * b for a = b[p] > 0: row with column p cleared.

    In place when a == 1; an integer row is divided by the gcd of its
    entries after a scaled combination.
    """
    a, f = b[p], row[p]
    if a == 1:
        _axpy(row, -f, b)
        return row
    row = {c: a * x for c, x in row.items()}
    _axpy(row, -f, b)
    try:
        g = gcd(*row.values())
    except TypeError:  # not an integer row
        return row
    return row if g < 2 else {c: x // g for c, x in row.items()}


def _keep(row, q):
    """row scaled for keeping at its pivot q.

    An integer row becomes primitive with row[q] > 0; any other row is
    normalized to row[q] == 1.
    """
    try:
        g = gcd(*row.values())
    except TypeError:  # not an integer row
        a = row[q]
        if a != 1:
            row = {c: exact_div(x, a) for c, x in row.items()}
        row[q] = 1
        return row
    if row[q] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _echelon(rows, ncols=None):
    """Reduced echelon form of sparse rows, as {pivot: row} with row[pivot] == 1.

    Rows are taken one at a time: each is reduced against the rows kept so
    far and that column is then cleared from the kept rows.  Kept rows
    vanish on each other's pivots, so each is a multiple of a row of the
    reduced echelon form of the rows seen, which is unique: the result does
    not depend on the elimination order.  A row over Q is eliminated
    fraction-free: it is scaled to ints once and kept primitive with a
    positive pivot, each pivot is divided out only on output.  A row over
    Q(i) is kept with pivot 1.  With ncols, the number of columns the rows
    live in, elimination stops once the kept rows span them all, and the
    rows after that are not read.  The input dicts are consumed.
    """
    basis = {}
    for row in rows:
        row = _integral(row)
        for p in [c for c in row if c in basis]:
            row = _eliminate(row, basis[p], p)
        if not row:
            continue
        q = min(row)
        row = _keep(row, q)
        for p, other in basis.items():
            if q in other:
                basis[p] = _eliminate(other, row, q)
        basis[q] = row
        if len(basis) == ncols:
            break
    out = {}
    for p in sorted(basis):
        row = basis[p]
        a = row[p]
        if a != 1:
            row = {c: exact_div(x, a) for c, x in row.items()}
        out[p] = row
    return out


def echelon(rows, ncols=None):
    """Reduced echelon form {pivot: row} of sparse rows, in ascending pivot order.

    With ncols, the rows' number of columns, rows past a full span are not read.
    """
    return _echelon((dict(r) for r in rows), ncols)


def echelon_rows(basis, ncols):
    """The dense rows of a sparse echelon form as tuples, and their pivot columns."""
    return tuple(dense(row, ncols) for row in basis.values()), tuple(basis)


def reduce_mod(v, basis):
    """Residual of sparse v against a sparse echelon form {pivot: row}.

    The residual is empty iff v is in the span.
    """
    # reduced echelon rows vanish on each other's pivots, so only the
    # pivots in v's own support need clearing, in any order
    w = dict(v)
    for p in [c for c in w if c in basis]:
        _axpy(w, -w[p], basis[p])
    return w


def in_span(v, basis):
    return not reduce_mod(v, basis)


def _tagged_echelon(rows):
    """Reduced echelon form of the rows, row i tagged with a 1 at column offset + i.

    offset lies past every column the rows use.  A row pivoting below
    offset is a row of the span's echelon form and its tags combine the
    rows into it; a row pivoting in the tag block vanishes on the original
    columns, so its tags are a relation among the rows.  Returns (offset,
    form).
    """
    offset = 1 + max((max(r) for r in rows if r), default=-1)
    aug = []
    for i, r in enumerate(rows):
        row = dict(r)
        row[offset + i] = 1
        aug.append(row)
    return offset, _echelon(aug)


def left_nullspace(rows):
    """Basis of {x : x . rows = 0}, i.e. linear relations among the rows.

    Relations are sparse {row index: coefficient} dicts in reduced echelon
    form: the tags of the tagged echelon rows that pivot in the tag block.
    """
    offset, basis = _tagged_echelon(rows)
    return tuple(
        {c - offset: x for c, x in row.items()}
        for p, row in basis.items()
        if p >= offset
    )


def combine_rows(coeff_rows, domain_rows):
    """Nonzero combinations sum c_a * domain[a], one per {a: c_a} coefficient dict."""
    out = []
    for cvec in coeff_rows:
        acc = {}
        for a, c in cvec.items():
            _axpy(acc, c, domain_rows[a])
        if acc:
            out.append(acc)
    return out


def kernel_rows(domain_rows, images):
    """Sparse echelon form of {sum c_a domain[a] : sum c_a images[a] = 0}.

    images[a] lists the sparse vectors domain[a] maps to, equally many for
    every a; a combination satisfies the conditions iff the same
    combination of each of its image vectors vanishes.  A zero domain row
    contributes only its conditions.
    """
    # image vector s of a row sits at columns c * width + s: the relations
    # do not depend on how the image columns are laid out side by side
    width = len(images[0]) if images else 0
    stacked = [
        {c * width + s: x for s, vec in enumerate(img) for c, x in vec.items()}
        for img in images
    ]
    return _echelon(combine_rows(left_nullspace(stacked), domain_rows))


def intersect_spaces(a_rows, b_rows):
    """rowspace(a) ∩ rowspace(b) of sparse rows, as a sparse echelon form."""
    a_rows = list(a_rows)
    b_rows = list(b_rows)
    if not a_rows or not b_rows:
        return {}
    # a relation between the a and b rows is a vector of the intersection
    return kernel_rows(a_rows + [{}] * len(b_rows), [(r,) for r in a_rows + b_rows])


class Solver:
    """Repeated exact solves of x . rows = v for a fixed list of independent sparse rows.

    The rows are eliminated once, tagged with their indices
    (_tagged_echelon).  echelon is the reduced echelon form {pivot: row}
    of their span, and each row's tags give it as a combination of the
    rows.  v = sum of v[p] times the row at pivot p when v is in the span,
    so a solve combines those tags and checks v's other columns.  No rows
    give the zero span, where only the zero vector solves.
    """

    def __init__(self, rows):
        offset, basis = _tagged_echelon(list(rows))
        if any(p >= offset for p in basis):
            raise InputError("Solver rows are linearly dependent")
        self.echelon, self._tags = {}, {}
        for p, row in basis.items():
            self.echelon[p] = {c: x for c, x in row.items() if c < offset}
            self._tags[p] = {c - offset: x for c, x in row.items() if c >= offset}

    def solve(self, v):
        """Coefficients {row index: x} with x . rows = v, or None if v is not in the span."""
        if not v:
            return {}  # most brackets a read-off solves vanish
        w, acc = dict(v), {}
        for p, a in v.items():
            row = self.echelon.get(p)
            if row is not None:
                _axpy(w, -a, row)
                _axpy(acc, a, self._tags[p])
        if w:
            return None
        return {k: compact(acc[k]) for k in sorted(acc)}


def signature_of_symmetric(matrix):
    """(positive, negative, zero) inertia of a symmetric rational matrix.

    Fraction-free symmetric elimination (Bareiss): the matrix is scaled to
    integers, and pivot a turns each trailing entry into
    (a m[j][l] - m[j][k] m[k][l]) // prev, a division by the previous
    pivot that is exact.  Pivot k is then a leading principal minor of a
    matrix congruent to the input, so the sign of pivot k times the sign of
    pivot k - 1 is the sign of the k-th diagonal entry of its LDL^T.  A
    zero pivot is replaced by a later nonzero diagonal entry (swapping rows
    and columns) or, failing that, by adding a row and column j with
    m[j][k] != 0: the pivot 2 m[j][k] cannot cancel once the remaining
    diagonal is zero.  A zero trailing row counts as one zero and is
    skipped.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("signature_of_symmetric needs a square matrix")
    den = lcm(*(x.denominator for row in matrix for x in row))
    m = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
    pos = neg = 0
    prev, prev_sign = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[j][k] != 0), None)
                if j is None:
                    continue
                m[k] = [a + b for a, b in zip(m[k], m[j])]
                for row in m:
                    row[k] += row[j]
        pivot, top = m[k][k], m[k]
        for j in range(k + 1, n):
            row, f = m[j], m[j][k]
            row[k + 1:] = [
                (pivot * a - f * b) // prev for a, b in zip(row[k + 1:], top[k + 1:])
            ]
        sign = 1 if pivot > 0 else -1
        if sign == prev_sign:
            pos += 1
        else:
            neg += 1
        prev, prev_sign = pivot, sign
    return pos, neg, n - pos - neg
