"""Shared helpers for the test suite: oracles and random algebra generators."""

from fractions import Fraction

from crkit.algebra import LieAlgebra
from crkit.linalg import Solver
from crkit.scalars import QQ, GaussianRational


def oracle_bracket(L, x, y):
    """Dense tensor evaluation: sum_{i,j} x_i y_j c[i][j][.] over all pairs.

    Independent of the sparse i<j evaluation path used by L.bracket.
    """
    out = [L.zero] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            c = x[i] * y[j]
            if c == 0:
                continue
            for k in range(L.dim):
                out[k] += c * L.structure_constant(i, j, k)
    return tuple(out)


def oracle_ad_matrix(L, x):
    """Dense ad_x matrix, column j = [x, e_j], built entrywise."""
    cols = [L.bracket(x, L.basis_vector(j)) for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]


def oracle_trace_product(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def random_vector(rng, L, bound=5):
    return tuple(Fraction(rng.randint(-bound, bound)) for _ in range(L.dim))


def random_solvable(rng, n):
    """Solvable algebra R ⋉ R^n: one generator acting on an abelian ideal.

    [e_0, e_j] = sum_k D[k][j] e_k for a random integer matrix D; the Jacobi
    identity holds for any D since the ideal is abelian.
    """
    D = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    brackets = {}
    for j in range(n):
        row = {1 + k: D[k][j] for k in range(n) if D[k][j] != 0}
        if row:
            brackets[(0, 1 + j)] = row
    names = ["t"] + [f"v{k}" for k in range(n)]
    return LieAlgebra(n + 1, QQ, names, brackets)


# ---------------------------------------------------------------------------
# dense references for the exact linear algebra
# ---------------------------------------------------------------------------

def dense_rref(rows):
    """Plain dense Gauss-Jordan elimination: (echelon rows, pivot columns).

    Works column by column on full lists, independent of the sparse core
    in crkit.linalg.  Entries may be Fractions or GaussianRationals.
    """
    m = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def dense_rank(rows):
    return len(dense_rref(rows)[0])


def dense_left_nullspace(rows, one=Fraction(1)):
    """Canonical basis of {x : x . rows = 0} from the free columns of rref(rows^T)."""
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    transposed = [[rows[i][c] for i in range(n)] for c in range(ncols)]
    reduced, pivots = dense_rref(transposed)
    basis = []
    for free in (j for j in range(n) if j not in pivots):
        x = [0 * one] * n
        x[free] = one
        for row, p in zip(reduced, pivots):
            x[p] = -row[free]
        basis.append(x)
    return dense_rref(basis)[0]


def combination(coeffs, rows):
    """sum_a coeffs[a] * rows[a], densely."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [a + c * b for a, b in zip(out, row)]
    return out


# ---------------------------------------------------------------------------
# inertia reference: Berkowitz characteristic polynomial + Descartes
# ---------------------------------------------------------------------------

def berkowitz_charpoly(m):
    """Coefficients [1, c_1, ..., c_n] of det(t I - m), highest power first.

    Berkowitz's algorithm: products of Toeplitz matrices built from the
    leading principal blocks, without any division.
    """
    n = len(m)
    if n == 0:
        return [1]
    poly = [1, -m[0][0]]
    for r in range(1, n):
        row, col, corner = m[r][:r], [m[i][r] for i in range(r)], m[r][r]
        toeplitz = [1, -corner]
        power_col = col
        for _ in range(r):
            toeplitz.append(-sum(a * b for a, b in zip(row, power_col)))
            power_col = [sum(m[i][j] * power_col[j] for j in range(r)) for i in range(r)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(len(poly)) if 0 <= i - j < len(toeplitz))
            for i in range(r + 2)
        ]
    return poly


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_inertia(m):
    """(positive, negative, zero) eigenvalue counts of a symmetric rational matrix.

    All roots of the characteristic polynomial are real, so Descartes' rule
    of signs counts the positive roots exactly, and applied to p(-t) the
    negative ones.
    """
    poly = berkowitz_charpoly(m)
    n = len(poly) - 1
    zero = 0
    while zero < n and poly[n - zero] == 0:
        zero += 1
    pos = _sign_changes(poly)
    neg = _sign_changes([c * (-1) ** (n - k) for k, c in enumerate(poly)])
    return pos, neg, zero


def rebase(L, rows):
    """L on the basis b_a = sum_i rows[a][i] e_i (rows must be invertible)."""
    solver = Solver(rows)
    brackets = {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            coeffs = solver.solve(L.bracket(rows[a], rows[b]))
            row = {k: c for k, c in enumerate(coeffs) if c != 0}
            if row:
                brackets[(a, b)] = row
    return LieAlgebra(L.dim, L.field, [f"b{a}" for a in range(L.dim)], brackets)


# ---------------------------------------------------------------------------
# structure constants of a matrix model, by solving
# ---------------------------------------------------------------------------

def dense_gaussian(mat, size):
    """Dense GaussianRational matrix of a sparse {(row, col): (re, im)} matrix."""
    return [
        [GaussianRational(*mat.get((r, c), (0, 0))) for c in range(size)]
        for r in range(size)
    ]


def dense_product(x, y):
    """xy for dense square matrices, skipping zero entries of x and y."""
    n = len(x)
    out = [[GaussianRational(0)] * n for _ in range(n)]
    for r in range(n):
        for k in range(n):
            if x[r][k]:
                for c in range(n):
                    if y[k][c]:
                        out[r][c] = out[r][c] + x[r][k] * y[k][c]
    return out


def dense_commutator(x, y):
    """xy - yx for dense square matrices."""
    xy, yx = dense_product(x, y), dense_product(y, x)
    return [[a - b for a, b in zip(p, q)] for p, q in zip(xy, yx)]


def oracle_structure_constants(mats, size, field_is_complex):
    """Independent route: vec the matrices and express commutators by solving.

    mats are a builder's sparse basis matrices; they are multiplied densely
    over Q(i) here, and coordinates come from a Solver on the vec'd basis
    (complex entries over Q(i), or real parts then imaginary parts over Q)
    instead of any coordinate read-off.
    """
    def vec(m):
        flat = [m[r][c] for r in range(size) for c in range(size)]
        if field_is_complex:
            return tuple(flat)
        return tuple(g.re for g in flat) + tuple(g.im for g in flat)

    dense = [dense_gaussian(m, size) for m in mats]
    solver = Solver([vec(m) for m in dense])
    table = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            coeffs = solver.solve(vec(dense_commutator(dense[a], dense[b])))
            assert coeffs is not None
            row = {k: c for k, c in enumerate(coeffs) if c != 0}
            if row:
                table[(a, b)] = row
    return table
