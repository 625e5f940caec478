"""Shared helpers for the test suite: oracles and random algebra generators."""

from fractions import Fraction

from crkit.algebra import LieAlgebra
from crkit.complexify import OrbitModel, nilpotent_automorphism
from crkit.errors import InputError
from crkit.linalg import Solver, dense, rref, sparse
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


def dense_bracket(L, x, y):
    """L.bracket on dense vectors: the sparse bracket, converted at the edge."""
    return dense(L.bracket(sparse(x), sparse(y)), L.dim)


def dense_solve(solver, v):
    """Solver.solve on a dense vector, as a dense coefficient tuple (or None)."""
    x = solver.solve(sparse(v))
    return None if x is None else dense(x, solver.nrows)


def oracle_ad_matrix(L, x):
    """Dense ad_x matrix, column j = [x, e_j], built entrywise."""
    cols = [dense_bracket(L, x, L.basis_vector(j)) for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]


def oracle_trace_product(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def form_value(form, x, y):
    """x . M . y for the dense matrix M of a bilinear form."""
    return sum(xi * m * yj for xi, row in zip(x, form.matrix) for m, yj in zip(row, y))


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
    rows = [sparse(r) for r in rows]
    solver = Solver(rows)
    brackets = {}
    for a in range(L.dim):
        for b in range(a + 1, L.dim):
            row = solver.solve(L.bracket(rows[a], rows[b]))
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

    full = [dense_gaussian(m, size) for m in mats]
    solver = Solver([sparse(vec(m)) for m in full])
    table = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            row = solver.solve(sparse(vec(dense_commutator(full[a], full[b]))))
            assert row is not None
            if row:
                table[(a, b)] = row
    return table


# ---------------------------------------------------------------------------
# invariant factors by prime factorization
# ---------------------------------------------------------------------------

def _prime_factors(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def factored_invariant_factors(torsion):
    """Divisor chain of a torsion list from its primary decomposition.

    Trial division, then the k-th factor is the product over primes of
    their k-th largest exponent: a reference for small orders only.
    """
    by_prime = {}
    for t in torsion:
        for p, e in _prime_factors(t).items():
            by_prime.setdefault(p, []).append(e)
    slots = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for k in range(slots):
        f = 1
        for p, exps in by_prime.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                f *= p ** exps_sorted[k]
        factors.append(f)
    return tuple(sorted(factors))


# ---------------------------------------------------------------------------
# the base stabilizer over Q(i)
# ---------------------------------------------------------------------------

def complex_vector(v):
    """The complex vector re + i im of realified coordinates (re, im)."""
    n = len(v) // 2
    return tuple(GaussianRational(v[k], v[n + k]) for k in range(n))


def complex_j_hat_rows(entry):
    """Complex rows of hat-h + C . j: a Q(i) rref of the realified rows read as complex.

    The realified rows r = (re, im) stand for the complex vectors re + i im,
    whose complex span is the stabilizer of the fibration base point.
    """
    model = entry.model
    rows = list(model.isotropy_real.rows) + list(entry.fibration.normalizer.rows)
    return rref([complex_vector(v) for v in rows])[0]


# ---------------------------------------------------------------------------
# transports of orbit models
# ---------------------------------------------------------------------------

def nonreal_exp_ad(ambient):
    """exp(ad x) for the first ad-nilpotent x = i e_a + (1 - i) e_b, a < b, else (1 - i) e_b."""
    n = ambient.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)] + [(None, b) for b in range(n)]
    for a, b in pairs:
        x = [0] * n
        x[b] = GaussianRational(1, -1)
        if a is not None:
            x[a] = GaussianRational(0, 1)
        try:
            return nilpotent_automorphism(ambient, tuple(x))
        except InputError:
            continue
    raise AssertionError("no ad-nilpotent basis combination")


def permute_model(model, perm):
    """The orbit model on the permuted complex ambient basis: e_k becomes e'_{perm[k]}.

    Structure constants, names, realified real rows (both blocks) and
    complex isotropy rows are all re-indexed; the real algebra is kept, so
    its basis stays aligned with the permuted real rows.
    """
    amb = model.ambient
    n = amb.dim
    brackets = {}
    for (i, j), row in amb.brackets.items():
        a, b, sign = perm[i], perm[j], 1
        if a > b:
            a, b, sign = b, a, -1
        brackets[(a, b)] = {perm[k]: sign * c for k, c in row.items()}
    names = [None] * n
    for k, x in enumerate(amb.names):
        names[perm[k]] = x
    ambient = LieAlgebra(n, amb.field, names, brackets)

    def move(v, width):
        out = [0] * len(v)
        for k, x in enumerate(v):
            out[perm[k % width] + (k // width) * width] = x
        return tuple(out)

    real_rows = [move(v, n) for v in model.real_rows]
    iso = [move(z, n) for z in model.isotropy_rows]
    return OrbitModel(ambient, real_rows, iso, real_algebra=model.real_algebra, name=model.name)


# ---------------------------------------------------------------------------
# subspaces cut out by linear conditions, by dense solves
# ---------------------------------------------------------------------------

def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def annihilator(rows, n):
    """Basis of the functionals on Q^n that vanish on every row."""
    return dense_left_nullspace([[r[c] for r in rows] for c in range(n)])


def dense_solution_span(domain, conditions, one=Fraction(1)):
    """dense_rref of {sum c_a domain[a] : sum_a c_a conditions[a] = 0}."""
    coeffs = dense_left_nullspace(conditions, one)
    return dense_rref([combination(c, domain) for c in coeffs])


def dense_coordinates(rows, vectors):
    """For each v, the unique x with x . rows = v; rows independent, one elimination."""
    r = len(rows)
    augmented = [[row[c] for row in rows] + [v[c] for v in vectors] for c in range(len(rows[0]))]
    reduced, pivots = dense_rref(augmented)
    assert pivots == list(range(r)), "a vector lies outside the span"
    return [[reduced[i][r + t] for i in range(r)] for t in range(len(vectors))]


def realified_j(v):
    """Multiplication by i on realified coordinates (re, im) -> (-im, re)."""
    n = len(v) // 2
    return [-x for x in v[n:]] + list(v[:n])


def oracle_cr_normalizer(model):
    """{xi in g : [xi, isotropy] <= isotropy} by a dense solve over the full bracket table.

    A combination of the real rows qualifies iff every functional that
    vanishes on the isotropy kills its bracket with each isotropy row; the
    brackets are dense tensor evaluations (oracle_bracket).
    """
    L = model.ambient_real
    iso = model.isotropy_real.rows
    ann = annihilator(iso, L.dim)
    conditions = [
        [dot(phi, b) for b in (oracle_bracket(L, x, u) for u in iso) for phi in ann]
        for x in model.real_rows
    ]
    return dense_solution_span(model.real_rows, conditions)[0]


def oracle_cr_subspace(model):
    """R = {xi in g : J xi in g + isotropy}, in the real algebra's coordinates."""
    ann = annihilator(list(model.real_rows) + list(model.isotropy_real.rows),
                      model.ambient_real.dim)
    n = len(model.real_rows)
    identity = [[int(a == b) for b in range(n)] for a in range(n)]
    conditions = [[dot(phi, realified_j(x)) for phi in ann] for x in model.real_rows]
    return dense_solution_span(identity, conditions)[0]


def oracle_quotient(L, ideal):
    """L / ideal by brackets of coset representatives.

    The representatives are the basis vectors off the ideal's pivots.  Their
    brackets are written over representatives plus ideal rows by one dense
    solve, and the representative parts give the constants.
    """
    comp = [i for i in range(L.dim) if i not in ideal.pivots]
    reps = [L.basis_vector(i) for i in comp]
    k = len(reps)
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    values = [oracle_bracket(L, reps[a], reps[b]) for a, b in pairs]
    coords = dense_coordinates(reps + list(ideal.rows), values) if pairs else []
    brackets = {}
    for pair, x in zip(pairs, coords):
        row = {t: x[t] for t in range(k) if x[t]}
        if row:
            brackets[pair] = row
    return LieAlgebra(k, L.field, [f"q{t}" for t in range(k)], brackets)
