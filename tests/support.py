"""Shared helpers for the test suite: oracles, reference algebras, transports
and random algebra generators.

The library has no use for the helpers here: the matrix models, as
sparse Gaussian-integer matrices, that the catalog's index rows and line
stabilizers are read off and solved against, the matrix-model real
algebras the catalog's entries are compared with, the transports of the
metamorphic tests, the cr-pair payload writer and the dense elimination
references.  tests/test_imports.py fails on a definition here that no
test reads.
"""

from fractions import Fraction

from crkit.algebra import (
    LieAlgebra,
    Subspace,
    quotient_algebra,
    read_off_structure,
    realify,
    span,
    sparse_span,
)
from crkit.catalog import build_sl_complex, sp_real_rows, su_signs
from crkit.complexify import OrbitModel
from crkit.cr import CRPair, apply_endo, levi_form, matrix_columns
from crkit.errors import InputError
from crkit.fileio import algebra_payload
from crkit.linalg import (
    Solver,
    combine_rows,
    dense,
    echelon,
    echelon_rows,
    kernel_rows,
    left_nullspace,
    sparse,
    vec_add,
    vec_sub,
)
from crkit.report import Check, Report, witness_check
from crkit.scalars import QI, QQ, GaussianRational, exact_div, format_scalar, imag_part, real_part


def basis_vector(L, i):
    """The unit vector e_i of L, dense."""
    return tuple(int(k == i) for k in range(L.dim))


def basis_vectors(L):
    return tuple(basis_vector(L, i) for i in range(L.dim))


def tensor_bracket(L, i, j):
    """[e_i, e_j] as a sparse dict, read off the stored tensor by antisymmetry."""
    if i < j:
        return L.brackets.get((i, j), {})
    return {k: -v for k, v in L.brackets.get((j, i), {}).items()}


def oracle_bracket(L, x, y):
    """Dense tensor evaluation: sum_{i,j} x_i y_j c[i][j][.] over all pairs.

    Independent of the sparse i<j evaluation path used by L.bracket.
    """
    out = [0] * L.dim
    for i in range(L.dim):
        for j in range(L.dim):
            c = x[i] * y[j]
            if c == 0:
                continue
            for k, v in tensor_bracket(L, i, j).items():
                out[k] += c * v
    return tuple(out)


def dense_bracket(L, x, y):
    """L.bracket on dense vectors: the sparse bracket, converted at the edge."""
    return dense(L.bracket(sparse(x), sparse(y)), L.dim)


def dense_solve(solver, v):
    """Solver.solve on a dense vector, as a dense coefficient tuple (or None).

    The rows are independent, so there are as many as echelon rows.
    """
    x = solver.solve(sparse(v))
    return None if x is None else dense(x, len(solver.echelon))


def oracle_ad_matrix(L, x):
    """Dense ad_x matrix, column j = [x, e_j], built entrywise."""
    cols = [dense_bracket(L, x, basis_vector(L, j)) for j in range(L.dim)]
    return [[cols[j][k] for j in range(L.dim)] for k in range(L.dim)]


def oracle_trace_product(a, b):
    n = len(a)
    return sum(a[i][j] * b[j][i] for i in range(n) for j in range(n))


def form_value(matrix, x, y):
    """x . M . y for the dense matrix M of a bilinear form."""
    return sum(xi * m * yj for xi, row in zip(x, matrix) for m, yj in zip(row, y))


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


def core_rref(rows, ncols):
    """(echelon rows, pivots) of dense rows with ncols columns, by linalg's sparse core."""
    return echelon_rows(echelon(map(sparse, rows)), ncols)


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
# inertia references: Berkowitz characteristic polynomial + Descartes, and
# Lagrange congruence diagonalization over Q
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


def congruence_diagonalize(matrix):
    """Lagrange diagonalization of a symmetric matrix over Q.

    Returns (diagonal entries, transform P) with P . M . P^T diagonal.  A
    zero pivot is replaced by a later nonzero diagonal entry or, failing
    that, by adding a row and column j with m[j][k] != 0.
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


def lagrange_inertia(m):
    """(positive, negative, zero) counts of the Lagrange diagonal of m."""
    diag, _ = congruence_diagonalize(m)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


# ---------------------------------------------------------------------------
# Jacobi reference: the naive triple loop over basis brackets
# ---------------------------------------------------------------------------

def oracle_jacobi_witness(L):
    """First i < j < k whose cyclic Jacobi sum of basis brackets is nonzero, or None.

    A complex algebra is read directly over Q(i), through its
    GaussianRational constants, not through its realification.
    """
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for l, coeff in tensor_bracket(L, a, b).items():
                        for m, d in tensor_bracket(L, l, c).items():
                            acc[m] = acc.get(m, 0) + coeff * d
                if any(acc.values()):
                    return (i, j, k)
    return None


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
# the base stabilizer over Q(i)
# ---------------------------------------------------------------------------

def complex_vector(v):
    """The complex vector re + i im of realified coordinates (re, im)."""
    n = len(v) // 2
    return tuple(GaussianRational(v[k], v[n + k]) for k in range(n))


def complex_to_real(z):
    """Realified coordinates (real parts, then imaginary parts) of a dense complex vector."""
    return tuple(real_part(c) for c in z) + tuple(imag_part(c) for c in z)


def complex_rows_realified(rows):
    """Dense realified spanning rows of a complex row space: v and iv per row."""
    out = []
    for z in rows:
        v = complex_to_real(z)
        n = len(z)
        out += [v, tuple(-x for x in v[n:]) + v[:n]]
    return out


def complex_j_hat_rows(entry):
    """Complex rows of hat-h + C . j: a Q(i) rref of the realified rows read as complex.

    The realified rows r = (re, im) stand for the complex vectors re + i im,
    whose complex span is the stabilizer of the fibration base point.
    """
    model = entry.model
    rows = list(model.isotropy_real.rows) + list(entry.fibration.normalizer.rows)
    return dense_rref([complex_vector(v) for v in rows])[0]


# ---------------------------------------------------------------------------
# transports of orbit models
# ---------------------------------------------------------------------------

def nilpotent_automorphism(L, x):
    """exp(ad x) as a dim x dim matrix, for ad-nilpotent x; exact over the field."""
    n = L.dim
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    x = sparse(x)
    term = [{j: 1} for j in range(n)]  # columns (ad x)^k e_j, sparse
    k = 0
    factorial = 1
    while True:
        k += 1
        factorial *= k
        term = [L.bracket(x, col) for col in term]
        if not any(term):
            break
        if k > n:
            raise InputError("exp(ad x) requires an ad-nilpotent element")
        inv = Fraction(1, factorial)
        for j, col in enumerate(term):
            for i, c in col.items():
                mat[i][j] = mat[i][j] + c * inv
    return tuple(tuple(r) for r in mat)


def apply_complex_matrix_to_model(model, matrix, name=""):
    """Transport an orbit model by a complex-linear ambient automorphism.

    The matrix acts on realified rows as [[Re, -Im], [Im, Re]], over Q.
    """
    re = [[real_part(x) for x in row] for row in matrix]
    im = [[imag_part(x) for x in row] for row in matrix]
    act = [a + [-x for x in b] for a, b in zip(re, im)] + [b + a for a, b in zip(re, im)]
    columns = matrix_columns(act)
    # the map commutes with J, so the images of complex generators span the image over C
    return OrbitModel(
        model.ambient,
        [apply_endo(columns, v) for v in model.real_vectors],
        [apply_endo(columns, u) for u in model.isotropy_generators],
        name=name or model.name,
    )

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

    Structure constants, names, realified real rows and realified isotropy
    generators (both blocks) are all re-indexed; the real rows keep their
    order, so the real algebra read off them has the same constants.
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
    iso = [move(dense(u, 2 * n), n) for u in model.isotropy_generators]
    return OrbitModel(
        ambient, [sparse(v) for v in real_rows], [sparse(u) for u in iso], name=model.name
    )


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
    reps = [basis_vector(L, i) for i in comp]
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


def oracle_fiber(model, j):
    """j/h through the abstract algebra on j, for the normalizer j of a model.

    j's structure on its echelon rows, the coordinates of h's rows there by
    solves, then the quotient by h in those coordinates: no step reads h's
    complement in the ambient.
    """
    j_sub, j_solver = read_off_structure(model.ambient_real, j.echelon.values())
    if not j.dim:
        return j_sub
    h_in_j = sparse_span(j_sub, [j_solver.solve(v) for v in model.h.echelon.values()])
    return quotient_algebra(j_sub, h_in_j)[0]


# ---------------------------------------------------------------------------
# the full loops the library reduces modulo h, kept as oracles
# ---------------------------------------------------------------------------

def full_check_cr_pair(pair, connected_isotropy=True):
    """The four CR axioms by the ordered loops over every pair of the basis B of R.

    B is h's echelon rows, then the complement, and J is the canonical J.
    Square-minus-identity runs over all of B, isotropy over every (h, B)
    pair and integrability over every pair a < b of B: nothing is skipped.
    """
    g, h, r = pair.g, pair.h, pair.r
    j = pair.apply_j
    hrows, comp = list(h.echelon.values()), list(pair.complement.values())
    rows = hrows + comp
    j_of_rows = [j(v) for v in rows]
    checks = []

    def found(name, witness):
        checks.append(
            witness_check(name, None if witness is None else dense(witness, g.dim), "witness ")
        )

    witness = None
    for v in hrows:
        if not h.contains(j(v)):
            witness = v
            break
    if witness is None:
        images = [h.reduce(j(v)) for v in comp]
        if images:
            for vec in combine_rows(left_nullspace(images), comp):
                if not h.contains(vec):
                    witness = vec
                    break
    found("kernel-exactness", witness)

    witness = None
    for v in rows:
        if not h.contains(vec_add(j(j(v)), v)):
            witness = v
            break
    found("square-minus-identity", witness)

    if connected_isotropy:
        witness = None
        for xi in hrows:
            for zeta, jzeta in zip(rows, j_of_rows):
                b = g.bracket(xi, zeta)
                if not r.contains(b):
                    witness = b
                    break
                diff = vec_sub(j(b), g.bracket(xi, jzeta))
                if not h.contains(diff):
                    witness = diff
                    break
            if witness is not None:
                break
        found("isotropy-compatibility", witness)
    else:
        checks.append(Check("isotropy-compatibility", None))

    witness = None
    for a in range(len(rows)):
        xi, jxi = rows[a], j_of_rows[a]
        for b in range(a + 1, len(rows)):
            zeta, jzeta = rows[b], j_of_rows[b]
            first = vec_sub(g.bracket(xi, zeta), g.bracket(jxi, jzeta))
            if not r.contains(first):
                witness = first
                break
            torsion = vec_sub(
                vec_sub(j(first), g.bracket(jxi, zeta)), g.bracket(xi, jzeta)
            )
            if not h.contains(torsion):
                witness = torsion
                break
        if witness is not None:
            break
    found("integrability", witness)
    return Report(tuple(checks))


def full_cr_normalizer(model):
    """The CR-normalizer by one kernel over all of g's rows, h included."""
    L, g, iso = model.ambient_real, model.real_vectors, model.isotropy_real
    images = [[iso.reduce(L.bracket(v, u)) for u in model.isotropy_generators] for v in g]
    return Subspace(L, kernel_rows(g, images))


# ---------------------------------------------------------------------------
# complements and projections by elimination and unit vectors
# ---------------------------------------------------------------------------

def oracle_complement(pair):
    """The complement of h in R by a second elimination: R's rows reduced modulo h."""
    return echelon([pair.h.reduce(v) for v in pair.r.echelon.values()])


def oracle_canonical_j(pair, raw_j):
    """The canonical J from every unit vector e_a: raw_j of its projection onto R, modulo h.

    raw_j is a sparse column map of J on g, as a pair is built from; the
    projection is along the coordinates off R's pivots, e_a minus its
    residual against R.
    """
    columns = {}
    for a in range(pair.g.dim):
        e = {a: 1}
        img = pair.h.reduce(apply_endo(raw_j, vec_sub(e, pair.r.reduce(e))))
        if img:
            columns[a] = img
    return columns


def greedy_real_basis(model):
    """The real rows, then each isotropy echelon row outside the span of the rows before it."""
    rows = list(model.real_rows)
    for row in model.isotropy_real.rows:
        if dense_rank(rows + [row]) > len(rows):
            rows.append(row)
    return rows


def greedy_induced_pair(model):
    """The induced CR pair with J solved in greedy_real_basis, on every unit vector.

    R is oracle_cr_subspace; J e_a is the real-row part of J applied to
    the projection of e_a onto R, written in the greedy basis of g + ĥ.
    """
    g, n = model.real_algebra, len(model.real_rows)
    r_sub = span(g, oracle_cr_subspace(model))
    h_sub = sparse_span(g, [model._solver.solve(v) for v in model.h.echelon.values()])
    solver = Solver([sparse(row) for row in greedy_real_basis(model)])
    columns = {}
    for a in range(n):
        e = {a: 1}
        proj = vec_sub(e, r_sub.reduce(e))
        if proj:
            (v,) = combine_rows([proj], model.real_vectors)
            img = solver.solve(sparse(realified_j(dense(v, model.ambient_real.dim))))
            col = {k: x for k, x in img.items() if k < n}
            if col:
                columns[a] = col
    return CRPair(g, h_sub, r_sub, columns)


# ---------------------------------------------------------------------------
# CR pairs with a prescribed raw J
# ---------------------------------------------------------------------------

def complement_rows(pair):
    """The complement of h in R as dense echelon rows."""
    return echelon_rows(pair.complement, pair.g.dim)[0]


def complement_matrix(pair):
    """J mod h on the complement rows c_i: column i holds the coordinates of J c_i."""
    comp = complement_rows(pair)
    images = [dense(pair.apply_j(sparse(c)), pair.g.dim) for c in comp]
    coords = dense_coordinates(comp, images) if comp else []
    return [[coords[i][k] for i in range(len(comp))] for k in range(len(comp))]


def levi_raw_form(pair):
    """The raw Levi form of a pair passing the axioms, read off levi_form through J.

    J x_j = sum_l C[j][l] x_l mod h on the complement rows x, with
    C[j][l] = pair.j[p_j].get(p_l, 0) at their pivots p, so
    lambda[x_i, x_j] = -lambda[x_i, J J x_j] = -sum_l C[j][l] completed[i][l]
    in each value coordinate.
    """
    pivots = list(pair.complement)
    c = [[pair.j.get(p, {}).get(q, 0) for q in pivots] for p in pivots]
    m = len(pivots)
    return tuple(
        tuple(
            tuple(-sum(c[j][l] * mat[i][l] for l in range(m)) for j in range(m))
            for i in range(m)
        )
        for mat in levi_form(pair).completed_matrices
    )


def j_columns(pair, on_h, on_comp):
    """The column map of a raw J on pair's g, given on a basis of g, densely.

    on_h[t] is the image of h's t-th row, on_comp[i] that of the i-th
    complement row, and J vanishes on the unit vectors off R's pivots.
    """
    n = pair.g.dim
    units = [tuple(int(c == p) for c in range(n)) for p in range(n)]
    off_r = [units[p] for p in range(n) if p not in pair.r.pivots]
    basis = [*pair.h.rows, *complement_rows(pair), *off_r]
    values = [*on_h, *on_comp, *([(0,) * n] * len(off_r))]
    columns = {}
    for j, coords in enumerate(dense_coordinates(basis, units)):
        col = {k: x for k, x in enumerate(combination(coords, values)) if x}
        if col:
            columns[j] = col
    return columns


def rebased_pair(pair, rows):
    """pair on the basis b_a = sum_i rows[a][i] e_i of its algebra (rows invertible)."""
    g = rebase(pair.g, rows)
    h = span(g, dense_coordinates(rows, pair.h.rows) if pair.h.rows else [])
    r = span(g, dense_coordinates(rows, pair.r.rows))
    images = [pair.apply_j(sparse(b)) for b in rows]
    columns = {}
    for a, x in enumerate(dense_coordinates(rows, [dense(v, g.dim) for v in images])):
        if any(x):
            columns[a] = sparse(x)
    return CRPair(g, h, r, columns)


def j_on_h(pair):
    """The dense images of h's rows under pair's canonical J."""
    return [dense(pair.apply_j(sparse(v)), pair.g.dim) for v in pair.h.rows]


def conjugated_j(pair, p, scale=1, h_noise=None):
    """The column map of pair's J replaced on R/h by scale * P J P^-1, P invertible.

    h_noise[i], when given, is an h-valued vector added to the image of
    the i-th complement row, which leaves J mod h as it is.
    """
    comp = complement_rows(pair)
    m = len(comp)
    new = [[scale * x for x in row]
           for row in _matmul(_matmul(p, complement_matrix(pair)), _inverse(p))]
    on_comp = [combination([new[k][i] for k in range(m)], comp) for i in range(m)]
    if h_noise is not None:
        on_comp = [[a + b for a, b in zip(v, w)] for v, w in zip(on_comp, h_noise)]
    return j_columns(pair, j_on_h(pair), on_comp)


def _inverse(p):
    """P^-1: its column j is the solution of P x = e_j."""
    m = len(p)
    units = [[int(a == b) for b in range(m)] for a in range(m)]
    return [list(r) for r in zip(*dense_coordinates([list(c) for c in zip(*p)], units))]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# ---------------------------------------------------------------------------
# matrix models: sparse Gaussian-integer matrices {(row, col): (re, im)}
# ---------------------------------------------------------------------------

def mat_apply(mat, vec):
    """mat . vec for a vector of Gaussian-integer pairs."""
    out = [(0, 0)] * len(vec)
    for (r, c), (mr, mi) in mat.items():
        xr, xi = vec[c]
        if xr or xi:
            re, im = out[r]
            out[r] = (re + mr * xr - mi * xi, im + mr * xi + mi * xr)
    return tuple(out)


def sl_basis_matrices(n):
    mats = [{(a, b): (1, 0)} for a in range(n) for b in range(n) if a != b]
    for a in range(n - 1):
        mats.append({(a, a): (1, 0), (a + 1, a + 1): (-1, 0)})
    return mats


def su_basis_matrices(p, q):
    """Anti-hermitian traceless matrices for the signature-(p, q) form.

    Basis: i H_a for the traceless diagonal, then for each a < b the pair
    A_ab = E_ba - s E_ab and B_ab = i (E_ba + s E_ab) with s the product of
    the signature signs at a and b.
    """
    n = p + q
    eps = su_signs(p, q)
    mats = []
    for a in range(n - 1):
        mats.append({(a, a): (0, 1), (a + 1, a + 1): (0, -1)})
    for a in range(n):
        for b in range(a + 1, n):
            s = eps[a] * eps[b]
            mats.append({(b, a): (1, 0), (a, b): (-s, 0)})
            mats.append({(b, a): (0, 1), (a, b): (0, s)})
    return mats


def sp_complex_basis_matrices(m):
    """Block basis for sp(2m, C): X = [[A, B], [C, -A^T]] with B, C symmetric.

    A_ab for all a, b, then B_ab and C_ab for a <= b; at a == b the two
    keys of B_ab's and C_ab's literals coincide, leaving one entry.
    """
    upper = [(a, b) for a in range(m) for b in range(a, m)]
    mats = [{(a, b): (1, 0), (m + b, m + a): (-1, 0)} for a in range(m) for b in range(m)]
    mats += [{(a, m + b): (1, 0), (b, m + a): (1, 0)} for a, b in upper]
    return mats + [{(m + a, b): (1, 0), (m + b, a): (1, 0)} for a, b in upper]


def sl_coordinates(mat, n):
    """Realified coordinates of a traceless n x n matrix on the sl(n, C) basis.

    E_rc (r != c) is entry (r, c), and the diagonal d is sum h_k H_k with
    h_k = d_0 + ... + d_k.  Returns {k: x} in ascending k: real parts at
    k, imaginary parts at n^2 - 1 + k.
    """
    assert all(0 <= r < n and 0 <= c < n for r, c in mat), mat
    coords = [(r * (n - 1) + c - (c > r), x) for (r, c), x in mat.items() if r != c]
    h = (0, 0)
    for k in range(n):
        re, im = mat.get((k, k), (0, 0))
        h = (h[0] + re, h[1] + im)
        coords.append((n * (n - 1) + k, h))
    # the last partial sum is the trace
    assert coords.pop()[1] == (0, 0), mat
    out = {}
    for k, (re, im) in coords:
        if re:
            out[k] = re
        if im:
            out[n * n - 1 + k] = im
    return {k: out[k] for k in sorted(out)}


def read_off_in_sl(mats, n, names):
    """The real algebra of traceless n x n matrices, read off inside realify(sl(n, C))."""
    rows = [sl_coordinates(x, n) for x in mats]
    return read_off_structure(realify(build_sl_complex(n)), rows, names=names)[0]


def matrix_line_stabilizer(mats, v):
    """The echelon rows of {xi : xi . v in C v}, xi a combination of the real
    matrices mats and v a real vector of Gaussian-integer pairs, by mat_apply."""
    assert not any(im for mat in mats for _, im in mat.values()), mats
    assert not any(im for _, im in v), v
    unit = [{a: 1} for a in range(len(mats))]
    images = [(sparse([re for re, _ in mat_apply(m, v)]),) for m in mats]
    images.append((sparse([-re for re, _ in v]),))
    return list(kernel_rows(unit + [{}], images).values())


# ---------------------------------------------------------------------------
# reference algebras of matrix models, and the cr-pair payload
# ---------------------------------------------------------------------------

def complexify_algebra(L):
    """Scalar extension Q -> Q(i) with the same (rational) structure constants."""
    if L.field != QQ:
        raise InputError("complexify_algebra expects a real (Q) algebra")
    return LieAlgebra(L.dim, QI, L.names, L.brackets)


def build_sl_real(n):
    """sl(n, R): the constants of sl(n, C), over Q."""
    c = build_sl_complex(n)
    return LieAlgebra(c.dim, QQ, c.names, c.brackets)


def build_sl_complex_as_real(n):
    """The realification of sl(n, C): a real algebra of dimension 2(n^2 - 1)."""
    return realify(build_sl_complex(n))


def in_sp_pq(mat, eps):
    """Is the sparse matrix X in sp(2m, C) and anti-hermitian for E = diag(eps)?

    X^T Omega + Omega X = 0 for Omega = [[0, I], [-I, 0]] says X = [[A, B],
    [C, -A^T]] with B and C symmetric: X_rc = s X_{c+m, r+m}, indices mod
    2m, with s = -1 in the diagonal blocks.  X^* E + E X = 0 says
    eps_r X_rc = -eps_c conj(X_cr).
    """
    n, m = len(eps), len(eps) // 2

    def holds(r, c):
        (re, im), s = mat[(r, c)], 1 if (r < m) != (c < m) else -1
        t_re, t_im = mat.get((c, r), (0, 0))
        symplectic = mat.get(((c + m) % n, (r + m) % n)) == (s * re, s * im)
        return symplectic and (eps[r] * re, eps[r] * im) == (-eps[c] * t_re, eps[c] * t_im)

    return all(holds(r, c) for r, c in mat)


def sp_real_matrices(p, q):
    """The matrix of each sp_real_rows row: its combination of the (real)
    sp(2m, C) basis matrices, imaginary parts past them, checked to lie in sp(p, q)."""
    basis, mats = sp_complex_basis_matrices(p + q), []
    for row in sp_real_rows(p, q):
        mat = {}
        for k, x in row.items():
            for key, (b, _) in basis[k % len(basis)].items():
                mat.setdefault(key, [0, 0])[k >= len(basis)] += x * b
        mat = {key: tuple(v) for key, v in mat.items() if v != [0, 0]}
        assert in_sp_pq(mat, su_signs(p, q) * 2), (p, q, row)
        mats.append(mat)
    return mats


def build_sp(p, q):
    """sp(p, q) over Q: the quaternionic unitary algebra, dim (p+q)(2(p+q)+1)."""
    m = p + q
    names = tuple(f"sp{k}" for k in range(m * (2 * m + 1)))
    return read_off_in_sl(sp_real_matrices(p, q), 2 * m, names)


def so_basis_matrices(n):
    """The elementary antisymmetric matrices E_ab - E_ba, a < b."""
    return [
        {(a, b): (1, 0), (b, a): (-1, 0)}
        for a in range(n)
        for b in range(a + 1, n)
    ]


def build_so(n):
    """so(n) over Q on the elementary antisymmetric basis."""
    names = tuple(f"R{a}{b}" for a in range(n) for b in range(a + 1, n))
    return read_off_in_sl(so_basis_matrices(n), n, names)


def cr_pair_payload(pair):
    """The cr-pair file payload of a pair: its algebra, h, R and the canonical J."""
    payload = algebra_payload(pair.g)
    payload["kind"] = "cr-pair"
    payload["h_basis"] = [[format_scalar(x, QQ) for x in row] for row in pair.h.rows]
    payload["R_basis"] = [[format_scalar(x, QQ) for x in row] for row in pair.r.rows]
    # the canonical J, column convention: entry (k, j) is coordinate k of J e_j
    n = pair.g.dim
    payload["J"] = [[format_scalar(pair.j.get(j, {}).get(k, 0), QQ) for j in range(n)]
                    for k in range(n)]
    return payload
