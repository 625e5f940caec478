"""The sparse elimination core and congruence diagonalization against dense oracles.

Matrices here are sparse (at most 10% nonzero) with a forced zero row and
zero column, over Q and Q(i), the shape the catalog's realified and complex
rows have.  The Q_wide matrices are denser (at most 50%) rows over Q mixing
ints and Fractions, numerators up to 2^64 and denominators up to 10^6: the
fraction-free elimination's integer rows grow and shrink on them.  Every
routine must agree exactly with the plain dense Gauss-Jordan reference in
tests/support.py.
"""

import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crkit.algebra import (
    Subspace,
    abelian,
    add_spaces,
    derived_subalgebra,
    full_space,
    intersect,
    killing_signature,
    sl2,
    span,
    sparse_span,
)
from crkit.catalog import build_su
from crkit.errors import InputError
from crkit.linalg import (
    Solver,
    dense,
    echelon,
    echelon_rows,
    in_span,
    kernel_rows,
    left_nullspace,
    reduce_mod,
    signature_of_symmetric,
    sparse,
)
from crkit.scalars import GaussianRational, compact

from .support import (
    build_sl_real,
    combination,
    core_rref,
    congruence_diagonalize,
    dense_left_nullspace,
    dense_rank,
    dense_rref,
    dense_solution_span,
    descartes_inertia,
    lagrange_inertia,
    rebase,
)

F = Fraction
FIELDS = ("Q", "Q_i", "Q_wide")

nonzero_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool)
wide_numerators = st.integers(-2**64, 2**64)
wide_rationals = st.one_of(
    wide_numerators, st.builds(F, wide_numerators, st.integers(1, 10**6))
).filter(bool)


def scalars(field):
    if field == "Q":
        return nonzero_rationals
    if field == "Q_wide":
        return wide_rationals
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    return st.builds(GaussianRational, parts, parts).filter(bool)


def zero_of(field):
    return GaussianRational(0) if field == "Q_i" else 0


def unit_of(field):
    return GaussianRational(1) if field == "Q_i" else F(1)


@st.composite
def sparse_matrices(draw, field, max_rows=9, max_cols=12):
    """At most 10% nonzero (50% for Q_wide), one zero row and one zero column, maybe a repeated row."""
    nrows = draw(st.integers(2, max_rows))
    ncols = draw(st.integers(2, max_cols))
    zero_row = draw(st.integers(0, nrows - 1))
    zero_col = draw(st.integers(0, ncols - 1))
    budget = nrows * ncols // (2 if field == "Q_wide" else 10)
    cells = [
        (i, j)
        for i in range(nrows)
        for j in range(ncols)
        if i != zero_row and j != zero_col
    ]
    rows = [[zero_of(field)] * ncols for _ in range(nrows)]
    others = [i for i in range(nrows) if i != zero_row]
    repeat = len(others) >= 2 and draw(st.booleans())
    chosen = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=budget // 2 if repeat else budget))
    for i, j in chosen:
        rows[i][j] = draw(scalars(field))
    if repeat:
        # a multiple of another row: forces a dependency without adding density
        src, dst = draw(st.permutations(others))[:2]
        factor = draw(scalars(field))
        rows[dst] = [factor * x if x else x for x in rows[src]]
    return [tuple(r) for r in rows]


@st.composite
def sparse_vectors(draw, field, ncols):
    v = [zero_of(field)] * ncols
    for j in draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=3)):
        v[j] = draw(scalars(field))
    return tuple(v)


def is_compacted(row):
    return all(compact(x) is x for x in row)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    reduced, pivots = core_rref(m, len(m[0]))
    ref_rows, ref_pivots = dense_rref(m)
    assert pivots == tuple(ref_pivots)
    assert reduced == tuple(tuple(r) for r in ref_rows)
    assert all(is_compacted(r) for r in reduced)
    assert all(type(x) is int for r in reduced for x in r if not x)
    # the sparse form itself: pivot entries 1, and over Q integral entries as ints
    basis = echelon(map(sparse, m))
    assert all(row[p] == 1 for p, row in basis.items())
    if field != "Q_i":
        assert all(is_compacted(row.values()) for row in basis.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_q_and_q_i_rows_eliminate_together(data):
    # a Q row reduced by a Q(i) row leaves the integer rows, and the other way round
    q = data.draw(sparse_matrices("Q_wide"))
    ncols = len(q[0])
    qi = data.draw(st.lists(sparse_vectors("Q_i", ncols), min_size=1, max_size=4))
    rows = q + qi
    ref_rows, ref_pivots = dense_rref(rows)
    for order in (rows, rows[::-1], rows[::2] + rows[1::2]):
        basis = echelon(map(sparse, order))
        assert all(row[p] == 1 for p, row in basis.items())
        assert echelon_rows(basis, ncols) == (tuple(tuple(r) for r in ref_rows), tuple(ref_pivots))


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduction_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    ncols = len(m[0])
    basis, pivots = core_rref(m, ncols)
    view = echelon(map(sparse, basis))
    coeffs = data.draw(st.lists(scalars(field), min_size=len(basis), max_size=len(basis)))
    inside = combination(coeffs, basis) if basis else [zero_of(field)] * ncols
    outside = data.draw(sparse_vectors(field, ncols))
    for v in (inside, outside):
        member = dense_rank(list(basis) + [v]) == len(basis)
        assert in_span(sparse(v), view) == member
        residual = reduce_mod(sparse(v), view)
        assert (not residual) == member
        residual = dense(residual, ncols)
        assert dense_rank(list(basis) + [residual]) == dense_rank(list(basis) + [v])


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_subspace_constructor_gives_the_one_echelon_form(field, data):
    # a Subspace is its sparse echelon form, however it was reached
    m = data.draw(sparse_matrices(field))
    L = abelian(len(m[0]), "Q_i" if field == "Q_i" else "Q")
    rows = [sparse(r) for r in m]
    first = span(L, m)
    others = (
        sparse_span(L, rows),
        add_spaces(Subspace(L, {}), sparse_span(L, rows)),
        intersect(full_space(L), sparse_span(L, rows)),
    )
    for s in others:
        assert s == first and hash(s) == hash(first)
    ref_rows, ref_pivots = dense_rref(m)
    for s in (first, *others):
        assert s.rows == tuple(tuple(r) for r in ref_rows)
        assert s.pivots == tuple(ref_pivots) and s.dim == len(ref_pivots)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_left_nullspace_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    one = unit_of(field)
    ns = tuple(dense(r, len(m)) for r in left_nullspace([sparse(r) for r in m]))
    assert ns == tuple(tuple(r) for r in dense_left_nullspace(m, one))
    assert all(is_compacted(r) for r in ns)
    # at least the forced zero row is a relation
    assert len(ns) == len(m) - dense_rank(m) >= 1


@st.composite
def kernel_problems(draw, field):
    """Domain rows (a zero row among them) with images of one fixed shape per row.

    An image list may be empty (no conditions) or hold zero-width vectors.
    """
    domain = draw(sparse_matrices(field))
    widths = draw(st.lists(st.integers(0, 4), max_size=3))
    images = [
        [draw(sparse_vectors(field, w)) if w else () for w in widths]
        for _ in domain
    ]
    return domain, images


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_rows_matches_dense_reference(field, data):
    domain, images = data.draw(kernel_problems(field))
    one = unit_of(field)
    flat = [list(chain.from_iterable(img)) for img in images]
    ref_rows, ref_pivots = dense_solution_span(domain, flat, one)
    basis = kernel_rows([sparse(r) for r in domain], [[sparse(v) for v in img] for img in images])
    rows, pivots = echelon_rows(basis, len(domain[0]))
    assert rows == tuple(tuple(r) for r in ref_rows)
    assert pivots == tuple(ref_pivots)
    assert all(is_compacted(r) for r in rows)


@pytest.mark.parametrize("field", FIELDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_solver_matches_dense_reference(field, data):
    m = data.draw(sparse_matrices(field))
    ncols = len(m[0])
    rows = [r for r in dense_rref(m)[0]]
    if not rows:
        # no rows span the zero space: only the zero vector solves, by no coefficients
        solver = Solver(rows)
        assert solver.echelon == {}
        v = sparse(data.draw(sparse_vectors(field, ncols)))
        assert solver.solve(v) == ({} if not v else None)
        return
    # an invertible, non-echelon recombination keeps the rows sparse-ish
    rows = [tuple(r) for r in rows]
    mixed = [tuple(a + b for a, b in zip(rows[k], rows[k + 1])) for k in range(len(rows) - 1)]
    rows = mixed + [rows[-1]]
    solver = Solver([sparse(r) for r in rows])
    # the Solver's echelon is the reduced echelon form of its rows' span
    ref_rows, ref_pivots = dense_rref(rows)
    assert echelon_rows(solver.echelon, ncols) == (
        tuple(tuple(r) for r in ref_rows), tuple(ref_pivots)
    )
    coeffs = data.draw(st.lists(scalars(field), min_size=len(rows), max_size=len(rows)))
    v = combination(coeffs, rows)
    solved = solver.solve(sparse(v))
    assert dense(solved, len(rows)) == tuple(coeffs)
    assert is_compacted(solved.values())
    outside = data.draw(sparse_vectors(field, ncols))
    member = dense_rank(rows + [outside]) == len(rows)
    solved = solver.solve(sparse(outside))
    if member:
        assert tuple(combination(dense(solved, len(rows)), rows)) == outside
    else:
        assert solved is None
    with pytest.raises(InputError):
        Solver([sparse(r) for r in rows + [rows[0]]])


class Unread:
    """A row that fails the test when elimination reads it."""

    def __getattr__(self, name):
        raise AssertionError("a row past the full span was read")

    def __iter__(self):
        raise AssertionError("a row past the full span was read")


def unimodular_rows(n, rng):
    """An integer basis of Z^n: 3n random moves row_i += +-row_j from the identity."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
    return rows


def test_a_span_reads_no_row_past_full_rank():
    # sl(3) is perfect: its brackets span it long before the last one
    L = rebase(build_sl_real(3), unimodular_rows(8, random.Random(3)))
    rows = list(L.brackets.values())
    k = next(k for k in range(len(rows) + 1)
             if dense_rank([dense(r, L.dim) for r in rows[:k]]) == L.dim)
    assert k < len(rows)
    assert sparse_span(L, rows[:k] + [Unread()] * (len(rows) - k)) == full_space(L)
    assert derived_subalgebra(L) == full_space(L)


# ---------------------------------------------------------------------------
# congruence diagonalization: inertia against Berkowitz + Descartes
# ---------------------------------------------------------------------------

def congruence_product(p, m):
    n = len(m)
    return [
        [sum(p[i][a] * m[a][b] * p[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]


def test_zero_pivot_with_cancelling_sum():
    # adding row 1 to row 0 gives the pivot -2 + 2*1 = 0; det = -1
    m = [[0, 1], [1, -2]]
    assert signature_of_symmetric(m) == (1, 1, 0) == descartes_inertia(m)


def random_zero_diagonal_symmetric(rng, n, zero_diagonal):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = F(rng.choice([0, 0, 1, -1, 2, -3]), rng.choice([1, 2]))
            m[i][j] = m[j][i] = x
    for i in zero_diagonal:
        m[i][i] = F(0)
    return m


@pytest.mark.parametrize("seed", range(40))
def test_congruence_diagonalizes_with_zero_diagonal(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    zeros = rng.sample(range(n), rng.randint(1, n))
    m = random_zero_diagonal_symmetric(rng, n, zeros)
    diag, p = congruence_diagonalize(m)
    prod = congruence_product(p, m)
    for i in range(n):
        for j in range(n):
            assert prod[i][j] == (diag[i] if i == j else 0)
    assert dense_rank(p) == n
    assert signature_of_symmetric(m) == descartes_inertia(m)


inertia_entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.integers(2**64, 2**70).map(lambda x: x if x % 2 else -x),
)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rational matrices up to 6 x 6: dense, zero-diagonal or rank-deficient."""
    n = draw(st.integers(0, 6))
    shape = draw(st.sampled_from(("dense", "zero-diagonal", "rank-deficient")))
    if shape == "rank-deficient" and n:
        # C^T S C with C of rank at most r < n
        r = draw(st.integers(0, n - 1))
        c = [[draw(inertia_entries) for _ in range(n)] for _ in range(r)]
        diag = [draw(inertia_entries) for _ in range(r)]
        return [
            [sum(c[t][i] * diag[t] * c[t][j] for t in range(r)) for j in range(n)]
            for i in range(n)
        ]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(inertia_entries)
    if shape == "zero-diagonal":
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else ():
            m[i][i] = 0
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example([])
@example([[0]])
@example([[F(-2, 3)]])
@example([[0, 0], [0, 0]])
@example([[0, 2**65], [2**65, 0]])
def test_fraction_free_inertia_matches_both_oracles(m):
    assert signature_of_symmetric(m) == descartes_inertia(m) == lagrange_inertia(m)


def test_inertia_rejects_a_non_square_matrix():
    with pytest.raises(InputError):
        signature_of_symmetric([[1, 0], [0]])


def test_killing_signature_zero_diagonal_bases():
    # sl(2) on (e, f - e, h) and sl(3) on (E_ab, E_ba - E_ab, H): zero Killing diagonal
    sl2_zd = rebase(sl2(), [(0, 1, 0), (0, -1, 1), (1, 0, 0)])
    assert killing_signature(sl2_zd) == (2, 1, 0)

    # build_sl_real(3) order: E01 E02 E10 E12 E20 E21 H0 H1
    def e(*entries):
        v = [0] * 8
        for k, x in entries:
            v[k] = x
        return tuple(v)

    rows = []
    for ab, ba in ((0, 2), (1, 4), (3, 5)):
        rows += [e((ab, 1)), e((ba, 1), (ab, -1))]
    rows += [e((6, 1)), e((7, 1))]
    assert killing_signature(rebase(build_sl_real(3), rows)) == (5, 3, 0)


@pytest.mark.parametrize("seed", range(6))
def test_killing_signature_invariant_under_unimodular_rebase(seed):
    # Sylvester's law of inertia: the signature cannot depend on the basis
    L = [sl2(), build_su(2, 1), build_sl_real(3)][seed % 3]
    rows = unimodular_rows(L.dim, random.Random(seed))
    assert killing_signature(rebase(L, rows)) == killing_signature(L)
