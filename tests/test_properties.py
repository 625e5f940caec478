"""Structural properties checked on randomized exact data."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from crkit.algebra import (
    LieAlgebra,
    derived_series,
    heisenberg,
    is_subalgebra,
    killing_form,
    normalizer_subalgebra,
    quotient_algebra,
    radical,
    sl2,
    span,
    sparse_span,
    validate,
)
from crkit.catalog import build_sl_complex, build_su, catalog_entries, get_entry
from crkit.complexify import complex_generators, j_apply, realify
from crkit.cr import CRPair, check_cr_pair, cr_type, levi_form, levi_signature
from crkit.globalize import condition_c_check
from crkit.linalg import Solver, dense, sparse
from crkit.scalars import QQ, GaussianRational as G

from .support import (
    build_sl_real,
    complex_rows_realified,
    complexify_algebra,
    dense_bracket,
    dense_solve,
    form_value,
    levi_raw_form,
    oracle_bracket,
    random_solvable,
    rebase,
)

ALGEBRAS = [sl2(), heisenberg(), build_su(2, 1), build_sl_real(3)]

coeffs = st.integers(min_value=-4, max_value=4)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_bracket_bilinear_and_antisymmetric(data):
    L = data.draw(st.sampled_from(ALGEBRAS))
    x = tuple(data.draw(coeffs) for _ in range(L.dim))
    y = tuple(data.draw(coeffs) for _ in range(L.dim))
    z = tuple(data.draw(coeffs) for _ in range(L.dim))
    a = data.draw(coeffs)
    xy = dense_bracket(L, x, y)
    assert xy == tuple(-v for v in dense_bracket(L, y, x))
    lin = dense_bracket(L, tuple(a * xi + zi for xi, zi in zip(x, z)), y)
    expect = tuple(a * u + w for u, w in zip(xy, dense_bracket(L, z, y)))
    assert lin == expect


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_jacobi_on_random_vectors(data):
    L = data.draw(st.sampled_from(ALGEBRAS))
    x, y, z = (tuple(data.draw(coeffs) for _ in range(L.dim)) for _ in range(3))
    total = [0] * L.dim
    for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
        v = dense_bracket(L, dense_bracket(L, a, b), c)
        total = [t + w for t, w in zip(total, v)]
    assert not any(total)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_killing_invariance_property(data):
    L = data.draw(st.sampled_from(ALGEBRAS))
    k = killing_form(L)
    x, y, z = (tuple(data.draw(coeffs) for _ in range(L.dim)) for _ in range(3))
    assert form_value(k, dense_bracket(L, z, x), y) + form_value(k, x, dense_bracket(L, z, y)) == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
def test_random_solvable_radical_is_everything(n, seed):
    rng = random.Random(seed)
    L = random_solvable(rng, n)
    assert validate(L).ok
    r = radical(L)
    assert r.dim == L.dim
    assert derived_series(L)[-1].dim == 0


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_normalizer_contains_any_subalgebra(data):
    L = data.draw(st.sampled_from(ALGEBRAS))
    # random elements generate a subalgebra via closure
    from crkit.algebra import subalgebra_closure

    vecs = [tuple(data.draw(coeffs) for _ in range(L.dim)) for _ in range(2)]
    s = subalgebra_closure(L, span(L, vecs))
    assert is_subalgebra(L, s)
    n = normalizer_subalgebra(L, s)
    assert n.contains_space(s)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_quotient_by_derived_validates(seed):
    rng = random.Random(seed)
    L = random_solvable(rng, 4)
    from crkit.algebra import derived_subalgebra

    d = derived_subalgebra(L)
    q, _ = quotient_algebra(L, d)
    assert validate(q).ok


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=60), max_size=4),
    st.lists(st.integers(min_value=2, max_value=60), max_size=4),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
def test_condition_c_fail_iff_rank_drop(t1, t2, r1, r2):
    result = condition_c_check((r1, tuple(t1)), (r2, tuple(t2)))
    assert (result == "fail") == (r1 < r2)


# ---------------------------------------------------------------------------
# cross-module invariants on the catalog
# ---------------------------------------------------------------------------

def test_catalog_models_m_is_ideal_and_j_stable():
    for e in catalog_entries():
        model = e.model
        m = model.m
        for v in m.echelon.values():
            assert m.contains(j_apply(v, model.ambient.dim))
        for x in model.real_sub.echelon.values():
            for v in m.echelon.values():
                assert m.contains(model.ambient_real.bracket(x, v))


def test_catalog_ncr_between_h_and_normalizer():
    # recompute the sandwich h <= n_cr <= n(h) for a few entries directly
    from crkit.complexify import cr_normalizer_algebra

    for name in ("quadric(2,1)", "sl2_uz", "su2xsu2_torus", "heis_solv"):
        e = get_entry(name)
        ncr = cr_normalizer_algebra(e.model)
        assert ncr.contains_space(e.model.h)


def test_catalog_levi_raw_antisymmetry():
    for name in ("quadric(2,1)", "su2xs1_hopf", "twisted(1)"):
        e = get_entry(name)
        for mat in levi_raw_form(e.cr_pair):
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == -mat[j][i]


def test_catalog_cr_type_matches_codim():
    from crkit.cr import cr_type

    for e in catalog_entries():
        t = cr_type(e.cr_pair)
        assert t.k == e.model.codim
        assert t.k + 2 * t.l == t.n


def test_levi_kernel_equals_joint_codirection_radical():
    from crkit.linalg import echelon, intersect_spaces, left_nullspace, sparse

    for name in ("quadric(2,2)", "su2xsu2_torus"):
        e = get_entry(name)
        rep = levi_form(e.cr_pair)
        radicals = None
        for mat in rep.completed_matrices:
            rad = left_nullspace([sparse(row) for row in mat])
            radicals = rad if radicals is None else tuple(
                intersect_spaces(radicals, echelon(rad)).values())
        dim = len(radicals) if radicals else 0
        assert rep.kernel.dim == dim


# ---------------------------------------------------------------------------
# basis invariance of the Levi signature
# ---------------------------------------------------------------------------

def rebase_pair(pair, rows):
    """The pair on the basis b_a = sum_i rows[a][i] e_i, with h, R and J carried along."""
    g = rebase(pair.g, rows)
    solver = Solver([sparse(row) for row in rows])  # old coordinates x = y . rows -> new y
    h = span(g, [dense_solve(solver, v) for v in pair.h.rows])
    r = span(g, [dense_solve(solver, v) for v in pair.r.rows])
    j = {a: solver.solve(pair.apply_j(sparse(row))) for a, row in enumerate(rows)}
    return CRPair(g, h, r, j)


def levi_invariants(pair):
    """Orientation-free Levi signature (default codirection), CR type and axiom verdict."""
    t = cr_type(pair)
    return levi_signature(pair).normalized, (t.n, t.l, t.k), check_cr_pair(pair).ok


LEVI_ENTRIES = ("quadric(2,1)", "quadric(3,1)", "sp_quadric(1,1)")


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_levi_signature_invariant_under_unimodular_rebase(data):
    # Sylvester's law of inertia, for the Levi form of a codimension-one pair:
    # its value space is a line, so the default codirection is the same up to sign
    pair = get_entry(data.draw(st.sampled_from(LEVI_ENTRIES))).cr_pair
    n = pair.g.dim
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rng = data.draw(st.randoms(use_true_random=False))
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        sgn = rng.choice((1, -1))
        rows[i] = [a + sgn * b for a, b in zip(rows[i], rows[j])]
    moved = rebase_pair(pair, [tuple(r) for r in rows])
    assert levi_invariants(moved) == levi_invariants(pair)


# ---------------------------------------------------------------------------
# the sparse bracket and closure on complex generators
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def bilinear_tables(draw):
    """A random antisymmetric bracket table; Jacobi is not needed to test evaluation."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = {}
    for key in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        brackets[key] = {k: draw(small) for k in draw(st.sets(st.integers(0, n - 1)))}
    return LieAlgebra(n, QQ, [f"e{k}" for k in range(n)], brackets)


@st.composite
def sparse_with_zeros(draw, n):
    """A vector with zero entries, as a dense tuple and as a dict that may keep some zeros."""
    dense_v = tuple(draw(st.sampled_from([0, 0, 1, -2])) * draw(small) for _ in range(n))
    kept = {c: x for c, x in enumerate(dense_v) if x or draw(st.booleans())}
    return dense_v, kept


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_bracket_matches_dense_oracle(data):
    L = data.draw(bilinear_tables())
    x, xs = data.draw(sparse_with_zeros(L.dim))
    y, ys = data.draw(sparse_with_zeros(L.dim))
    out = L.bracket(xs, ys)
    assert all(out.values()), "the result holds nonzero entries only"
    assert dense(out, L.dim) == oracle_bracket(L, x, y)
    assert L.bracket(ys, xs) == {k: -v for k, v in out.items()}
    assert L.bracket({}, ys) == L.bracket(xs, {}) == {}


def _closed_both_ways(L, sub):
    full = is_subalgebra(L, sub)
    assert is_subalgebra(L, sub, complex_generators(sub)) == full
    return full


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_on_complex_generators_matches_full_check(data):
    # J-stable spans in realified sl(3, C): coordinate spans (some closed,
    # e.g. Borel subalgebras) and random complex rows with nonreal entries
    ambient = build_sl_complex(3)
    L = realify(ambient)
    n = ambient.dim
    basis = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    rows = [tuple(G(int(k == b)) for k in range(n)) for b in sorted(basis)]
    for _ in range(data.draw(st.integers(0, 2))):
        rows.append(tuple(G(data.draw(small), data.draw(small)) for _ in range(n)))
    sub = span(L, complex_rows_realified(rows))
    gens = complex_generators(sub)
    # the generators span the subspace over C, with at most two per complex dimension
    assert sparse_span(L, [*gens, *(j_apply(v, n) for v in gens)]) == sub
    assert sub.dim // 2 <= len(gens) <= sub.dim
    _closed_both_ways(L, sub)


def test_closure_on_complex_generators_known_cases():
    L = realify(complexify_algebra(sl2()))
    borel = span(L, complex_rows_realified([(G(1), G(0), G(0)), (G(0), G(1), G(0))]))
    assert _closed_both_ways(L, borel)
    ef = span(L, complex_rows_realified([(G(0), G(1), G(0)), (G(0), G(0), G(1))]))
    assert not _closed_both_ways(L, ef)
    # a nonreal line: e + i f spans a non-closed complex plane with h
    twisted = span(L, complex_rows_realified([(G(1), G(0), G(0)), (G(0), G(1), G(0, 1))]))
    assert not _closed_both_ways(L, twisted)
