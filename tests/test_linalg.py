from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crkit.errors import InputError
from crkit.linalg import (
    Solver,
    dense,
    echelon,
    echelon_rows,
    intersect_spaces,
    kernel_rows,
    left_nullspace,
    reduce_mod,
    signature_of_symmetric,
    sparse,
)
from crkit.scalars import GaussianRational

from .support import congruence_diagonalize, core_rref, dense_rank

F = Fraction


def rows(*data):
    return tuple(tuple(F(x) for x in r) for r in data)


small_fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def matrix_strategy(nrows, ncols):
    return st.lists(
        st.lists(small_fracs, min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


def test_rref_known():
    reduced, pivots = core_rref(rows((0, 2, 4), (1, 1, 1)), 3)
    assert reduced == rows((1, 0, -1), (0, 1, 2))
    assert pivots == (0, 1)


def test_rref_gaussian_field():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    reduced, pivots = core_rref([(i, one), (one, -i)], 2)
    # second row is -i times the first: rank one
    assert len(reduced) == 1
    assert pivots == (0,)
    assert reduced[0] == (one, -i)


@settings(max_examples=60)
@given(matrix_strategy(3, 4))
def test_rref_idempotent_and_span_preserving(m):
    reduced, pivots = core_rref(m, len(m[0]))
    again, pivots2 = core_rref(reduced, len(m[0]))
    assert reduced == again and pivots == pivots2
    view = echelon(map(sparse, reduced))
    for row in m:
        assert not reduce_mod(sparse(row), view)


def test_left_nullspace_relations():
    m = rows((1, 0), (0, 1), (1, 1))
    ns = left_nullspace([sparse(r) for r in m])
    assert len(ns) == 1
    x = dense(ns[0], 3)
    combo = [sum(x[i] * m[i][c] for i in range(3)) for c in range(2)]
    assert all(v == 0 for v in combo)


def test_intersection():
    a = rows((1, 0, 0), (0, 1, 0))
    b = rows((0, 1, 0), (0, 0, 1))
    assert intersect_spaces(map(sparse, a), echelon(map(sparse, b))) == {1: {1: 1}}
    assert intersect_spaces(map(sparse, rows((1, 0))), echelon(map(sparse, rows((0, 1))))) == {}


@settings(max_examples=40)
@given(matrix_strategy(2, 4), matrix_strategy(2, 4))
def test_intersection_is_contained_in_both(a, b):
    inter, pivots = echelon_rows(intersect_spaces(map(sparse, a), echelon(map(sparse, b))), 4)
    assert (inter, pivots) == core_rref(inter, 4)
    va = echelon(map(sparse, a))
    vb = echelon(map(sparse, b))
    for v in inter:
        assert not reduce_mod(sparse(v), va) and not reduce_mod(sparse(v), vb)
    ra, rb = va.values(), vb.values()
    # dimension formula: dim(a) + dim(b) = dim(a+b) + dim(a ∩ b)
    assert len(ra) + len(rb) == dense_rank(list(a) + list(b)) + len(inter)


def test_solver_roundtrip():
    basis = rows((1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 0, 5))
    s = Solver([sparse(r) for r in basis])
    x = (F(3), F(-2), F(7))
    v = tuple(sum(x[i] * basis[i][c] for i in range(3)) for c in range(4))
    assert s.solve(sparse(v)) == sparse(x)
    assert s.solve({2: F(1)}) is None


def test_solver_rejects_dependent_rows():
    with pytest.raises(InputError):
        Solver([sparse(r) for r in rows((1, 1), (2, 2))])


def test_kernel_rows_cuts_plane():
    # inside Q^3, the plane x0 = x2 cut out by the image v0 - v2
    domain = rows((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sol, _ = echelon_rows(
        kernel_rows([sparse(v) for v in domain], [[sparse((v[0] - v[2],))] for v in domain]), 3
    )
    assert kernel_rows([], []) == {}
    assert len(sol) == 2
    for v in sol:
        assert v[0] == v[2]


def test_congruence_diagonalize_and_signature():
    m = rows((0, 1), (1, 0))  # hyperbolic plane: signature (1, 1)
    diag, p = congruence_diagonalize(m)
    assert signature_of_symmetric(m) == (1, 1, 0)
    # transform really diagonalizes
    n = 2
    prod = [
        [sum(p[i][a] * m[a][b] * p[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    assert prod[0][1] == 0 and prod[1][0] == 0
    assert (prod[0][0], prod[1][1]) == diag


@settings(max_examples=40)
@given(matrix_strategy(3, 3), matrix_strategy(3, 3))
def test_signature_congruence_invariant(sym_seed, a):
    # build a symmetric matrix and a (probably) invertible transform
    s = [[sym_seed[i][j] + sym_seed[j][i] for j in range(3)] for i in range(3)]
    if dense_rank(a) != 3:
        return
    transformed = [
        [
            sum(a[i][k] * s[k][l] * a[j][l] for k in range(3) for l in range(3))
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert signature_of_symmetric(s) == signature_of_symmetric(transformed)

