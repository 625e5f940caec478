"""Subspaces cut out by linear conditions against independent dense oracles.

For every roster entry: the CR-normalizer and the CR subspace R of the
induced pair by dense solves over the full bracket table, quotient
algebras by brackets of coset representatives, and the Levi form
matrices from their definition.  The oracles live in tests/support.py and
share no code path with crkit.linalg's sparse core.
"""

import pytest

from crkit.algebra import derived_subalgebra, quotient_algebra, radical, span, subalgebra_structure
from crkit.catalog import ROSTER, get_entry
from crkit.complexify import cr_normalizer_algebra, induced_cr_pair
from crkit.cr import levi_form
from crkit.linalg import Solver

from .support import (
    oracle_bracket,
    oracle_cr_normalizer,
    oracle_cr_subspace,
    oracle_quotient,
    rebase,
)


def rows_equal(rows, reference):
    return tuple(rows) == tuple(tuple(r) for r in reference)


@pytest.mark.parametrize("name", ROSTER)
def test_cr_normalizer_matches_dense_oracle(name):
    model = get_entry(name).model
    assert rows_equal(cr_normalizer_algebra(model).rows, oracle_cr_normalizer(model))


@pytest.mark.parametrize("name", ROSTER)
def test_cr_subspace_matches_dense_oracle(name):
    model = get_entry(name).model
    assert rows_equal(induced_cr_pair(model).r.rows, oracle_cr_subspace(model))


def rebased(L, ideal):
    """L and an ideal on the basis b_a = e_a + e_{a+1}.

    On that basis the ideal's echelon rows are nonzero off their pivots,
    so the quotient must reduce brackets mod the ideal before reading them.
    """
    rows = [tuple(int(i in (a, a + 1)) for i in range(L.dim)) for a in range(L.dim)]
    moved = rebase(L, rows)
    solver = Solver(rows)
    return moved, span(moved, [solver.solve(v) for v in ideal.rows])


def ideals(entry):
    """(algebra, ideal) pairs of an entry, each also rebased.

    The fiber's h in j; m, the radical and the derived algebra of g; the
    radical and the derived algebra of the realified isotropy algebra.
    """
    model = entry.model
    j = entry.fibration.normalizer
    j_sub, j_solver = subalgebra_structure(model.ambient_real, j)
    g = model.real_algebra
    g_solver = Solver(model.real_rows)
    out = [
        (j_sub, span(j_sub, [j_solver.solve(v) for v in model.h.rows])),
        (g, span(g, [g_solver.solve(v) for v in model.m.rows])),
    ]
    iso, _ = subalgebra_structure(model.ambient_real, model.isotropy_real)
    for L in (g, iso) if iso.dim else (g,):
        out += [(L, radical(L)), (L, derived_subalgebra(L))]
    return out + [rebased(L, ideal) for L, ideal in out]


@pytest.mark.parametrize("name", ROSTER)
def test_quotient_algebra_matches_coset_oracle(name):
    entry = get_entry(name)
    (j_sub, h_in_j), *rest = ideals(entry)
    fiber, _ = quotient_algebra(j_sub, h_in_j)
    assert fiber == oracle_quotient(j_sub, h_in_j) == entry.fibration.fiber_algebra
    for L, ideal in rest:
        assert quotient_algebra(L, ideal)[0] == oracle_quotient(L, ideal)


@pytest.mark.parametrize("name", ROSTER)
def test_levi_form_matrices_match_definition(name):
    # raw form lambda[x_i, x_j]; completed (lambda[x_i, J x_j] + lambda[x_j, J x_i]) / 2
    pair = get_entry(name).cr_pair
    report = levi_form(pair)
    comp = report.complement_rows

    def lam(v):
        red = pair.r.reduce(v)
        return [red[c] for c in report.value_indices]

    for i, x in enumerate(comp):
        for j, y in enumerate(comp):
            raw = lam(oracle_bracket(pair.g, x, y))
            ij = lam(oracle_bracket(pair.g, x, pair.apply_j(y)))
            ji = lam(oracle_bracket(pair.g, y, pair.apply_j(x)))
            for c in range(report.value_dim):
                assert report.form_matrices[c][i][j] == raw[c]
                assert report.completed_matrices[c][i][j] == (ij[c] + ji[c]) / 2
