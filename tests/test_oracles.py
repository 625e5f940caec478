"""Subspaces cut out by linear conditions against independent dense oracles.

For every roster entry: the CR-normalizer and the CR subspace R of the
induced pair by dense solves over the full bracket table, quotient
algebras by brackets of coset representatives, and the Levi form
matrices from their definition.  The oracles live in tests/support.py and
share no code path with crkit.linalg's sparse core.  The fibration's
fiber is also compared with a second route through the library, the
quotient of the abstract algebra on j (support.oracle_fiber), and the
CR-normalizer, solved on the complement of h in g, with one kernel over
all of g (support.full_cr_normalizer).  The facts an orbit model takes
from proofs rather than loops are checked here by dense ranks and
brackets, and each catalog pair's complement of h in R and canonical J
against a second elimination and the projection of every unit vector
(support.oracle_complement, support.oracle_canonical_j).
"""

import pytest

from crkit.algebra import (
    derived_series,
    derived_subalgebra,
    normalizer_subalgebra,
    quotient_algebra,
    radical,
    read_off_structure,
    sparse_span,
)
from crkit.catalog import ROSTER, get_entry
from crkit.complexify import (
    anticanonical_fibration,
    cr_normalizer_algebra,
    induced_cr_pair,
    product_model,
)
from crkit.cr import levi_form
from crkit.linalg import Solver, dense, sparse

from .support import (
    complement_rows,
    dense_rank,
    full_cr_normalizer,
    levi_raw_form,
    oracle_bracket,
    oracle_canonical_j,
    oracle_complement,
    oracle_cr_normalizer,
    oracle_cr_subspace,
    oracle_fiber,
    oracle_quotient,
    realified_j,
    rebase,
)
from .test_golden import FAMILY_SWEEP


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
    solver = Solver([sparse(r) for r in rows])
    return moved, sparse_span(moved, [solver.solve(v) for v in ideal.echelon.values()])


def ideals(entry):
    """(algebra, ideal) pairs of an entry, each also rebased.

    The fiber's h in j; m, the radical and the derived algebra of g; the
    radical and the derived algebra of the realified isotropy algebra.
    """
    model = entry.model
    j = entry.fibration.normalizer
    j_sub, j_solver = read_off_structure(model.ambient_real, j.echelon.values())
    g = model.real_algebra
    g_solver = Solver(model.real_vectors)
    out = [
        (j_sub, sparse_span(j_sub, [j_solver.solve(v) for v in model.h.echelon.values()])),
        (g, sparse_span(g, [g_solver.solve(v) for v in model.m.echelon.values()])),
    ]
    iso, _ = read_off_structure(model.ambient_real, model.isotropy_real.echelon.values())
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


@pytest.mark.parametrize("name", ROSTER + FAMILY_SWEEP)
def test_fiber_matches_route_through_j(name):
    entry = get_entry(name)
    fib = entry.fibration
    assert fib.fiber_algebra == oracle_fiber(entry.model, fib.normalizer)


@pytest.mark.parametrize("name", ROSTER + FAMILY_SWEEP)
def test_cr_normalizer_on_g_mod_h_matches_kernel_over_g(name):
    model = get_entry(name).model
    assert cr_normalizer_algebra(model) == full_cr_normalizer(model)


def test_cr_normalizer_of_a_product_with_nonzero_h_matches_kernel_over_g():
    model = product_model(get_entry("quadric(2,1)").model, get_entry("heis_solv").model)
    assert model.h.dim == 5
    assert cr_normalizer_algebra(model) == full_cr_normalizer(model)


def test_nonabelian_fiber_over_nonzero_h_matches_route_through_j():
    # a quadric's h times heis_solv's fiber: h != 0 and j/h is not abelian
    model = product_model(get_entry("quadric(2,1)").model, get_entry("heis_solv").model)
    fib = anticanonical_fibration(model)
    assert model.h.dim == 5 and fib.normalizer.dim == 13
    assert [s.dim for s in derived_series(fib.fiber_algebra)] == [8, 2, 0]
    assert fib.fiber_algebra == oracle_fiber(model, fib.normalizer)


@pytest.mark.parametrize("name", ROSTER)
def test_levi_form_matrices_match_definition(name):
    # completed (lambda[x_i, J x_j] + lambda[x_j, J x_i]) / 2; the raw form
    # lambda[x_i, x_j] is read off them through J (support.levi_raw_form)
    pair = get_entry(name).cr_pair
    report = levi_form(pair)
    comp = complement_rows(pair)
    raw_form = levi_raw_form(pair)

    def lam(v):
        red = pair.r.reduce(sparse(v))
        return [red.get(c, 0) for c in report.value_indices]

    def apply_j(v):
        return dense(pair.apply_j(sparse(v)), pair.g.dim)

    for i, x in enumerate(comp):
        for j, y in enumerate(comp):
            raw = lam(oracle_bracket(pair.g, x, y))
            ij = lam(oracle_bracket(pair.g, x, apply_j(y)))
            ji = lam(oracle_bracket(pair.g, y, apply_j(x)))
            for c in range(report.value_dim):
                assert raw_form[c][i][j] == raw[c]
                assert report.completed_matrices[c][i][j] == (ij[c] + ji[c]) / 2


@pytest.mark.parametrize("name", sorted(set(ROSTER + FAMILY_SWEEP)))
def test_proved_model_facts_hold(name):
    # m = g ∩ Jg is a J-stable ideal of g, the CR-normalizer normalizes h,
    # and the codimension is dim ambient - dim(g + ĥ) >= 0: the library
    # derives each from checked facts without a loop of its own
    model = get_entry(name).model
    L = model.ambient_real
    m = [list(v) for v in model.m.rows]

    def in_m(v):
        return dense_rank(m + [list(v)]) == len(m)

    for v in model.m.rows:
        assert in_m(realified_j(v))
        assert all(in_m(oracle_bracket(L, x, v)) for x in model.real_rows)
    normalizer = normalizer_subalgebra(L, model.h)
    assert normalizer.contains_space(cr_normalizer_algebra(model))
    g_plus_iso = dense_rank(list(model.real_rows) + list(model.isotropy_real.rows))
    assert model.codim == L.dim - g_plus_iso >= 0


@pytest.mark.parametrize("name", sorted(set(ROSTER + FAMILY_SWEEP)))
def test_complement_and_canonical_j_match_the_unit_vector_oracles(name):
    # the complement and J's columns are read off R's echelon rows at its pivots
    pair = get_entry(name).cr_pair
    assert list(pair.complement.items()) == list(oracle_complement(pair).items())
    assert list(pair.j.items()) == list(oracle_canonical_j(pair).items())
