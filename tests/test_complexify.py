import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crkit import linalg
from crkit.algebra import (
    LieAlgebra,
    abelian,
    derived_series,
    direct_sum,
    heisenberg,
    killing_form,
    lower_central_series,
    pivot_complement,
    radical,
    sl2,
    span,
    validate,
)
from crkit.catalog import ROSTER, build_su, get_entry
from crkit.complexify import (
    OrbitModel,
    anticanonical_fibration,
    canonical_complex_rows,
    cr_normalizer_algebra,
    fiber_globalization_check,
    induced_cr_pair,
    j_apply,
    product_model,
    realify,
)
from crkit.cr import check_cr_pair
from crkit.errors import InputError, StructureError
from crkit.linalg import dense, sparse, vec_sub
from crkit.scalars import QI, GaussianRational

from .support import (
    apply_complex_matrix_to_model,
    basis_vector,
    basis_vectors,
    build_sl_complex_as_real,
    build_sl_real,
    build_sp,
    complex_rows_realified,
    complex_to_real,
    complex_vector,
    complexify_algebra,
    dense_bracket,
    dense_rank,
    dense_rref,
    greedy_induced_pair,
    greedy_real_basis,
    nilpotent_automorphism,
    nonreal_exp_ad,
    oracle_bracket,
)
from .test_golden import FAMILY_SWEEP

F = Fraction
G = GaussianRational


def gz(*vals):
    return tuple(G(v) for v in vals)


# ---------------------------------------------------------------------------
# complexification / realification
# ---------------------------------------------------------------------------

def test_complexify_abelian():
    g_hat = complexify_algebra(abelian(2))
    assert g_hat.dim == 2 and g_hat.field == QI
    assert not g_hat.brackets
    assert realify(g_hat).dim == 4


def test_complexify_rejects_complex_input():
    with pytest.raises(InputError):
        complexify_algebra(complexify_algebra(abelian(1)))


def test_complexify_sl2_killing_scales_consistently():
    L = sl2()
    k_real = killing_form(L)
    k_cplx = killing_form(complexify_algebra(L))
    for i in range(3):
        for j in range(3):
            assert k_cplx[i][j] == G(k_real[i][j])


def test_complexify_heisenberg_preserves_series_lengths():
    L = heisenberg()
    assert len(derived_series(L)) == len(derived_series(complexify_algebra(L)))


def test_realified_brackets():
    r = realify(complexify_algebra(sl2()))
    assert validate(r).ok
    # [e_h, i e_e] = i [h, e] = 2 i e
    h = basis_vector(r, 0)
    ie = basis_vector(r, 4)
    out = dense_bracket(r, h, ie)
    assert out == (F(0), F(0), F(0), F(0), F(2), F(0))
    # [i e_e, i e_f] = -[e, f] = -h
    assert dense_bracket(r, basis_vector(r, 4), basis_vector(r, 5))[0] == F(-1)


def test_realify_roundtrip_coordinates():
    z = (G(1), G(2, -3))
    v = complex_to_real(z)
    assert v == (1, 2, 0, -3)
    assert j_apply(sparse(v), 2) == sparse(complex_to_real(tuple(G(0, 1) * c for c in z)))
    # the output edge reads the complex row back off its realified span
    amb = realify(complexify_algebra(abelian(2)))
    assert canonical_complex_rows(span(amb, complex_rows_realified([z]))) == (z,)


def test_realify_does_not_keep_its_argument_alive():
    L = complexify_algebra(heisenberg())
    real = realify(L)
    assert realify(L) is real
    ref = weakref.ref(L)
    del L
    gc.collect()
    assert ref() is None
    assert real.dim == 6


def test_double_complexification_doubles_radical_dimension():
    # realify then complexify: dimension doubles; radical dimension doubles
    for L in (sl2(), heisenberg()):
        re = realify(complexify_algebra(L))
        again = complexify_algebra(re)
        assert again.dim == 2 * L.dim
        assert radical(again).dim == 2 * radical(L).dim


small_gaussians = st.builds(G, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def complex_tensors(draw):
    """Q(i) algebras of dimension 2..4 with sparse random (mostly nonreal) constants.

    Most fail Jacobi, which is what the witness comparison needs; a
    diagonal action with Gaussian weights (always a Lie algebra) is mixed in.
    """
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        weights = [draw(small_gaussians) for _ in range(n - 1)]
        brackets = {(0, k): {k: w} for k, w in enumerate(weights, 1)}
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        brackets = {
            key: draw(st.dictionaries(st.integers(0, n - 1), small_gaussians, max_size=2))
            for key in draw(st.lists(st.sampled_from(pairs), unique=True))
        }
    return LieAlgebra(n, QI, [f"e{k}" for k in range(n)], brackets)


def complex_jacobi_witness(L):
    """First basis triple failing Jacobi, by dense brackets over Q(i)."""
    e = basis_vectors(L)

    def br(x, y):
        return oracle_bracket(L, x, y)

    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                a, b, c = e[i], e[j], e[k]
                terms = (br(br(a, b), c), br(br(b, c), a), br(br(c, a), b))
                if any(x + y + z for x, y, z in zip(*terms)):
                    return (i, j, k)
    return None


@settings(max_examples=60, deadline=None)
@given(complex_tensors())
def test_complex_analyses_run_on_the_realification(L):
    # validate reads the realification; the series and the radical over Q(i)
    # are the reference for the realified ones, which have twice the dimension
    assert validate(L).by_name("jacobi").witness == complex_jacobi_witness(L)
    R = realify(L)
    for series in (derived_series, lower_central_series):
        assert [s.dim for s in series(R)] == [2 * s.dim for s in series(L)]
    assert radical(R).dim == 2 * radical(L).dim


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonical_complex_rows_match_complex_rref(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(st.tuples(*[small_gaussians] * n), max_size=4))
    ambient = realify(complexify_algebra(abelian(n)))
    sub = span(ambient, complex_rows_realified(rows))
    assert canonical_complex_rows(sub) == tuple(tuple(r) for r in dense_rref(rows)[0])


# ---------------------------------------------------------------------------
# orbit model fixtures
# ---------------------------------------------------------------------------

def su2_rows():
    """su(2) inside realified sl2(C): i*h, e - f, i*(e + f)."""
    return [
        (F(0),) * 3 + (F(1), F(0), F(0)),
        (F(0), F(1), F(-1), F(0), F(0), F(0)),
        (F(0),) * 4 + (F(1), F(1)),
    ]


def su2_model():
    ambient = complexify_algebra(sl2())
    return OrbitModel(ambient, [sparse(r) for r in su2_rows()], [], name="su2-in-sl2")


def full_sl2_model(iso_rows):
    """sl2(C) as a real algebra, with the complex isotropy rows given, realified."""
    ambient = complexify_algebra(sl2())
    real = realify(ambient)
    rows = [basis_vector(real, k) for k in range(6)]
    iso = [sparse(complex_to_real(z)) for z in iso_rows]
    return OrbitModel(ambient, [sparse(r) for r in rows], iso)


def circle_model():
    """S^1 inside C^*: one-dimensional abelian ambient, real line i R."""
    ambient = abelian(1, field=QI)
    return OrbitModel(ambient, [sparse((F(0), F(1)))], [], name="circle")


def mixed_model():
    """(complex sl2) + (real line) inside sl2(C) + C."""
    ambient = direct_sum(complexify_algebra(sl2()), abelian(1, field=QI))
    real = realify(ambient)
    rows = []
    for k in (0, 1, 2):          # sl2 real directions
        rows.append(basis_vector(real, k))
    for k in (4, 5, 6):          # sl2 imaginary directions
        rows.append(basis_vector(real, k))
    rows.append(basis_vector(real, 3))  # the real line in the C factor
    return OrbitModel(ambient, [sparse(r) for r in rows], [], name="mixed")


# ---------------------------------------------------------------------------
# maximal complex ideal
# ---------------------------------------------------------------------------

def test_m_zero_for_real_form():
    model = su2_model()
    assert model.m.dim == 0
    # totally real 3-dim orbit in a 3-complex-dimensional ambient
    assert model.codim == 3


def test_m_everything_for_complex_g():
    model = full_sl2_model([])
    assert model.m.dim == 6


def test_m_mixed_case_is_sl2_summand():
    model = mixed_model()
    m = model.m
    assert m.dim == 6
    # the C-factor directions are not in m
    assert not m.contains({3: 1})
    assert not m.contains({7: 1})


def test_genericity_violation_rejected():
    ambient = complexify_algebra(abelian(2))
    with pytest.raises(StructureError, match="real subalgebra is not generic: g \\+ Jg is proper"):
        OrbitModel(ambient, [sparse((F(1), F(0), F(0), F(0)))], [])


def non_closed_isotropy():
    """The realified rows of e and f in sl2(C): their span is not closed, [e, f] = h."""
    return [sparse(complex_to_real(gz(0, 1, 0))), sparse(complex_to_real(gz(0, 0, 1)))]


def test_non_subalgebra_isotropy_rejected():
    ambient = complexify_algebra(sl2())
    real = realify(ambient)
    rows = [basis_vector(real, k) for k in range(6)]
    with pytest.raises(StructureError, match="isotropy rows are not a complex subalgebra"):
        OrbitModel(ambient, [sparse(r) for r in rows], non_closed_isotropy())


@pytest.mark.parametrize("extra", ["duplicate", "zero"])
def test_dependent_real_rows_rejected(extra):
    # the library constructor, not the file loader, which checks the rank itself
    ambient = complexify_algebra(sl2())
    rows = [sparse(basis_vector(realify(ambient), k)) for k in range(6)]
    rows.append(dict(rows[2]) if extra == "duplicate" else {})
    with pytest.raises(InputError, match="^real basis rows are linearly dependent$"):
        OrbitModel(ambient, rows, [])
    # the real rows are read off before the isotropy: their dependence wins
    with pytest.raises(InputError, match="^real basis rows are linearly dependent$"):
        OrbitModel(ambient, rows, non_closed_isotropy())


def non_closed_generic_rows():
    """h, e and f + i h in realified sl2(C): g + Jg is everything, [h, f + i h] = -2f is not in g."""
    return [
        (F(1), F(0), F(0), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0), F(0), F(0)),
        (F(0), F(0), F(1), F(1), F(0), F(0)),
    ]


def test_non_closed_real_rows_rejected():
    ambient = complexify_algebra(sl2())
    rows = [sparse(r) for r in non_closed_generic_rows()]
    with pytest.raises(StructureError, match="real rows are not a subalgebra"):
        OrbitModel(ambient, rows, [])
    # the real rows are read off before the isotropy: their error wins
    with pytest.raises(StructureError, match="real rows are not a subalgebra"):
        OrbitModel(ambient, rows, non_closed_isotropy())


@pytest.mark.parametrize("name", ["quadric(2,1)", "sp_quadric(1,1)", "twisted(2)", "heis_solv"])
def test_each_basis_is_eliminated_once(monkeypatch, name):
    # the model: the real rows (its read-off Solver) and ĥ once each, and
    # h = g ∩ ĥ and m = g ∩ Jg two each (relations, then their span), m on
    # the rows of Jg as they come; an empty ĥ makes h without an elimination
    entry = get_entry(name).model
    calls = []
    core = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *args: calls.append(1) or core(*args))
    model = OrbitModel(entry.ambient, entry.real_vectors, entry.isotropy_generators)
    assert len(calls) == (6 if entry.isotropy_real.dim else 4)
    # the pair: g + ĥ (its Solver), R's kernel two, h in g's coordinates one
    calls.clear()
    induced_cr_pair(model)
    assert len(calls) == 4


@pytest.mark.parametrize("name", ["quadric(2,1)", "sp_quadric(1,1)", "twisted(2)", "heis_solv"])
def test_intersections_eliminate_only_the_rows_of_g(monkeypatch, name):
    # m = g ∩ Jg and h = g ∩ ĥ reduce the rows of Jg and g against the
    # echelon forms of g and ĥ in hand, so each tagged elimination of the
    # model (its read-off Solver, then m, then h) takes dim g rows, never
    # dim g + dim ĥ; an empty ĥ makes h without one
    entry = get_entry(name).model
    sizes = []
    core = linalg._tagged_echelon
    monkeypatch.setattr(linalg, "_tagged_echelon", lambda rows: sizes.append(len(rows)) or core(rows))
    model = OrbitModel(entry.ambient, entry.real_vectors, entry.isotropy_generators)
    assert sizes == [model.real_sub.dim] * (3 if model.isotropy_real.dim else 2)


# the real algebra of each catalog entry as its matrix model gives it, by
# the entry name's prefix; the catalog builds the entry from the rows alone
MATRIX_MODELS = {
    "quadric": build_su,
    "sp_quadric": build_sp,
    "twisted": lambda n: build_sl_complex_as_real(n + 1),
    "p2r": lambda: build_sl_real(3),
    "su2xsu2_torus": lambda: direct_sum(build_su(2, 0), build_su(2, 0)),
    "su2xs1_hopf": lambda: direct_sum(build_su(2, 0), abelian(1)),
    "sl2_uz": lambda: direct_sum(build_su(2, 0), abelian(1)),
    "heis_solv": lambda: direct_sum(realify(heisenberg(field=QI)), abelian(2)),
    "c2_torus": lambda: abelian(4),
}


@pytest.mark.parametrize("name", sorted(set(ROSTER + FAMILY_SWEEP)))
def test_real_algebra_is_the_matrix_model_algebra(name):
    # the constants read off the real rows, pair by pair, are the matrix
    # model's: the rows are aligned with the matrix basis in its order
    entry = get_entry(name)
    expected = MATRIX_MODELS[name.split("(")[0]](*entry.params)
    assert entry.model.real_algebra == expected


# ---------------------------------------------------------------------------
# CR normalizer and fibration
# ---------------------------------------------------------------------------

def test_normalizer_discrete_isotropy_is_everything():
    model = circle_model()
    ncr = cr_normalizer_algebra(model)
    assert ncr == model.real_sub
    rep = anticanonical_fibration(model)
    assert rep.degenerate
    assert rep.base_dim == 0
    assert rep.fiber_dim == 1
    assert rep.isotropy_discrete_proxy is True
    assert rep.h_dim == 0 and rep.caveats


def test_normalizer_of_borel_is_borel():
    model = full_sl2_model([gz(1, 0, 0), gz(0, 1, 0)])  # borel span(h, e)
    ncr = cr_normalizer_algebra(model)
    assert ncr.dim == 4
    assert ncr == model.isotropy_real
    rep = anticanonical_fibration(model)
    assert not rep.degenerate
    assert rep.base_dim == 2
    assert rep.fiber_dim == 0  # j = h here


# ---------------------------------------------------------------------------
# fiber globalization facts
# ---------------------------------------------------------------------------

def heis_solv_model():
    """Realified complex Heisenberg plus a real 2-torus direction pair."""
    from crkit.algebra import direct_sum

    ambient = direct_sum(heisenberg(field=QI), abelian(2, field=QI))
    real = realify(ambient)
    rows = []
    for k in (0, 1, 2):
        rows.append(basis_vector(real, k))      # heis real parts
    for k in (5, 6, 7):
        rows.append(basis_vector(real, k))      # heis imaginary parts
    rows.append(basis_vector(real, 3))          # first C factor: real line
    rows.append(basis_vector(real, 9))          # second C factor: i R line
    return OrbitModel(ambient, [sparse(r) for r in rows], [], name="heis-solv")


def test_fiber_globalization_heis_solvmanifold():
    model = heis_solv_model()
    assert model.codim == 2
    rep = fiber_globalization_check(model)
    assert rep.ok
    assert rep.by_name("codim-at-most-2").ok
    assert rep.by_name("ambient-dim-bound").ok
    assert rep.by_name("semisimple-part-in-m").ok
    assert rep.by_name("radical-alignment").ok


def test_fiber_globalization_complex_g_trivial():
    model = full_sl2_model([])
    rep = fiber_globalization_check(model)
    assert rep.ok


def test_fiber_globalization_violation_detected():
    # su(2) real form of sl2(C): m = 0, dim_C ambient = 3 > 0 + 2
    rep = fiber_globalization_check(su2_model())
    assert not rep.by_name("ambient-dim-bound").ok


def test_fiber_globalization_requires_degenerate():
    model = full_sl2_model([gz(1, 0, 0), gz(0, 1, 0)])
    with pytest.raises(StructureError):
        fiber_globalization_check(model)


# ---------------------------------------------------------------------------
# induced CR pair, products, perturbations
# ---------------------------------------------------------------------------

def test_induced_pair_on_circle_model():
    pair = induced_cr_pair(circle_model())
    rep = check_cr_pair(pair)
    assert rep.ok


def test_induced_pair_on_mixed_model():
    pair = induced_cr_pair(mixed_model())
    assert check_cr_pair(pair).ok
    from crkit.cr import cr_type

    t = cr_type(pair)
    assert t.n == 7 and t.l == 3 and t.k == 1


@pytest.mark.parametrize("name", ["quadric(3,2)", "twisted(2)"])
def test_isotropy_rows_off_h_extend_g_to_a_basis_of_g_plus_isotropy(name):
    model = get_entry(name).model
    n = model.ambient_real.dim
    extra = [dense(v, n) for v in pivot_complement(model.isotropy_real, model.h).values()]
    rows = [*model.real_rows, *extra]
    assert extra and model.h.dim
    assert dense_rank(rows) == len(rows) == len(greedy_real_basis(model))


@pytest.mark.parametrize("name", ["quadric(3,2)", "twisted(2)"])
def test_induced_j_matches_the_greedy_extension(name):
    model = get_entry(name).model
    pair, greedy = induced_cr_pair(model), greedy_induced_pair(model)
    assert pair == greedy and pair.complement == greedy.complement
    # the raw Js may differ, by an h-valued map only
    for a in pair.r.pivots:
        diff = vec_sub(pair.j_raw.get(a, {}), greedy.j_raw.get(a, {}))
        assert pair.h.contains(diff)


def test_product_model_codim_additive():
    a = circle_model()
    b = heis_solv_model()
    prod = product_model(a, b)
    assert prod.codim == a.codim + b.codim
    assert prod.m.dim == a.m.dim + b.m.dim


def test_nilpotent_automorphism_preserves_model():
    ambient = complexify_algebra(sl2())
    x = gz(0, 1, 0)  # ad e is nilpotent
    mat = nilpotent_automorphism(ambient, x)
    model = su2_model()
    moved = apply_complex_matrix_to_model(model, mat)
    assert moved.codim == model.codim
    assert moved.m.dim == model.m.dim


def complex_echelon(rows):
    return tuple(tuple(r) for r in dense_rref(rows)[0])


@pytest.mark.parametrize("name", ["quadric(2,1)", "sp_quadric(1,1)", "twisted(1)"])
def test_transport_matches_complex_matrix_action(name):
    # reference: the matrix applied to complex vectors over Q(i)
    model = get_entry(name).model
    mat = nonreal_exp_ad(model.ambient)
    moved = apply_complex_matrix_to_model(model, mat)

    def act(z):
        return [sum((m * c for m, c in zip(row, z)), G(0)) for row in mat]

    assert moved.isotropy_rows == complex_echelon([act(z) for z in model.isotropy_rows])
    assert any(isinstance(x, G) for row in moved.isotropy_rows for x in row)
    assert list(moved.real_rows) == [
        complex_to_real(act(complex_vector(v))) for v in model.real_rows
    ]


def test_product_model_isotropy_is_block_diagonal():
    a = get_entry("quadric(1,1)").model
    a = apply_complex_matrix_to_model(a, nonreal_exp_ad(a.ambient))
    b = get_entry("sl2_uz").model
    na, nb = a.ambient.dim, b.ambient.dim
    prod = product_model(a, b)
    blocks = [tuple(z) + (0,) * nb for z in a.isotropy_rows]
    blocks += [(0,) * na + tuple(z) for z in b.isotropy_rows]
    assert prod.isotropy_rows == complex_echelon(blocks)
    assert dims_of(prod) == tuple(x + y for x, y in zip(dims_of(a), dims_of(b)))


def dims_of(model):
    return model.codim, model.h.dim, model.m.dim


def test_nilpotent_automorphism_rejects_semisimple():
    ambient = complexify_algebra(sl2())
    with pytest.raises(InputError):
        nilpotent_automorphism(ambient, gz(1, 0, 0))  # ad h not nilpotent
