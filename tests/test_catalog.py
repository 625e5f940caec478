from fractions import Fraction

import pytest

from crkit.algebra import (
    abelian,
    direct_sum,
    heisenberg,
    is_solvable,
    killing_signature,
    radical,
    sl2,
    validate,
)
from crkit.catalog import (
    MAX_AMBIENT_DIM,
    _FAMILIES,
    Expected,
    _algebra_from_matrices,
    TaxonContext,
    TAXONOMY_TAGS,
    build_sl_complex,
    build_sp_complex,
    build_su,
    catalog_entries,
    classify_fiber,
    coordinate_read_off,
    get_entry,
    line_stabilizer_rows,
    quadric_orbit,
    real_projective_orbit,
    sl_basis_matrices,
    sp_complex_basis_matrices,
    sp_quadric_orbit,
    sp_real_basis_matrices,
    su_basis_matrices,
    twisted_diagonal_orbit,
    verify_entry,
)
from crkit.errors import InputError, InternalError
from crkit.scalars import QI, QQ, GaussianRational

from .support import (
    build_sl_complex_as_real,
    build_sl_real,
    build_so,
    build_sp,
    dense_bracket,
    oracle_structure_constants,
    so_basis_matrices,
)

F = Fraction
G = GaussianRational


def build_u(n):
    """u(n) = su(n) plus the central line of i * identity."""
    return direct_sum(build_su(n, 0), abelian(1))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_builder_dimensions():
    assert build_su(2, 1).dim == 8
    assert build_su(3, 3).dim == 35
    assert build_sl_real(3).dim == 8
    assert build_sl_complex(4).dim == 15
    assert build_sl_complex_as_real(2).dim == 6
    assert build_so(4).dim == 6
    assert build_u(2).dim == 4
    m = 2
    assert build_sp_complex(m).dim == m * (2 * m + 1)
    assert build_sp(1, 1).dim == 10
    assert build_sp(2, 1).dim == 21


def test_builder_parameter_validation():
    with pytest.raises(InputError):
        build_su(1, 0)
    with pytest.raises(InputError):
        quadric_orbit(0, 2)
    with pytest.raises(InputError):
        twisted_diagonal_orbit(0)


def test_builders_validate():
    for L in (
        build_su(2, 1),
        build_su(2, 0),
        build_sl_real(3),
        build_sl_complex(3),
        build_so(4),
        build_u(2),
        build_sp(1, 1),
        build_sp_complex(2),
    ):
        assert validate(L).ok


def test_builder_radicals():
    for L in (build_su(2, 1), build_sl_real(3), build_sp(1, 1), build_so(4)):
        assert radical(L).dim == 0
    r = radical(build_u(3))
    assert r.dim == 1


def test_su2_killing_negative_definite():
    assert killing_signature(build_su(2, 0)) == (0, 3, 0)


def test_su21_killing_indefinite():
    pos, neg, zero = killing_signature(build_su(2, 1))
    assert zero == 0 and pos > 0 and neg > 0


def test_killing_signatures_classical_values():
    # su(p, q): (2pq, p^2 + q^2 - 1, 0); sl(n, R): (n(n+1)/2 - 1, n(n-1)/2, 0)
    assert killing_signature(build_su(2, 1)) == (4, 4, 0)
    assert killing_signature(build_su(1, 1)) == (2, 1, 0)
    assert killing_signature(build_sl_real(3)) == (5, 3, 0)
    assert killing_signature(build_sp(1, 0)) == (0, 3, 0)  # compact symplectic


def test_sl_complex_defining_bracket():
    L = build_sl_complex(3)
    # basis order: offdiagonal pairs lexicographic, then coroots
    # [E01, E10] = H0
    out = dense_bracket(L, L.basis_vector(0), L.basis_vector(2))
    expect = [G(0)] * 8
    expect[6] = G(1)
    assert list(out) == expect


def test_su_constants_match_solver_oracle():
    for (p, q) in ((2, 0), (1, 1), (2, 1)):
        L = build_su(p, q)
        oracle = oracle_structure_constants(su_basis_matrices(p, q), p + q, False)
        assert {k: dict(v) for k, v in L.brackets.items()} == {
            k: {i: F(x) for i, x in v.items()} for k, v in oracle.items()
        }


def test_sp_real_constants_match_solver_oracle():
    L = build_sp(1, 1)
    oracle = oracle_structure_constants(sp_real_basis_matrices(1, 1), 4, False)
    assert {k: dict(v) for k, v in L.brackets.items()} == {
        k: {i: F(x) for i, x in v.items()} for k, v in oracle.items()
    }


def test_sl_complex_constants_match_solver_oracle():
    L = build_sl_complex(3)
    oracle = oracle_structure_constants(sl_basis_matrices(3), 3, True)
    got = {k: {i: G(0) + x for i, x in v.items()} for k, v in L.brackets.items()}
    want = {k: {i: G(0) + x for i, x in v.items()} for k, v in oracle.items()}
    assert got == want


ORACLE_CASES = (
    [("sl", n) for n in (2, 3, 4)]
    + [("su", pq) for pq in ((2, 0), (1, 1), (2, 1), (2, 2))]
    + [("so", n) for n in (3, 4, 5)]
    + [("sp_complex", m) for m in (1, 2)]
    + [("sp", pq) for pq in ((1, 1), (2, 0), (2, 1))]
)


def oracle_case(family, arg):
    """(algebra, basis matrices, matrix size, complex?) of one builder."""
    if family == "sl":
        return build_sl_complex(arg), sl_basis_matrices(arg), arg, True
    if family == "su":
        return build_su(*arg), su_basis_matrices(*arg), sum(arg), False
    if family == "so":
        return build_so(arg), so_basis_matrices(arg), arg, False
    if family == "sp_complex":
        return build_sp_complex(arg), sp_complex_basis_matrices(arg), 2 * arg, True
    return build_sp(*arg), sp_real_basis_matrices(*arg), 2 * sum(arg), False


@pytest.mark.parametrize(
    "family,arg", ORACLE_CASES, ids=[f"{f}{a}".replace(" ", "") for f, a in ORACLE_CASES]
)
def test_builder_constants_match_solver_oracle(family, arg):
    L, mats, size, is_complex = oracle_case(family, arg)
    oracle = oracle_structure_constants(mats, size, is_complex)
    # same pairs and targets in the same (ascending) order, equal values
    assert list(L.brackets) == list(oracle)
    for key, row in oracle.items():
        got = L.brackets[key]
        assert list(got) == list(row)
        assert all(got[k] == row[k] for k in row), key


READ_OFF_CASES = {
    # a real part on an anti-hermitian diagonal
    "su2-real-diagonal": (su_basis_matrices(2, 0), QQ, {(0, 0): (1, 1), (1, 1): (-1, -1)}, None),
    "sp11-real-diagonal": (
        sp_real_basis_matrices(1, 1), QQ, {(0, 0): (1, 1), (2, 2): (-1, -1)}, None,
    ),
    # a nonreal so coordinate
    "so3-nonreal": (so_basis_matrices(3), QQ, {(0, 1): (0, 1), (1, 0): (0, -1)}, None),
    # not antisymmetric, and not traceless: an entry-wise read-off takes
    # these for {0: 1} and {}
    "so3-not-antisymmetric": (so_basis_matrices(3), QQ, {(0, 1): (1, 0)}, None),
    "sl3-trace-one": (sl_basis_matrices(3), QI, {(2, 2): (1, 0)}, None),
    # an index past the basis matrices' size, whose flattened column would
    # be that of entry (1, 0)
    "sl2-index-out-of-range": (sl_basis_matrices(2), QI, {(0, 2): (1, 0)}, None),
    # the imaginary diagonal itself reads off
    "su2-imaginary-diagonal": (
        su_basis_matrices(2, 0), QQ, {(0, 0): (0, 2), (1, 1): (0, -2)}, {0: 2},
    ),
}


@pytest.mark.parametrize("case", sorted(READ_OFF_CASES))
def test_read_off_rejects_matrices_outside_the_algebra(case):
    mats, field, mat, expected = READ_OFF_CASES[case]
    coords = coordinate_read_off(mats, field)
    if expected is None:
        with pytest.raises(InternalError, match="outside the span"):
            coords(mat)
    else:
        assert coords(mat) == expected


def test_complex_catalog_data_must_be_real():
    # [E01, i E10] = i H0: a nonreal constant is an internal error
    with pytest.raises(InternalError, match="must be real"):
        _algebra_from_matrices(
            [{(0, 1): (1, 0)}, {(1, 0): (0, 1)}, {(0, 0): (1, 0), (1, 1): (-1, 0)}],
            ("a", "b", "c"),
            QI,
        )
    # so is the stabilizer of a nonreal line
    with pytest.raises(InternalError):
        line_stabilizer_rows(sl_basis_matrices(2), ((1, 0), (0, 1)))
    for L in (build_sl_complex(4), build_sp_complex(2)):
        assert all(type(c) is int for row in L.brackets.values() for c in row.values())


def test_parametrized_builders_have_bounded_caches():
    for fn in (build_sl_complex, build_su, build_sp_complex, quadric_orbit,
               sp_quadric_orbit, twisted_diagonal_orbit):
        assert fn.cache_info().maxsize is not None, fn.__name__


def test_size_cap_formulas_and_allowed_entries():
    # the cap's dimension formulas agree with the built ambients
    dims = {prefix: fn for prefix, _, _, fn in _FAMILIES}
    for name, params in (("quadric", (1, 1)), ("quadric", (3, 1)),
                         ("sp_quadric", (1, 1)), ("sp_quadric", (2, 1)),
                         ("twisted", (1,)), ("twisted", (2,))):
        entry = get_entry(f"{name}({','.join(map(str, params))})")
        assert entry.model.ambient.dim == dims[name](*params)
    # the largest admitted size of each family and every benchmark sweep entry
    # stay allowed; the next size up is refused
    allowed = [("quadric", (7, 6)), ("quadric", (12, 1)), ("sp_quadric", (4, 4)),
               ("twisted", (8,)), ("quadric", (4, 3)), ("quadric", (4, 2)),
               ("sp_quadric", (2, 1)), ("twisted", (4,))]
    for name, params in allowed:
        assert dims[name](*params) <= MAX_AMBIENT_DIM
        assert dims[name](*params[::-1]) <= MAX_AMBIENT_DIM
    for name, params in (("quadric", (7, 7)), ("sp_quadric", (5, 4)), ("twisted", (9,))):
        assert dims[name](*params) > MAX_AMBIENT_DIM


# ---------------------------------------------------------------------------
# quadric orbits
# ---------------------------------------------------------------------------

def test_quadric_21_matches_classification():
    rep = verify_entry(quadric_orbit(2, 1))
    assert rep.ok


def test_quadric_11_degenerate_type():
    e = quadric_orbit(1, 1)
    from crkit.cr import cr_type

    t = cr_type(e.cr_pair)
    assert (t.n, t.l, t.k) == (1, 0, 1)
    assert verify_entry(e).ok


def test_quadric_orbit_dimension_formula():
    for (p, q) in ((2, 1), (2, 2)):
        e = quadric_orbit(p, q)
        n1 = p + q
        orbit_dim = e.model.real_sub.dim - e.model.h.dim
        assert orbit_dim == 2 * n1 - 3
        # cross-check: a hypersurface in complex projective space of dim n1 - 1
        assert orbit_dim == 2 * (n1 - 1) - 1


def test_sp_quadric_transitivity_dimensions():
    e = sp_quadric_orbit(1, 1)
    rep = verify_entry(e)
    assert rep.ok
    # the smaller algebra sweeps the same orbit the unitary model does
    su_side = quadric_orbit(2, 2)
    su_dim = su_side.model.real_sub.dim - su_side.model.h.dim
    sp_dim = e.model.real_sub.dim - e.model.h.dim
    assert sp_dim == su_dim == 5


def test_p2r_entry():
    e = real_projective_orbit()
    rep = verify_entry(e)
    assert rep.ok
    assert e.model.codim == 2
    assert e.model.m.dim == 0


def test_twisted_entries():
    for n in (1, 2):
        e = twisted_diagonal_orbit(n)
        assert e.model.codim == 2
        assert verify_entry(e).ok


# ---------------------------------------------------------------------------
# taxonomy
# ---------------------------------------------------------------------------

def test_taxonomy_tag_universe():
    assert TAXONOMY_TAGS == (
        "torus-principal",
        "linear-C*",
        "root-removed",
        "rank1-symmetric",
        "rank2-symmetric",
        "SL_m-series",
        "Sp-series",
        "SO9-Spin7",
    )


def test_classify_fiber_computable_rows():
    ctx = TaxonContext()
    assert classify_fiber(abelian(2), ctx).tag == "torus-principal"
    assert classify_fiber(abelian(1), ctx).tag == "linear-C*"
    assert classify_fiber(sl2(), ctx).tag == "Sp-series"
    assert classify_fiber(abelian(0), ctx).tag == "point"
    assert classify_fiber(abelian(4), ctx).tag == "outside-taxonomy"
    assert (
        classify_fiber(heisenberg(), TaxonContext(unipotent_radical_acts=True)).tag
        == "root-removed"
    )
    assert classify_fiber(heisenberg(), ctx).tag == "outside-taxonomy"


def test_classify_fiber_series_tags():
    ctx = TaxonContext(series_tag="SO9-Spin7")
    assert classify_fiber(abelian(3), ctx).tag == "SO9-Spin7"
    with pytest.raises(InputError):
        classify_fiber(abelian(3), TaxonContext(series_tag="bogus"))


# ---------------------------------------------------------------------------
# entries and verification harness
# ---------------------------------------------------------------------------

def test_corrupted_expected_gives_exactly_one_mismatch():
    e = quadric_orbit(2, 1)
    bad = Expected(
        codim=3,  # deliberately wrong
        cr_type=e.expected.cr_type,
        m_dim=e.expected.m_dim,
        levi_signature_unordered=e.expected.levi_signature_unordered,
        levi_degenerate_domain=e.expected.levi_degenerate_domain,
        fiber_dim=e.expected.fiber_dim,
        fiber_tag=e.expected.fiber_tag,
        degenerate_fibration=e.expected.degenerate_fibration,
    )
    rep = verify_entry(e, expected=bad)
    assert not rep.ok
    assert len(rep.failures()) == 1
    assert rep.failures()[0].name == "codim"


def test_compact_entries_radical_structure():
    for name in ("su2xsu2_torus", "su2xs1_hopf", "sl2_uz", "c2_torus"):
        e = get_entry(name)
        assert e.compact_group
        rep = verify_entry(e)
        assert rep.ok, rep.failures()


def test_heis_solv_entry():
    e = get_entry("heis_solv")
    assert verify_entry(e).ok
    assert e.fibration.degenerate
    assert e.model.h.dim == 0
    assert is_solvable(e.model.real_algebra)


def test_noncompact_simple_taxonomy_coverage():
    # noncompact simple: semisimple real algebra with an indefinite Killing form
    for e in catalog_entries():
        g = e.model.real_algebra
        noncompact_simple = radical(g).dim == 0 and killing_signature(g)[0] != 0
        assert noncompact_simple == (e.family in ("quadric", "sp_quadric", "twisted", "p2r"))


def test_get_entry_parsing():
    assert get_entry("quadric(2,1)").name == "quadric(2,1)"
    assert get_entry(" quadric( 2 , 1 )".replace(" ", "")).name == "quadric(2,1)"
    with pytest.raises(InputError):
        get_entry("quadric(2)")
    with pytest.raises(InputError):
        get_entry("nonsense")


def test_product_entry_codim_additivity():
    from crkit.complexify import product_model

    a = quadric_orbit(2, 1).model
    b = get_entry("c2_torus").model
    prod = product_model(a, b)
    assert prod.codim == a.codim + b.codim
