import copy
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
    build_sl_complex,
    build_sp_complex,
    build_su,
    catalog_entries,
    get_entry,
    line_stabilizer_rows,
    quadric_orbit,
    real_projective_orbit,
    sl_rows,
    sp_complex_rows,
    sp_quadric_orbit,
    sp_real_rows,
    su_real_rows,
    su_signs,
    twisted_diagonal_orbit,
    verify_entry,
)
from crkit.complexify import classify_fiber
from crkit.errors import InputError
from crkit.linalg import echelon
from crkit.scalars import GaussianRational

from .support import (
    basis_vector,
    build_sl_complex_as_real,
    build_sl_real,
    build_so,
    build_sp,
    dense_bracket,
    in_sp_pq,
    matrix_line_stabilizer,
    oracle_structure_constants,
    sl_basis_matrices,
    sl_coordinates,
    so_basis_matrices,
    sp_complex_basis_matrices,
    sp_real_matrices,
    su_basis_matrices,
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
    out = dense_bracket(L, basis_vector(L, 0), basis_vector(L, 2))
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
    oracle = oracle_structure_constants(sp_real_matrices(1, 1), 4, False)
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
    [("sl", n) for n in (2, 3, 4, 5, 7)]
    + [("su", pq) for pq in ((2, 0), (1, 1), (2, 1), (2, 2))]
    + [("so", n) for n in (3, 4, 5)]
    + [("sp_complex", m) for m in (1, 2, 3)]
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
    return build_sp(*arg), sp_real_matrices(*arg), 2 * sum(arg), False


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


@pytest.mark.parametrize("p,q", [(p, m - p) for m in range(1, 9) for p in range(m + 1)])
def test_sp_real_rows_are_a_basis_of_sp_pq(p, q):
    # sp_real_matrices asserts that each row's matrix lies in sp(p, q)
    m = p + q
    assert len(sp_real_matrices(p, q)) == len(echelon(sp_real_rows(p, q))) == m * (2 * m + 1)


def test_sp_pq_check_rejects_matrices_outside_sp_pq():
    eps = su_signs(1, 1) * 2
    assert in_sp_pq({(0, 0): (0, 1), (2, 2): (0, -1)}, eps)  # i A_00
    assert not in_sp_pq({(0, 0): (1, 0), (1, 1): (-1, 0)}, eps)  # traceless, outside sp(4, C)
    assert not in_sp_pq({(0, 0): (1, 0), (2, 2): (-1, 0)}, eps)  # A_00 is not anti-hermitian
    assert not in_sp_pq({(0, 2): (1, 0), (2, 0): (1, 0)}, eps)  # B_00 + C_00 is not either


def test_read_off_of_an_imaginary_diagonal():
    # the imaginary diagonal reads off as twice the imaginary part of H0
    assert sl_coordinates({(0, 0): (0, 2), (1, 1): (0, -2)}, 2) == {5: 2}


def same_rows(got, want):
    """Equal rows, each with its coordinates in the same order."""
    return [list(r.items()) for r in got] == [list(r.items()) for r in want]


@pytest.mark.parametrize("n", range(2, 14))
def test_su_real_rows_are_the_read_off_of_the_matrix_model(n):
    for p in range(n + 1):
        mats = su_basis_matrices(p, n - p)
        assert same_rows(su_real_rows(p, n - p), [sl_coordinates(x, n) for x in mats]), p


@pytest.mark.parametrize("m", range(1, 9))
def test_sp_complex_rows_are_the_read_off_of_the_block_matrices(m):
    # real matrices: the realified read-off has no imaginary part
    want = [sl_coordinates(x, 2 * m) for x in sp_complex_basis_matrices(m)]
    assert same_rows(sp_complex_rows(m), want)


def nonempty_lines(n):
    return [tuple(k for k in range(n) if bits >> k & 1) for bits in range(1, 2 ** n)]


@pytest.mark.parametrize("n", range(2, 6))
def test_line_stabilizers_match_the_matrix_action(n):
    for line in nonempty_lines(n):
        v = tuple((int(k in line), 0) for k in range(n))
        want = matrix_line_stabilizer(sl_basis_matrices(n), v)
        assert same_rows(line_stabilizer_rows(sl_rows(n), n, line), want), line


@pytest.mark.parametrize("m", range(2, 5))
def test_sp_line_stabilizers_match_the_matrix_action(m):
    # sp_quadric(p, q)'s line e_0 + e_p in C^2m, m = p + q
    for p in range(1, m):
        v = tuple((int(k in (0, p)), 0) for k in range(2 * m))
        want = matrix_line_stabilizer(sp_complex_basis_matrices(m), v)
        assert same_rows(line_stabilizer_rows(sp_complex_rows(m), 2 * m, (0, p)), want), p


def test_complex_catalog_data_must_be_real():
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

def test_classify_fiber_computable_rows():
    assert classify_fiber(abelian(2)) == "torus-principal"
    assert classify_fiber(abelian(1)) == "linear-C*"
    assert classify_fiber(sl2()) == "Sp-series"
    assert classify_fiber(abelian(0)) == "point"
    assert classify_fiber(abelian(4)) == "outside-taxonomy"
    assert classify_fiber(heisenberg()) == "outside-taxonomy"


# ---------------------------------------------------------------------------
# entries and verification harness
# ---------------------------------------------------------------------------

def test_corrupted_expected_gives_exactly_one_mismatch():
    # a copy of the cached entry with its own record, one value deliberately wrong
    e = copy.copy(quadric_orbit(2, 1))
    e.expected = e.expected._replace(codim=3)
    rep = verify_entry(e)
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
    # parameters are -?[0-9]+ in ASCII: int() alone would read a fullwidth or
    # Arabic-Indic digit, an underscore or a plus sign
    for name in ("quadric(\uff12,1)", "quadric(2,1_0)", "quadric(+1, 1)", "twisted(\u0661)"):
        with pytest.raises(InputError, match="^bad integer parameters"):
            get_entry(name)


def test_product_entry_codim_additivity():
    from crkit.complexify import product_model

    a = quadric_orbit(2, 1).model
    b = get_entry("c2_torus").model
    prod = product_model(a, b)
    assert prod.codim == a.codim + b.codim
