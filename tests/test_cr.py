from fractions import Fraction

import pytest

from crkit.algebra import LieAlgebra, Subspace, abelian, full_space, heisenberg, span
from crkit.catalog import get_entry, quadric_orbit, verify_entry
from crkit.cr import (
    CRPair,
    check_cr_pair,
    cr_type,
    levi_form,
    levi_signature,
    matrix_columns,
)
from crkit.errors import InputError, StructureError

from .support import basis_vector, levi_raw_form

F = Fraction


def jmat(g, pairs):
    """Sparse column map of the endomorphism {source_index: dense image vector}.

    The dense matrix is converted at this edge, as the file loader does.
    """
    n = g.dim
    m = [[F(0)] * n for _ in range(n)]
    for j, img in pairs.items():
        for k, v in enumerate(img):
            m[k][j] = F(v)
    return matrix_columns(m)


def heisenberg_pair(sign=-1):
    """R = span(x, y), J x = y, J y = sign * x on the Heisenberg algebra."""
    g = heisenberg()
    h = Subspace(g, {})
    r = span(g, [basis_vector(g, 0), basis_vector(g, 1)])
    j = jmat(g, {0: (0, 1, 0), 1: (sign, 0, 0)})
    return CRPair(g, h, r, j)


def complex_structure_pair():
    g = abelian(2)
    h = Subspace(g, {})
    r = full_space(g)
    j = jmat(g, {0: (0, 1), 1: (-1, 0)})
    return CRPair(g, h, r, j)


def levi_flat_pair():
    g = abelian(3)
    h = Subspace(g, {})
    r = span(g, [basis_vector(g, 0), basis_vector(g, 1)])
    j = jmat(g, {0: (0, 1, 0), 1: (-1, 0, 0)})
    return CRPair(g, h, r, j)


def totally_real_pair():
    g = heisenberg()
    h = span(g, [basis_vector(g, 2)])
    r = span(g, [basis_vector(g, 2)])
    j = jmat(g, {})
    return CRPair(g, h, r, j)


def test_complex_structure_passes():
    rep = check_cr_pair(complex_structure_pair())
    assert rep.ok


def test_heisenberg_model_passes():
    rep = check_cr_pair(heisenberg_pair())
    assert rep.ok


def test_heisenberg_wrong_square_fails_condition_two():
    rep = check_cr_pair(heisenberg_pair(sign=1))
    assert rep.by_name("square-minus-identity").ok is False
    assert rep.by_name("kernel-exactness").ok is True


def test_disconnected_isotropy_not_checkable():
    rep = check_cr_pair(heisenberg_pair(), connected_isotropy=False)
    assert rep.by_name("isotropy-compatibility").ok is None
    assert rep.by_name("integrability").ok is True


def test_malformed_pair_h_outside_r():
    g = heisenberg()
    h = span(g, [basis_vector(g, 2)])
    r = span(g, [basis_vector(g, 0)])
    with pytest.raises(StructureError):
        CRPair(g, h, r, jmat(g, {}))


def test_malformed_pair_j_leaves_r():
    g = heisenberg()
    h = Subspace(g, {})
    r = span(g, [basis_vector(g, 0), basis_vector(g, 1)])
    j = jmat(g, {0: (0, 0, 1), 1: (-1, 0, 0)})
    with pytest.raises(StructureError):
        CRPair(g, h, r, j)


@pytest.mark.parametrize("columns", [{3: {0: 1}}, {0: {3: 1}}, {-1: {0: 1}}, {0: {-1: 1}}])
def test_malformed_pair_j_index_out_of_range(columns):
    g = heisenberg()
    with pytest.raises(InputError):
        CRPair(g, Subspace(g, {}), full_space(g), columns)


def test_cr_type_heisenberg():
    assert cr_type(heisenberg_pair()) == cr_type(heisenberg_pair())
    t = cr_type(heisenberg_pair())
    assert (t.n, t.l, t.k) == (3, 1, 1)


def test_cr_type_totally_real():
    t = cr_type(totally_real_pair())
    assert (t.n, t.l, t.k) == (2, 0, 2)


def test_cr_type_odd_rank_rejected():
    g = abelian(3)
    h = Subspace(g, {})
    r = span(g, [basis_vector(g, 0)])
    pair = CRPair(g, h, r, jmat(g, {}))
    with pytest.raises(StructureError):
        cr_type(pair)


def test_levi_form_heisenberg_nondegenerate():
    pair = heisenberg_pair()
    rep = levi_form(pair)
    assert rep.value_dim == 1
    assert cr_type(pair).l == 1
    # psi[x, J x] = psi[x, y] = z and psi[y, J y] = -psi[y, x] = z
    assert rep.completed_matrices[0] == ((F(1), F(0)), (F(0), F(1)))
    # psi[x, y] = z: the raw form matrix is the 2x2 antisymmetric unit
    assert levi_raw_form(pair)[0] == ((F(0), F(1)), (F(-1), F(0)))
    assert rep.kernel.dim == 0
    assert rep.nondegenerate and not rep.degenerate_domain


def test_levi_form_antisymmetric_raw():
    for pair in (heisenberg_pair(), levi_flat_pair(), complex_structure_pair()):
        for mat in levi_raw_form(pair):
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == -mat[j][i]


def test_levi_form_flat():
    pair = levi_flat_pair()
    rep = levi_form(pair)
    assert all(all(all(x == 0 for x in row) for row in m) for m in rep.completed_matrices)
    assert all(all(all(x == 0 for x in row) for row in m) for m in levi_raw_form(pair))
    assert rep.kernel.dim == 2
    assert not rep.nondegenerate


def test_levi_form_totally_real_flagged():
    pair = totally_real_pair()
    rep = levi_form(pair)
    assert rep.degenerate_domain
    assert rep.nondegenerate  # vacuously
    assert cr_type(pair).l == 0 and rep.completed_matrices == ((), ())


def counted_brackets(monkeypatch):
    """A list that grows by one on every LieAlgebra.bracket call."""
    calls = []
    core = LieAlgebra.bracket
    monkeypatch.setattr(
        LieAlgebra, "bracket", lambda g, x, y: calls.append(1) or core(g, x, y)
    )
    return calls


@pytest.mark.parametrize("name", ["quadric(2,2)", "twisted(2)", "heisenberg"])
def test_levi_form_takes_one_bracket_per_pair_of_complement_rows(monkeypatch, name):
    # [x_i, J x_j] for every i, j, on a new pair since the Levi form is cached on its pair
    if name == "heisenberg":
        pair = heisenberg_pair()
    else:
        built = get_entry(name).cr_pair
        pair = CRPair(built.g, built.h, built.r, built.j_raw)
    calls = counted_brackets(monkeypatch)
    levi_form(pair)
    assert len(pair.complement) >= 2
    assert len(calls) == len(pair.complement) ** 2


def test_verify_entry_bracket_count(monkeypatch):
    # a new quadric(4,3) took 2,248 brackets when the raw form had a pass of its own
    entry = quadric_orbit.__wrapped__(4, 3)
    calls = counted_brackets(monkeypatch)
    assert verify_entry(entry).ok
    assert len(calls) <= 2148


def test_levi_kernel_matches_per_codirection_radicals():
    # kernel = intersection over a codirection basis of the scalar radicals
    from crkit.linalg import echelon, intersect_spaces, left_nullspace, sparse

    pair = heisenberg_pair()
    rep = levi_form(pair)
    radicals = None
    for mat in rep.completed_matrices:
        rad = left_nullspace([sparse(row) for row in mat])
        radicals = rad if radicals is None else tuple(
            intersect_spaces(radicals, echelon(rad)).values())
    expect_dim = len(radicals) if radicals else 0
    assert rep.kernel.dim == expect_dim


def test_levi_signature_heisenberg():
    sig = levi_signature(heisenberg_pair(), (F(1),))
    assert sig.normalized == (1, 0, 0)
    assert set(sig.orderings) == {(1, 0, 0), (0, 1, 0)}


def test_levi_signature_flat():
    # counts are in complex units: pos + neg + zero = CR rank
    sig = levi_signature(levi_flat_pair(), (F(1),))
    assert sig.normalized == (0, 0, 1)


def test_levi_signature_scaling_and_negation():
    pair = heisenberg_pair()
    base = levi_signature(pair, (F(3),))
    half = levi_signature(pair, (F(1, 2),))
    assert base.orderings == half.orderings
    neg = levi_signature(pair, (F(-1),))
    assert neg.orderings[0] == (base.orderings[0][1], base.orderings[0][0], base.orderings[0][2])
    assert neg.normalized == base.normalized


def test_levi_signature_zero_codirection_rejected():
    with pytest.raises(InputError):
        levi_signature(heisenberg_pair(), (F(0),))


@pytest.mark.parametrize("codirection", [None, ()], ids=["default", "empty"])
def test_levi_signature_in_codimension_zero_names_the_missing_value_space(codirection):
    pair = get_entry("c2_torus").cr_pair
    with pytest.raises(InputError, match="^codimension 0 leaves no value space"):
        levi_signature(pair, codirection)


def test_pair_equality_mod_h():
    # J and J' differing by an h-valued map give equal pairs
    g = heisenberg()
    h = span(g, [basis_vector(g, 2)])
    r = full_space(g)
    j1 = jmat(g, {0: (0, 1, 0), 1: (-1, 0, 0), 2: (0, 0, 0)})
    j2 = jmat(g, {0: (0, 1, 5), 1: (-1, 0, -2), 2: (0, 0, 0)})
    # note: neither is a valid CR pair axiomatically (kernel exactness may
    # fail); equality is a statement about canonicalization only
    p1 = CRPair(g, h, r, j1)
    p2 = CRPair(g, h, r, j2)
    assert p1 == p2


def test_witness_entries_are_formatted_as_rationals():
    # entries print as format_rational does, with the tuple punctuation kept
    from crkit.report import witness_check

    check = witness_check("integrability", (0, F(-1, 2), F(2, 1), F(3, 4)), "witness ")
    assert check.detail == "witness (0, -1/2, 2, 3/4)"
    assert check.witness == (0, F(-1, 2), 2, F(3, 4))
    assert witness_check("x", (F(5, 1),)).detail == "(5,)"
    assert witness_check("x", None).detail == ""


def test_failing_axiom_witness_is_a_dense_tuple():
    rep = check_cr_pair(heisenberg_pair(sign=1))
    failed = rep.by_name("square-minus-identity")
    assert failed.witness == (1, 0, 0)
    assert failed.detail == "witness (1, 0, 0)"
