from fractions import Fraction

import pytest

from crkit.algebra import abelian, full_space, heisenberg, span, zero_space
from crkit.cr import CRPair, check_cr_pair, cr_type, levi_form, levi_signature
from crkit.errors import InputError, StructureError

F = Fraction


def jmat(g, pairs):
    """Endomorphism matrix from {source_index: dense image vector}."""
    n = g.dim
    m = [[F(0)] * n for _ in range(n)]
    for j, img in pairs.items():
        for k, v in enumerate(img):
            m[k][j] = F(v)
    return tuple(tuple(r) for r in m)


def heisenberg_pair(sign=-1):
    """R = span(x, y), J x = y, J y = sign * x on the Heisenberg algebra."""
    g = heisenberg()
    h = zero_space(g)
    r = span(g, [g.basis_vector(0), g.basis_vector(1)])
    j = jmat(g, {0: (0, 1, 0), 1: (sign, 0, 0)})
    return CRPair(g, h, r, j)


def complex_structure_pair():
    g = abelian(2)
    h = zero_space(g)
    r = full_space(g)
    j = jmat(g, {0: (0, 1), 1: (-1, 0)})
    return CRPair(g, h, r, j)


def levi_flat_pair():
    g = abelian(3)
    h = zero_space(g)
    r = span(g, [g.basis_vector(0), g.basis_vector(1)])
    j = jmat(g, {0: (0, 1, 0), 1: (-1, 0, 0)})
    return CRPair(g, h, r, j)


def totally_real_pair():
    g = heisenberg()
    h = span(g, [g.basis_vector(2)])
    r = span(g, [g.basis_vector(2)])
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
    h = span(g, [g.basis_vector(2)])
    r = span(g, [g.basis_vector(0)])
    with pytest.raises(StructureError):
        CRPair(g, h, r, jmat(g, {}))


def test_malformed_pair_j_leaves_r():
    g = heisenberg()
    h = zero_space(g)
    r = span(g, [g.basis_vector(0), g.basis_vector(1)])
    j = jmat(g, {0: (0, 0, 1), 1: (-1, 0, 0)})
    with pytest.raises(StructureError):
        CRPair(g, h, r, j)


def test_cr_type_heisenberg():
    assert cr_type(heisenberg_pair()) == cr_type(heisenberg_pair())
    t = cr_type(heisenberg_pair())
    assert (t.n, t.l, t.k) == (3, 1, 1)


def test_cr_type_totally_real():
    t = cr_type(totally_real_pair())
    assert (t.n, t.l, t.k) == (2, 0, 2)


def test_cr_type_odd_rank_rejected():
    g = abelian(3)
    h = zero_space(g)
    r = span(g, [g.basis_vector(0)])
    pair = CRPair(g, h, r, jmat(g, {}))
    with pytest.raises(StructureError):
        cr_type(pair)


def test_levi_form_heisenberg_nondegenerate():
    rep = levi_form(heisenberg_pair())
    assert rep.value_dim == 1
    assert rep.cr_rank == 1
    # psi[x, y] = z: the raw form matrix is the 2x2 antisymmetric unit
    assert rep.form_matrices[0] == ((F(0), F(1)), (F(-1), F(0)))
    assert rep.kernel.dim == 0
    assert rep.nondegenerate and not rep.degenerate_domain


def test_levi_form_antisymmetric_raw():
    for pair in (heisenberg_pair(), levi_flat_pair(), complex_structure_pair()):
        rep = levi_form(pair)
        for mat in rep.form_matrices:
            n = len(mat)
            for i in range(n):
                for j in range(n):
                    assert mat[i][j] == -mat[j][i]


def test_levi_form_flat():
    rep = levi_form(levi_flat_pair())
    assert all(all(all(x == 0 for x in row) for row in m) for m in rep.form_matrices)
    assert rep.kernel.dim == 2
    assert not rep.nondegenerate


def test_levi_form_totally_real_flagged():
    rep = levi_form(totally_real_pair())
    assert rep.degenerate_domain
    assert rep.nondegenerate  # vacuously
    assert rep.cr_rank == 0


def test_levi_kernel_matches_per_codirection_radicals():
    # kernel = intersection over a codirection basis of the scalar radicals
    from crkit.linalg import left_nullspace, intersect_spaces

    pair = heisenberg_pair()
    rep = levi_form(pair)
    m = len(rep.complement_rows)
    radicals = None
    for mat in rep.completed_matrices:
        rad = left_nullspace(mat)
        if not rad:
            rad = ()
        radicals = rad if radicals is None else intersect_spaces(radicals, rad)[0]
    expect_dim = len(radicals) if radicals else 0
    assert rep.kernel.dim == expect_dim


def test_levi_signature_heisenberg():
    sig = levi_signature(heisenberg_pair(), (F(1),))
    assert sig.normalized == (1, 0, 0)
    assert sig.unordered() == (frozenset({0, 1}), 0)


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


def test_pair_equality_mod_h():
    # J and J' differing by an h-valued map give equal pairs
    g = heisenberg()
    h = span(g, [g.basis_vector(2)])
    r = full_space(g)
    j1 = jmat(g, {0: (0, 1, 0), 1: (-1, 0, 0), 2: (0, 0, 0)})
    j2 = jmat(g, {0: (0, 1, 5), 1: (-1, 0, -2), 2: (0, 0, 0)})
    # note: neither is a valid CR pair axiomatically (kernel exactness may
    # fail); equality is a statement about canonicalization only
    p1 = CRPair(g, h, r, j1)
    p2 = CRPair(g, h, r, j2)
    assert p1 == p2
