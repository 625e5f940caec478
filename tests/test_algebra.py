import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crkit.algebra import (
    LieAlgebra,
    Subspace,
    abelian,
    add_spaces,
    centralizer,
    derived_series,
    derived_subalgebra,
    direct_sum,
    full_space,
    heisenberg,
    intersect,
    is_abelian,
    is_ideal,
    is_solvable,
    is_subalgebra,
    killing_form,
    killing_signature,
    lower_central_series,
    normalizer_subalgebra,
    quotient_algebra,
    radical,
    read_off_structure,
    sl2,
    span,
    subalgebra_closure,
    validate,
    validate_tensor,
    verify_levi_complement,
)
from crkit.catalog import build_sl_complex, build_su
from crkit.errors import InputError, StructureError
from crkit.scalars import QI, QQ, GaussianRational

from .support import (
    basis_vector,
    basis_vectors,
    build_sl_real,
    build_so,
    dense_bracket,
    form_value,
    oracle_ad_matrix,
    oracle_bracket,
    oracle_jacobi_witness,
    oracle_trace_product,
    random_solvable,
    random_vector,
    rebase,
)

F = Fraction


def dense_tensor(entries, dim):
    t = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), v in entries.items():
        t[i][j][k] = F(v)
    return t


def gl2():
    """sl2 plus a one-dimensional centre."""
    return direct_sum(sl2(), abelian(1))


# ---------------------------------------------------------------------------
# bracket and validation
# ---------------------------------------------------------------------------

def test_bracket_abelian_is_zero():
    L = abelian(3)
    x = (F(1), F(2), F(3))
    y = (F(-1), F(5), F(0))
    assert dense_bracket(L, x, y) == (F(0),) * 3


def test_bracket_sl2_defining_relation():
    L = sl2()
    h, e, f = basis_vectors(L)
    assert dense_bracket(L, h, e) == (F(0), F(2), F(0))
    assert dense_bracket(L, h, f) == (F(0), F(0), F(-2))
    assert dense_bracket(L, e, f) == (F(1), F(0), F(0))


def test_bracket_matches_dense_oracle_on_random_solvable():
    rng = random.Random(7)
    L = random_solvable(rng, 4)
    for _ in range(100):
        x = random_vector(rng, L)
        y = random_vector(rng, L)
        assert dense_bracket(L, x, y) == oracle_bracket(L, x, y)
        assert dense_bracket(L, x, y) == tuple(-v for v in dense_bracket(L, y, x))


def test_bracket_dimension_mismatch():
    # sparse vectors have no length: an index past the basis is the mismatch
    L = sl2()
    with pytest.raises(InputError):
        L.bracket({3: F(1)}, {1: F(1)})
    with pytest.raises(InputError):
        L.bracket({-1: F(1)}, {1: F(1)})
    # e's partners are h and f, so only a check on y itself sees its index
    for y in ({7: 1}, {-1: 1}, {0: 1, 3: 1}):
        with pytest.raises(InputError):
            L.bracket({1: 1}, y)


def test_validate_constructors_pass():
    for L in (abelian(4), heisenberg(), sl2(), gl2()):
        assert validate(L).ok


def test_validate_tensor_antisymmetry_witness():
    t = dense_tensor({(0, 1, 0): 1, (1, 0, 0): 1}, 3)
    rep = validate_tensor(3, QQ, t)
    assert not rep.by_name("antisymmetry").ok
    assert rep.by_name("antisymmetry").witness == (0, 1, 0)


def test_validate_tensor_jacobi_witness():
    # [e0,e1] = e2, [e0,e2] = e2, [e1,e2] = e0 violates Jacobi:
    # hand oracle: [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1]
    #            = [e2,e2] + [e0,e0] - [e2,e1] = [e1,e2] = e0 != 0
    t = dense_tensor(
        {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 2): 1, (2, 0, 2): -1, (1, 2, 0): 1, (2, 1, 0): -1},
        3,
    )
    rep = validate_tensor(3, QQ, t)
    assert rep.by_name("antisymmetry").ok
    assert not rep.by_name("jacobi").ok
    assert rep.by_name("jacobi").witness == (0, 1, 2)


# ---------------------------------------------------------------------------
# the packed Jacobi check against the naive triple loop
# ---------------------------------------------------------------------------

# corpus-style algebras: real forms in their sparse bases and in a dense
# unimodular basis, a solvable R x| R^4, and complex sl(n, C) read over Q(i)
JACOBI_REAL = (
    sl2(),
    build_sl_real(3),
    build_su(2, 1),
    build_so(4),
    random_solvable(random.Random(4), 4),
    rebase(build_sl_real(3), [
        [1 if c == r else (r + 2 * c) % 3 - 1 if c > r else 0 for c in range(8)]
        for r in range(8)
    ]),
    rebase(build_su(2, 1), [
        [1 if c == r else (2 * r + c) % 3 - 1 if c < r else 0 for c in range(8)]
        for r in range(8)
    ]),
)
JACOBI_COMPLEX = (build_sl_complex(2), build_sl_complex(3))
G = GaussianRational
JACOBI_SCALES = (1, F(1, 3), 10**15, F(-5, 10**12))
JACOBI_COMPLEX_SCALES = (G(1), G(1, 1), G(F(1, 3), -2), G(0, 10**15), G(F(-5, 10**12), 7))
JACOBI_DELTAS = (0, 1, -2, F(1, 7), 10**20)
JACOBI_COMPLEX_DELTAS = (0, 1, G(0, 1), G(F(-1, 3), 2))


def scaled_and_perturbed(L, field, scale, key, k, delta):
    """L over field with every constant times scale, then delta added at [e_i, e_j]_k."""
    brackets = {ij: {t: v * scale for t, v in row.items()} for ij, row in L.brackets.items()}
    row = brackets.setdefault(key, {})
    row[k] = row.get(k, 0) + delta
    return LieAlgebra(L.dim, field, L.names, brackets)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_packed_jacobi_witness_matches_naive_loop(data):
    if data.draw(st.booleans()):
        L = data.draw(st.sampled_from(JACOBI_COMPLEX))
        field = QI
        scale = data.draw(st.sampled_from(JACOBI_COMPLEX_SCALES))
        delta = data.draw(st.sampled_from(JACOBI_COMPLEX_DELTAS))
    else:
        L = data.draw(st.sampled_from(JACOBI_REAL))
        field = QQ
        scale = data.draw(st.sampled_from(JACOBI_SCALES))
        delta = data.draw(st.sampled_from(JACOBI_DELTAS))
    i = data.draw(st.integers(0, L.dim - 2))
    j = data.draw(st.integers(i + 1, L.dim - 1))
    k = data.draw(st.integers(0, L.dim - 1))
    M = scaled_and_perturbed(L, field, scale, (i, j), k, delta)
    witness = validate(M).by_name("jacobi").witness
    assert witness == oracle_jacobi_witness(M)
    if not delta:
        assert witness is None


@pytest.mark.parametrize("bits", [1, 2, 3, 7, 30, 63, 64, 65, 129])
def test_packed_jacobi_sum_cannot_cancel_across_digits(bits):
    # the Jacobi sum of (2, 3, 4) is 2^bits e_0 - e_1: packed with digits of
    # only `bits` bits it would read as zero
    L = LieAlgebra(6, QQ, [f"e{t}" for t in range(6)], {
        (2, 3): {5: 1},
        (4, 5): {0: -(2**bits), 1: 1},
    })
    assert validate(L).by_name("jacobi").witness == (2, 3, 4) == oracle_jacobi_witness(L)


def test_packed_jacobi_witness_known_cases():
    # one perturbed constant of sl(3, R): the first failing triple is
    # the same at every scale, including constants far above 2^64
    L = build_sl_real(3)
    witnesses = {
        validate(scaled_and_perturbed(L, QQ, s, (0, 1), 5, 1)).by_name("jacobi").witness
        for s in JACOBI_SCALES
    }
    assert len(witnesses) == 1 and None not in witnesses
    assert validate(abelian(0)).by_name("jacobi").witness is None
    assert validate(abelian(3, QI)).ok


def test_cross_product_table_is_a_lie_algebra():
    # [e0,e1] = e2, [e0,e2] = e1, [e1,e2] = e0 satisfies Jacobi: the cyclic
    # sum telescopes to zero (this is a split real rank-one orthogonal type).
    t = dense_tensor(
        {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 1): 1, (2, 0, 1): -1, (1, 2, 0): 1, (2, 1, 0): -1},
        3,
    )
    rep = validate_tensor(3, QQ, t)
    assert rep.ok


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def test_series_abelian():
    L = abelian(5)
    ds = derived_series(L)
    assert [s.dim for s in ds] == [5, 0]
    lcs = lower_central_series(L)
    assert [s.dim for s in lcs] == [5, 0]


def test_series_sl2_perfect():
    L = sl2()
    ds = derived_series(L)
    assert [s.dim for s in ds] == [3]
    assert not is_solvable(L)


def test_series_heisenberg():
    L = heisenberg()
    ds = derived_series(L)
    assert [s.dim for s in ds] == [3, 1, 0]
    assert ds[1].rows == ((F(0), F(0), F(1)),)
    assert is_solvable(L) and lower_central_series(L)[-1].dim == 0
    assert [s.dim for s in lower_central_series(L)] == [3, 1, 0]


# ---------------------------------------------------------------------------
# killing form and radical
# ---------------------------------------------------------------------------

def test_killing_form_abelian_zero():
    L = abelian(3)
    k = killing_form(L)
    assert all(all(x == 0 for x in row) for row in k)


def test_killing_form_sl2_frozen_values():
    L = sl2()
    k = killing_form(L)
    h, e, f = basis_vectors(L)
    # oracle: dense ad matrices and explicit trace of the product
    ad_h = oracle_ad_matrix(L, h)
    ad_e = oracle_ad_matrix(L, e)
    ad_f = oracle_ad_matrix(L, f)
    assert oracle_trace_product(ad_h, ad_h) == 8
    assert oracle_trace_product(ad_e, ad_f) == 4
    assert form_value(k, h, h) == 8
    assert form_value(k, e, f) == 4
    assert form_value(k, h, e) == 0
    assert form_value(k, h, f) == 0


def test_killing_invariance_random_triples():
    rng = random.Random(11)
    for L in (sl2(), gl2(), random_solvable(rng, 4)):
        k = killing_form(L)
        for _ in range(200):
            x, y, z = (random_vector(rng, L) for _ in range(3))
            zx, zy = dense_bracket(L, z, x), dense_bracket(L, z, y)
            lhs = form_value(k, zx, y) + form_value(k, x, zy)
            assert lhs == 0


def test_radical_semisimple_is_zero():
    assert radical(sl2()).dim == 0


def test_radical_abelian_is_everything():
    assert radical(abelian(4)).dim == 4


def test_radical_gl2_is_centre():
    L = gl2()
    r = radical(L)
    assert r.dim == 1
    assert r.rows == ((F(0), F(0), F(0), F(1)),)
    assert is_ideal(L, r)
    sub, _ = read_off_structure(L, r.echelon.values())
    assert is_solvable(sub)


def test_radical_is_solvable_ideal_for_random_solvable():
    rng = random.Random(3)
    for _ in range(5):
        L = random_solvable(rng, 3)
        r = radical(L)
        assert r.dim == L.dim  # the whole algebra is solvable
        assert is_ideal(L, r)


# ---------------------------------------------------------------------------
# subalgebra machinery
# ---------------------------------------------------------------------------

def test_heisenberg_centre():
    L = heisenberg()
    z = span(L, [(F(0), F(0), F(1))])
    assert is_ideal(L, z)
    assert centralizer(L, z).dim == 3
    assert normalizer_subalgebra(L, z).dim == 3


def test_sl2_borel_normalizer():
    L = sl2()
    e_line = span(L, [(F(0), F(1), F(0))])
    assert not is_ideal(L, e_line)
    n = normalizer_subalgebra(L, e_line)
    # the borel span(h, e), canonically
    assert n.rows == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert is_subalgebra(L, n)


def test_normalizer_of_ideal_is_everything():
    L = heisenberg()
    ideal = span(L, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert is_ideal(L, ideal)
    assert normalizer_subalgebra(L, ideal).dim == 3


def test_normalizer_contains_subalgebra():
    L = sl2()
    b = span(L, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    n = normalizer_subalgebra(L, b)
    assert n.contains_space(b)


def test_subalgebra_closure():
    L = sl2()
    e_line = span(L, [(F(0), F(1), F(0))])
    assert subalgebra_closure(L, e_line) == e_line
    ef = span(L, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert subalgebra_closure(L, ef).dim == 3


def test_quotient_heisenberg_by_centre():
    L = heisenberg()
    z = span(L, [(F(0), F(0), F(1))])
    q, comp = quotient_algebra(L, z)
    assert q.dim == 2 and is_abelian(q)
    assert validate(q).ok
    assert comp == (0, 1)


def test_quotient_requires_ideal():
    L = sl2()
    with pytest.raises(StructureError):
        quotient_algebra(L, span(L, [(F(0), F(1), F(0))]))


def test_quotient_of_solvable_validates():
    rng = random.Random(23)
    L = random_solvable(rng, 4)
    d = derived_subalgebra(L)
    q, _ = quotient_algebra(L, d)
    assert validate(q).ok


# ---------------------------------------------------------------------------
# levi complement verification
# ---------------------------------------------------------------------------

def test_levi_complement_gl2():
    L = gl2()
    s = span(L, [basis_vector(L, 0), basis_vector(L, 1), basis_vector(L, 2)])
    assert verify_levi_complement(L, s)


def test_levi_complement_rejects_non_semisimple():
    L = gl2()
    s = span(L, [basis_vector(L, 0), basis_vector(L, 1), basis_vector(L, 3)])
    assert is_subalgebra(L, s)
    assert not verify_levi_complement(L, s)


def test_levi_complement_rejects_a_non_subalgebra():
    # [e, f] = h leaves the span of e and f
    L = sl2()
    assert not verify_levi_complement(L, span(L, [basis_vector(L, 1), basis_vector(L, 2)]))


def test_levi_complement_semisimple_full():
    L = sl2()
    assert verify_levi_complement(L, full_space(L))


def test_levi_complement_over_q_i():
    # sl(2, C) on the basis (i h, e, f), with nonreal constants, plus a centre:
    # the Killing form is read on the realification, 2 Re kappa
    i = GaussianRational(0, 1)
    brackets = {(0, 1): {1: 2 * i}, (0, 2): {2: -2 * i}, (1, 2): {0: -i}}
    L = direct_sum(LieAlgebra(3, QI, ("ih", "e", "f"), brackets), abelian(1, field=QI))
    assert validate(L).ok
    assert verify_levi_complement(L, span(L, [basis_vector(L, k) for k in range(3)]))
    assert not verify_levi_complement(L, span(L, [basis_vector(L, k) for k in (1, 3)]))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_killing_signature_split_vs_solvable():
    assert killing_signature(sl2()) == (2, 1, 0)
    assert killing_signature(abelian(3)) == (0, 0, 3)


def test_direct_sum_blocks_commute():
    L = gl2()
    x = (F(1), F(2), F(3), F(0))
    y = (F(0), F(0), F(0), F(5))
    assert dense_bracket(L, x, y) == (F(0),) * 4


def test_subspace_canonical_equality():
    L = abelian(3)
    a = span(L, [(F(2), F(0), F(2)), (F(0), F(1), F(0))])
    b = span(L, [(F(1), F(0), F(1)), (F(0), F(3), F(0))])
    assert a == b and a.rows == b.rows
    assert intersect(a, b) == a
    assert add_spaces(a, Subspace(L, {})) == a
