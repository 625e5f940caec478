from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crkit.algebra import LieAlgebra, direct_sum, full_space, heisenberg, radical, sl2, span
from crkit.catalog import (
    build_sl_complex,
    catalog_entries,
    complex_abelian,
    get_entry,
    quadric_orbit,
    sp_quadric_orbit,
)
from crkit.complexify import complex_rows_realified, j_apply, realify
from crkit.errors import InputError
from crkit.globalize import (
    GLOBALIZABLE,
    GLOBALIZABLE_FINITE,
    NOT_DECIDABLE,
    Pi1Descriptor,
    affine_quadric_involvement,
    condition_c_check,
    entry_j_hat,
    fine_classification_checks,
    invariant_factors,
    radical_abelian_check,
    verdict,
)
from crkit.scalars import QI, GaussianRational

from .support import complex_j_hat_rows, factored_invariant_factors

F = Fraction
G = GaussianRational


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_invariant_factors_canonical():
    assert invariant_factors(()) == ()
    assert invariant_factors((2, 3)) == (6,)
    assert invariant_factors((4, 6)) == (2, 12)
    assert invariant_factors((2, 2, 3)) == (2, 6)
    chain = invariant_factors((8, 12, 10, 9))
    for a, b in zip(chain, chain[1:]):
        assert b % a == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 10**4), max_size=6))
def test_invariant_factors_match_factored_oracle(torsion):
    assert invariant_factors(torsion) == factored_invariant_factors(torsion)


def test_invariant_factors_need_no_factoring():
    big = 1000000000000000003  # prime
    assert invariant_factors((big,)) == (big,)
    assert invariant_factors((big * 4, 6)) == (2, big * 12)


def test_descriptor_validation():
    with pytest.raises(InputError):
        Pi1Descriptor(-1)
    with pytest.raises(InputError):
        Pi1Descriptor(0, (1,))


def test_condition_c_rank_rule():
    # rank 0 into rank 1: no finite-index image can exist
    assert condition_c_check((0, ()), (1, ())) == "fail"
    assert condition_c_check((1, ()), (1, ())) == "weak-pass"
    assert condition_c_check((1, ()), (1, ()), known_surjective=True) == "pass"
    assert condition_c_check((2, (2,)), (1, ())) == "weak-pass"
    # the flag never rescues a rank failure
    assert condition_c_check((0, ()), (1, ()), known_surjective=True) == "fail"


# ---------------------------------------------------------------------------
# radical action
# ---------------------------------------------------------------------------

def solvable2_complex():
    """Two-dimensional nonabelian complex algebra: [t, x] = x."""
    return LieAlgebra(2, QI, ("t", "x"), {(0, 1): {1: G(1)}})


def test_radical_abelian_check_reductive():
    ambient = build_sl_complex(2)
    j = span(ambient, [(G(1), G(0), G(0))])
    assert radical_abelian_check(ambient, j)


def test_radical_abelian_check_failure():
    # solvable (nonabelian) summand times a semisimple one; j_hat misses
    # the derived line of the radical
    ambient = direct_sum(solvable2_complex(), build_sl_complex(2))
    j = span(ambient, [(G(1), G(0), G(0), G(0), G(0))])
    assert not radical_abelian_check(ambient, j)
    j_full = full_space(ambient)
    assert radical_abelian_check(ambient, j_full)


@pytest.mark.parametrize(
    "complex_algebra",
    [
        sl2(QI),
        direct_sum(solvable2_complex(), build_sl_complex(2)),
        direct_sum(heisenberg(QI), sl2(QI)),
    ],
    ids=["sl2", "solvable2+sl2", "heisenberg+sl2"],
)
def test_radical_of_realification_is_realified_radical(complex_algebra):
    real = realify(complex_algebra)
    realified = complex_rows_realified(radical(complex_algebra).rows)
    assert radical(real) == span(real, realified)


def test_entry_j_hat_matches_complex_construction():
    for e in catalog_entries():
        amb, amb_real = e.model.ambient, e.model.ambient_real
        reference = complex_j_hat_rows(e)
        assert entry_j_hat(e) == span(amb_real, complex_rows_realified(reference))
        # the verdict's radical test agrees with the one run over Q(i)
        assert radical_abelian_check(amb, span(amb, reference)) == radical_abelian_check(
            amb_real, entry_j_hat(e)
        )


# ---------------------------------------------------------------------------
# quadric involvement
# ---------------------------------------------------------------------------

def test_affine_quadric_involvement_tags():
    from crkit.algebra import sl2, abelian
    from crkit.catalog import TaxonContext, classify_fiber
    from crkit.complexify import FibrationReport

    sp_taxon = classify_fiber(sl2(), TaxonContext())
    assert sp_taxon.tag == "Sp-series"
    assert affine_quadric_involvement(None, sp_taxon)

    torus = classify_fiber(abelian(2), TaxonContext())
    assert not affine_quadric_involvement(None, torus)

    so9 = classify_fiber(abelian(3), TaxonContext(series_tag="SO9-Spin7"))
    assert not affine_quadric_involvement(None, so9)

    rank1_sphere = classify_fiber(
        abelian(3), TaxonContext(series_tag="rank1-symmetric", sphere_base=True)
    )
    assert affine_quadric_involvement(None, rank1_sphere)


# ---------------------------------------------------------------------------
# verdicts on the catalog
# ---------------------------------------------------------------------------

def test_verdict_quadric_globalizable():
    v = verdict(quadric_orbit(2, 1))
    assert v.overall == GLOBALIZABLE
    assert v.radical_abelian_on_base == "pass"
    assert v.condition_c == "pass"


def test_verdict_sp_quadric_globalizable():
    v = verdict(sp_quadric_orbit(1, 1))
    assert v.overall == GLOBALIZABLE
    assert v.condition_c == "pass"


def test_verdict_p2r_not_decidable_with_note():
    v = verdict(get_entry("p2r"))
    assert v.overall == NOT_DECIDABLE
    assert v.condition_c == "fail"
    assert any("SO3" in note for note in v.notes)


def test_verdict_sl2_uz_not_decidable_quadric_flag():
    v = verdict(get_entry("sl2_uz"))
    assert v.overall == NOT_DECIDABLE
    assert v.quadric_involved
    assert v.condition_c == "fail"


def test_verdict_twisted_globalizable_trivial_fiber():
    v = verdict(get_entry("twisted(1)"))
    assert v.overall == GLOBALIZABLE_FINITE
    assert not v.quadric_involved
    assert v.condition_c == "unknown"


def test_verdict_monotone_in_condition_c():
    # strengthening weak-pass to pass never downgrades the verdict
    order = {NOT_DECIDABLE: 0, GLOBALIZABLE_FINITE: 1, GLOBALIZABLE: 2}
    base = get_entry("su2xsu2_torus")
    import dataclasses

    weak = dataclasses.replace(base, pi1=(base.pi1[0], base.pi1[1], False))
    strong = dataclasses.replace(base, pi1=(base.pi1[0], base.pi1[1], True))
    assert order[verdict(strong).overall] >= order[verdict(weak).overall]


def test_not_decidable_set_matches_exceptions():
    bad = set()
    for e in catalog_entries():
        v = verdict(e)
        if v.overall == NOT_DECIDABLE:
            bad.add(e.name)
        expected_bad = e.family == "p2r" or affine_quadric_involvement(e.fibration, e.taxon)
        assert (v.overall == NOT_DECIDABLE) == expected_bad, e.name
    assert bad == {"p2r", "sl2_uz"}


# ---------------------------------------------------------------------------
# fine classification
# ---------------------------------------------------------------------------

def test_fine_class_quadric():
    rep = fine_classification_checks(quadric_orbit(2, 1))
    assert rep.ok
    assert rep.by_name("nondegenerate-fiber-dim-bound").ok


def test_fine_class_parallelizable_kahler():
    rep = fine_classification_checks(get_entry("heis_solv"))
    assert rep.ok
    assert rep.by_name("kahler-m-solvable").ok
    assert rep.by_name("kahler-g-solvable").ok


def test_fine_class_negative_control():
    """A parallelizable Kahler-tagged model whose m contains a simple part."""
    import dataclasses

    from crkit.catalog import CatalogEntry, Expected
    from crkit.complexify import OrbitModel, realify

    ambient = direct_sum(build_sl_complex(2), complex_abelian(1))
    real = realify(ambient)
    rows = [real.basis_vector(k) for k in (0, 1, 2, 4, 5, 6)]  # realified sl2 part
    rows.append(real.basis_vector(3))  # real line in the abelian factor
    model = OrbitModel(ambient, rows, [], name="negative-control")
    entry = CatalogEntry(
        name="negative-control",
        family="parallelizable",
        params=(),
        model=model,
        expected=Expected(),
        kahler=True,
    )
    rep = fine_classification_checks(entry)
    assert not rep.by_name("kahler-m-solvable").ok


def test_entry_j_hat_is_complex_subalgebra():
    for name in ("quadric(2,1)", "sl2_uz", "heis_solv"):
        e = get_entry(name)
        j = entry_j_hat(e)
        # a J-stable real subalgebra of the realification is a complex subalgebra
        assert j.parent == e.model.ambient_real
        rows = list(j.echelon.values())
        for v in rows:
            assert j.contains(j_apply(v, e.model.ambient.dim))
        for a in range(j.dim):
            for b in range(a + 1, j.dim):
                assert j.contains(e.model.ambient_real.bracket(rows[a], rows[b]))
