from fractions import Fraction

import pytest

from crkit.algebra import LieAlgebra, direct_sum, full_space, heisenberg, radical, sl2, span
from crkit.catalog import (
    ROSTER,
    CatalogEntry,
    Expected,
    build_sl_complex,
    catalog_entries,
    complex_abelian,
    get_entry,
    quadric_orbit,
    sp_quadric_orbit,
)
from crkit.complexify import OrbitModel, j_apply, realify
from crkit.errors import InputError
from crkit.fileio import load_pi1
from crkit.globalize import (
    GLOBALIZABLE,
    GLOBALIZABLE_FINITE,
    NOT_DECIDABLE,
    affine_quadric_involvement,
    condition_c_check,
    entry_j_hat,
    fine_classification_checks,
    radical_abelian_check,
    verdict,
)
from crkit.linalg import sparse
from crkit.scalars import QI, GaussianRational

from .support import basis_vector, complex_j_hat_rows, complex_rows_realified

F = Fraction
G = GaussianRational


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_descriptor_validation():
    # both groups are checked on load: a negative rank, an order below 2
    with pytest.raises(InputError, match="rank must be nonnegative"):
        load_pi1({"real": [0, []], "complex": [-1, []]})
    with pytest.raises(InputError, match="torsion orders must exceed 1"):
        load_pi1({"real": [0, []], "complex": [1, [2, 1]]})
    assert load_pi1({"real": [1, [4, 6]], "complex": [0, []]}) == ((1, (4, 6)), (0, ()), False)


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
    from types import SimpleNamespace

    from crkit.algebra import abelian
    from crkit.complexify import classify_fiber

    def involved(fiber, quadric_refibers=False):
        entry = SimpleNamespace(taxon=classify_fiber(fiber), quadric_refibers=quadric_refibers)
        return affine_quadric_involvement(entry)

    assert involved(sl2())
    assert not involved(abelian(2))
    assert involved(abelian(2), quadric_refibers=True)
    on_roster = {name for name in ROSTER if affine_quadric_involvement(get_entry(name))}
    assert on_roster == {"sl2_uz"}


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


def test_verdict_aff1_orbit_radical_fails_with_both_notes():
    # the real form aff(1, R) of [a, b] = b with isotropy C a: the radical is
    # the whole ambient, nonabelian, and no pi1 data is given
    ambient = LieAlgebra(2, QI, ("a", "b"), {(0, 1): {1: G(1)}})
    model = OrbitModel(ambient, [{0: 1}, {1: 1}], [{0: 1}], name="aff1")
    v = verdict(CatalogEntry("aff1", "file", (), model, Expected()))
    assert v.radical_abelian_on_base == "fail"
    assert v.condition_c == "unknown"
    assert v.overall == NOT_DECIDABLE
    assert v.notes == (
        "the ambient radical does not act abelianly on the base",
        "homotopy comparison: unknown",
    )


def test_verdict_monotone_in_condition_c():
    # strengthening weak-pass to pass never downgrades the verdict
    order = {NOT_DECIDABLE: 0, GLOBALIZABLE_FINITE: 1, GLOBALIZABLE: 2}
    base = get_entry("su2xsu2_torus")

    def with_pi1(pi1):
        return CatalogEntry(
            base.name, base.family, base.params, base.model, base.expected, pi1,
            base.compact_group, base.kahler, base.quadric_refibers,
            base.projective_plane_base, base.notes,
        )

    weak = with_pi1((base.pi1[0], base.pi1[1], False))
    strong = with_pi1((base.pi1[0], base.pi1[1], True))
    assert order[verdict(strong).overall] >= order[verdict(weak).overall]


def test_not_decidable_set_matches_exceptions():
    bad = set()
    for e in catalog_entries():
        v = verdict(e)
        if v.overall == NOT_DECIDABLE:
            bad.add(e.name)
        expected_bad = e.family == "p2r" or affine_quadric_involvement(e)
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
    ambient = direct_sum(build_sl_complex(2), complex_abelian(1))
    real = realify(ambient)
    rows = [basis_vector(real, k) for k in (0, 1, 2, 4, 5, 6)]  # realified sl2 part
    rows.append(basis_vector(real, 3))  # real line in the abelian factor
    model = OrbitModel(ambient, [sparse(r) for r in rows], [], name="negative-control")
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
