"""Acceptance suite: one criterion per test, one printed line per criterion.

Every check is exact (rational or Gaussian-rational arithmetic); there
are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from crkit.algebra import full_space, is_abelian, is_solvable, product_space, radical, subalgebra_structure
from crkit.catalog import (
    catalog_entries,
    get_entry,
    quadric_orbit,
    sp_quadric_orbit,
    twisted_diagonal_orbit,
)
from crkit.cli import main
from crkit.complexify import fiber_globalization_check, j_apply
from crkit.cr import levi_form
from crkit.errors import InputError
from crkit.globalize import (
    NOT_DECIDABLE,
    affine_quadric_involvement,
    condition_c_check,
    fine_classification_checks,
    verdict,
)
from crkit.scalars import GaussianRational

from .support import apply_complex_matrix_to_model, dense_rank, nilpotent_automorphism

F = Fraction
G = GaussianRational


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_quadric_signatures():
    """Codimension 1 and unordered signature {p-1, q-1} for all p+q <= 6."""
    t0 = time.time()
    count = 0
    for p in range(1, 6):
        for q in range(1, 7 - p):
            code = main(["catalog", "verify", f"quadric({p},{q})"])
            assert code == 0, (p, q)
            count += 1
    elapsed = time.time() - t0
    report(
        "quadric-signatures",
        elapsed < 10.0,
        f"{count} families verified exactly in {elapsed:.2f}s (< 10s)",
    )


def test_criterion_real_projective_plane(capsys=None):
    e = get_entry("p2r")
    from crkit.cr import cr_type

    t = cr_type(e.cr_pair)
    v = verdict(e)
    ok = (
        e.model.codim == 2
        and (t.n, t.l, t.k) == (2, 0, 2)
        and e.model.m.dim == 0
        and v.overall == NOT_DECIDABLE
        and any("SO3" in note for note in v.notes)
    )
    report(
        "real-projective-plane",
        ok,
        f"codim={e.model.codim} type=({t.n},{t.l},{t.k}) m={e.model.m.dim} "
        f"verdict={v.overall}",
    )


def test_criterion_twisted_diagonal():
    dims = []
    for n in range(1, 5):
        e = twisted_diagonal_orbit(n)
        model = e.model
        assert model.codim == 2, n
        # genericity recomputed from scratch: g + Jg spans the realification
        from crkit.linalg import dense, sparse

        width = model.ambient_real.dim
        jg = [dense(j_apply(sparse(v), model.ambient.dim), width) for v in model.real_rows]
        assert dense_rank(list(model.real_rows) + jg) == width, n
        dims.append(model.codim)
    report("twisted-diagonal", dims == [2, 2, 2, 2], f"codims {dims} for n=1..4")


def _check_m_properties(model):
    m = model.m
    for v in m.echelon.values():
        if not m.contains(j_apply(v, model.ambient.dim)):
            return False
    for x in model.real_sub.echelon.values():
        for v in m.echelon.values():
            if not m.contains(model.ambient_real.bracket(x, v)):
                return False
    return True


def _nilpotent_perturbation(entry, rng):
    ambient = entry.model.ambient
    for _ in range(60):
        idx = rng.sample(range(ambient.dim), k=min(2, ambient.dim))
        x = [G(0)] * ambient.dim
        for k in idx:
            x[k] = G(rng.randint(-2, 2))
        if not any(x):
            continue
        try:
            mat = nilpotent_automorphism(ambient, tuple(x))
        except InputError:
            continue
        return apply_complex_matrix_to_model(entry.model, mat, name=f"{entry.name}~")
    return None


def test_criterion_m_ideal_property():
    rng = random.Random(20260808)
    for e in catalog_entries():
        assert _check_m_properties(e.model), e.name
    pool = [
        get_entry(name)
        for name in (
            "quadric(2,1)",
            "sp_quadric(1,1)",
            "twisted(1)",
            "p2r",
            "su2xsu2_torus",
            "su2xs1_hopf",
            "sl2_uz",
            "heis_solv",
        )
    ]
    perturbed = 0
    while perturbed < 50:
        entry = pool[perturbed % len(pool)]
        model = _nilpotent_perturbation(entry, rng)
        if model is None:
            continue
        assert _check_m_properties(model), entry.name
        perturbed += 1
    report(
        "m-ideal-property",
        True,
        f"{len(catalog_entries())} shipped models + {perturbed} perturbations, exact",
    )


def test_criterion_degenerate_fibration_corollary():
    checked = []
    parallelizable_family = set()
    for e in catalog_entries():
        fib = e.fibration
        if e.family == "parallelizable":
            parallelizable_family.add(e.name)
            assert fib.degenerate, e.name
        if fib.degenerate:
            assert e.model.h.dim == 0, e.name
            assert fib.isotropy_discrete_proxy is True, e.name
            checked.append(e.name)
    # the degenerate-fibration entries are exactly the parallelizable family
    assert set(checked) == parallelizable_family
    report(
        "degenerate-fibration-corollary",
        len(checked) >= 2,
        f"degenerate entries with h = 0: {checked}",
    )


def test_criterion_fiber_globalization_facts():
    checked = []
    for e in catalog_entries():
        fib = e.fibration
        if fib.degenerate and e.model.h.dim == 0 and e.model.codim <= 2:
            rep = fiber_globalization_check(e.model)
            assert rep.ok, (e.name, [(r.name, r.ok) for r in rep.checks])
            assert rep.by_name("semisimple-part-in-m").ok
            assert rep.by_name("ambient-dim-bound").ok
            checked.append(e.name)
    report(
        "fiber-globalization-facts",
        len(checked) >= 2,
        f"all facts hold on {checked}",
    )


def test_criterion_compact_radical_structure():
    checked = []
    for e in catalog_entries():
        if not e.compact_group:
            continue
        g = e.model.real_algebra
        r = radical(g)
        abelian_ok = product_space(g, r, r).dim == 0
        central_ok = product_space(g, full_space(g), r).dim == 0
        assert abelian_ok and central_ok, e.name
        checked.append((e.name, r.dim))
    report(
        "compact-radical-structure",
        len(checked) >= 3,
        f"abelian central radicals on {checked}",
    )


def test_criterion_condition_c_boundary():
    # the rank-0 into rank-1 pair fails; no flag rescues it
    assert condition_c_check((0, ()), (1, ())) == "fail"
    assert condition_c_check((0, ()), (1, ()), known_surjective=True) == "fail"
    # quadric entries (unitary and symplectic real forms) pass
    for entry in (quadric_orbit(2, 1), quadric_orbit(2, 2), sp_quadric_orbit(1, 1)):
        real, cplx, flag = entry.pi1
        assert condition_c_check(real, cplx, known_surjective=flag) == "pass"
    # catalog-wide: not-decidable exactly on quadric involvement or the plane
    failing_pairs = set()
    not_decidable = set()
    expected_not_decidable = set()
    for e in catalog_entries():
        if e.pi1 is not None:
            real, cplx, flag = e.pi1
            if condition_c_check(real, cplx, known_surjective=flag) == "fail":
                failing_pairs.add((real, cplx))
        v = verdict(e)
        if v.overall == NOT_DECIDABLE:
            not_decidable.add(e.name)
        if e.family == "p2r" or affine_quadric_involvement(e.fibration, e.taxon):
            expected_not_decidable.add(e.name)
    ok = failing_pairs == {((0, ()), (1, ()))} and not_decidable == expected_not_decidable
    report(
        "condition-c-boundary",
        ok,
        f"failing descriptor pairs {sorted(failing_pairs)}; "
        f"not-decidable = {sorted(not_decidable)}",
    )


def test_criterion_fine_classification():
    nondeg = []
    parallel = []
    for e in catalog_entries():
        levi = levi_form(e.cr_pair)
        if not levi.degenerate_domain and levi.nondegenerate:
            fiber = e.fibration.fiber_algebra
            assert is_abelian(fiber), e.name
            assert e.fibration.fiber_dim <= e.model.codim, e.name
            nondeg.append(e.name)
        if e.model.h.dim == 0 and e.fibration.degenerate and e.kahler:
            if e.model.m.dim:
                m_sub, _ = subalgebra_structure(e.model.ambient_real, e.model.m)
                assert is_solvable(m_sub), e.name
            if e.model.codim <= 2:
                assert is_solvable(e.model.real_algebra), e.name
            parallel.append(e.name)
        rep = fine_classification_checks(e)
        assert rep.ok, (e.name, [(r.name, r.ok) for r in rep.checks])
    report(
        "fine-classification",
        len(nondeg) >= 3 and len(parallel) >= 2,
        f"nondegenerate {nondeg}; kahler parallelizable {parallel}",
    )


def test_criterion_randomized_kernel_suite():
    from crkit.algebra import heisenberg, killing_form, sl2, validate
    from crkit.catalog import build_su

    from .support import (
        build_sl_real,
        dense_bracket,
        form_value,
        random_solvable,
        random_vector,
    )

    t0 = time.time()
    rng = random.Random(1953)
    algebras = [
        sl2(),
        heisenberg(),
        build_su(2, 1),
        build_su(2, 0),
        build_sl_real(3),
        get_entry("heis_solv").model.real_algebra,
    ]
    checks = 0

    # bracket antisymmetry: 3000 random pairs
    for i in range(3000):
        L = algebras[i % len(algebras)]
        x, y = random_vector(rng, L), random_vector(rng, L)
        assert dense_bracket(L, x, y) == tuple(-v for v in dense_bracket(L, y, x))
        checks += 1

    # Jacobi identity: 3000 random triples
    for i in range(3000):
        L = algebras[i % len(algebras)]
        x, y, z = (random_vector(rng, L) for _ in range(3))
        total = [0] * L.dim
        for (a, b, c) in ((x, y, z), (y, z, x), (z, x, y)):
            v = dense_bracket(L, dense_bracket(L, a, b), c)
            total = [t + w for t, w in zip(total, v)]
        assert not any(total)
        checks += 1

    # Killing invariance: 2500 random triples
    kforms = [(L, killing_form(L)) for L in algebras]
    for i in range(2500):
        L, k = kforms[i % len(kforms)]
        x, y, z = (random_vector(rng, L) for _ in range(3))
        zx, zy = dense_bracket(L, z, x), dense_bracket(L, z, y)
        assert form_value(k, zx, y) + form_value(k, x, zy) == 0
        checks += 1

    # radical solvability: 500 random solvable algebras, 3 checks each
    for i in range(500):
        L = random_solvable(rng, 2 + (i % 4))
        assert validate(L).ok
        r = radical(L)
        assert r.dim == L.dim
        from crkit.algebra import derived_series, is_ideal

        assert is_ideal(L, r)
        checks += 3

    elapsed = time.time() - t0
    report(
        "randomized-kernel-suite",
        checks >= 10000 and elapsed < 60.0,
        f"{checks} exact checks, zero failures, {elapsed:.1f}s (< 60s)",
    )
