"""Cross-module behaviors: products, normalizer collapse, exit codes, input guards."""

import copy
import re
from fractions import Fraction

import pytest

from crkit.algebra import (
    LieAlgebra,
    direct_sum,
    full_space,
    heisenberg,
    intersect,
    is_abelian,
    killing_signature,
    realify,
    sl2,
    span,
)
from crkit.catalog import complex_abelian, quadric_orbit
from crkit.cli import main
from crkit.complexify import (
    OrbitModel,
    anticanonical_fibration,
    cr_normalizer_algebra,
    product_model,
)
from crkit.cr import CRPair, levi_signature
from crkit.errors import InputError, StructureError
from crkit.fileio import load_pi1
from crkit.globalize import radical_abelian_check
from crkit.linalg import sparse
from crkit.scalars import QI, QQ

F = Fraction


def circle_model():
    ambient = complex_abelian(1)
    return OrbitModel(ambient, [sparse((F(0), F(1)))], [], name="circle")


def test_quadric_times_circle_fiber_is_one_dimensional_abelian():
    prod = product_model(quadric_orbit(2, 1).model, circle_model())
    rep = anticanonical_fibration(prod)
    assert rep.fiber_dim == 1
    assert is_abelian(rep.fiber_algebra)
    assert not rep.degenerate
    # additivity of fiber dimensions: 0 from the quadric, 1 from the circle
    quad_fib = anticanonical_fibration(quadric_orbit(2, 1).model)
    circ_fib = anticanonical_fibration(circle_model())
    assert rep.fiber_dim == quad_fib.fiber_dim + circ_fib.fiber_dim
    assert prod.codim == quadric_orbit(2, 1).model.codim + circle_model().codim


def test_su21_normalizer_collapses_to_isotropy():
    model = quadric_orbit(2, 1).model
    ncr = cr_normalizer_algebra(model)
    assert ncr == model.h
    assert ncr.dim == 5


def test_radical_abelian_check_basis_invariant():
    from crkit.catalog import build_sl_complex
    from crkit.algebra import direct_sum
    from crkit.scalars import GaussianRational as G

    ambient = direct_sum(build_sl_complex(2), complex_abelian(1))
    rows_a = [(G(1), G(0), G(0), G(0)), (G(0), G(0), G(0), G(1))]
    rows_b = [(G(2), G(0), G(0), G(2)), (G(0), G(0), G(0), G(-3))]  # same span
    a = span(ambient, rows_a)
    b = span(ambient, rows_b)
    assert a == b
    assert radical_abelian_check(ambient, a) == radical_abelian_check(ambient, b)


def test_catalog_verify_mismatch_exits_1(monkeypatch, capsys):
    import crkit.catalog as catalog_mod
    from crkit.catalog import verify_entry

    real_verify = verify_entry

    def corrupted_verify(entry):
        # a copy, so the cached entry keeps its record
        bad = copy.copy(entry)
        bad.expected = entry.expected._replace(codim=(entry.expected.codim or 0) + 1)
        return real_verify(bad)

    # the CLI imports verify_entry from crkit.catalog when the command runs
    monkeypatch.setattr(catalog_mod, "verify_entry", corrupted_verify)
    code = main(["catalog", "verify", "c2_torus"])
    out = capsys.readouterr().out
    assert code == 1
    assert "MISMATCH" in out


def test_verdict_rows_render(capsys):
    code = main(["catalog", "show", "twisted(1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition-c: unknown" in out
    assert "overall: globalizable-after-finite-quotient" in out


def test_catalog_verify_all(capsys):
    code = main(["catalog", "verify", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all-match" in out



# each public routine's guard against input it cannot take: (call, error, message)
GUARDS = {
    "algebra-unknown-field": (lambda: LieAlgebra(1, "R", ("a",), {}),
                              InputError, "unknown scalar field 'R'"),
    "algebra-name-count": (lambda: LieAlgebra(2, QQ, ("a",), {}),
                           InputError, "basis name count does not match dimension"),
    "algebra-key-order": (lambda: LieAlgebra(2, QQ, ("a", "b"), {(1, 0): {0: 1}}),
                          InputError, "bracket key (1, 0) must satisfy 0 <= i < j < dim"),
    "span-row-length": (lambda: span(sl2(), [(1, 0)]),
                        InputError, "subspace row length does not match algebra dimension"),
    "intersect-parents": (lambda: intersect(full_space(sl2()), full_space(heisenberg())),
                          InputError, "subspaces belong to different algebras"),
    "realify-real": (lambda: realify(sl2()),
                     InputError, "realify expects a complex (Q_i) algebra"),
    "killing-signature-complex": (lambda: killing_signature(sl2(QI)),
                                  InputError, "killing_signature needs a real (Q) algebra"),
    "direct-sum-empty": (lambda: direct_sum(),
                         InputError, "direct_sum needs at least one algebra"),
    "direct-sum-fields": (lambda: direct_sum(sl2(), sl2(QI)),
                          InputError, "direct_sum requires a single scalar field"),
    "cr-pair-complex": (lambda: CRPair(sl2(QI), full_space(sl2(QI)), full_space(sl2(QI)), {}),
                        StructureError, "CR pairs live on real (Q) algebras"),
    "cr-pair-parents": (lambda: CRPair(sl2(), full_space(heisenberg()), full_space(sl2()), {}),
                        InputError, "h and R must be subspaces of g"),
    "levi-codirection-length": (lambda: levi_signature(quadric_orbit(2, 1).cr_pair, (1, 0)),
                                InputError, "codirection must have length 1"),
    "orbit-real-ambient": (lambda: OrbitModel(sl2(), [], []),
                           InputError, "ambient algebra must be complex (Q_i)"),
    "orbit-row-index": (lambda: OrbitModel(complex_abelian(1), [{2: 1}], []),
                        InputError, "real basis rows must use realified coordinates"),
    "radical-parents": (lambda: radical_abelian_check(complex_abelian(1),
                                                      full_space(complex_abelian(2))),
                        InputError, "j_hat must be a subspace of the ambient algebra"),
    "pi1-shape": (lambda: load_pi1({"real": 3}),
                  InputError, "bad pi1 data: {'real': 3}"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_input_guards_raise_their_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert type(info.value) is error
