"""Cross-module behaviors: products, normalizer collapse, exit codes."""

from fractions import Fraction

from crkit.algebra import is_abelian, span
from crkit.catalog import complex_abelian, quadric_orbit
from crkit.cli import main
from crkit.complexify import (
    OrbitModel,
    anticanonical_fibration,
    cr_normalizer_algebra,
    product_model,
)
from crkit.globalize import radical_abelian_check

F = Fraction


def circle_model():
    ambient = complex_abelian(1)
    return OrbitModel(ambient, [(F(0), F(1))], [], name="circle")


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
    import crkit.cli as cli_mod
    from crkit.catalog import Expected, verify_entry

    real_verify = verify_entry

    def corrupted_verify(entry, expected=None):
        bad = Expected(codim=(entry.expected.codim or 0) + 1)
        return real_verify(entry, expected=bad)

    monkeypatch.setattr(cli_mod, "verify_entry", corrupted_verify)
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

