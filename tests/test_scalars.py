from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crkit.errors import InputError
from crkit.scalars import (
    QI,
    QQ,
    GaussianRational,
    format_scalar,
    parse_rational,
    parse_scalar,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gaussians = st.builds(GaussianRational, rationals, rationals)
I = GaussianRational(0, 1)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert a + b == GaussianRational(Fraction(4, 3), 1)
    assert a * I == GaussianRational(-2, 1)
    assert I * I == GaussianRational(-1)
    assert (a - a) == GaussianRational(0)
    assert a.conjugate() == GaussianRational(1, -2)


def test_division_is_exact():
    a = GaussianRational(3, 4)
    b = GaussianRational(1, -2)
    q = a / b
    assert q * b == a


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians)
def test_division_roundtrip(a):
    if a:
        assert (GaussianRational(1) / a) * a == GaussianRational(1)


def test_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_scalar("1/2", QQ) == Fraction(1, 2)
    assert parse_scalar(["1/2", "-1"], QI) == GaussianRational(Fraction(1, 2), -1)
    assert parse_scalar("5", QI) == GaussianRational(5)
    with pytest.raises(InputError):
        parse_rational("nope")
    with pytest.raises(InputError):
        parse_scalar(["1", "2", "3"], QI)


def test_formatting_roundtrip():
    assert format_scalar(Fraction(-7, 3), QQ) == "-7/3"
    assert format_scalar(GaussianRational(1, -2), QI) == ["1", "-2"]
    assert format_scalar(GaussianRational(4), QI) == "4"
