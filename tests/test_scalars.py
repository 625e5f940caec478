import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crkit.errors import InputError
from crkit.scalars import (
    MAX_DIGITS,
    QI,
    QQ,
    GaussianRational,
    format_rational,
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
    assert type(parse_rational("-2")) is int
    assert parse_scalar("1/2", QQ) == Fraction(1, 2)
    assert parse_scalar(["1/2", "-1"], QI) == GaussianRational(Fraction(1, 2), -1)
    assert parse_scalar("5", QI) == GaussianRational(5)
    with pytest.raises(InputError):
        parse_rational("nope")
    with pytest.raises(InputError):
        parse_scalar(["1", "2", "3"], QI)


# digit runs up to the cap, drawn as a repeated digit to keep examples small
DIGITS = st.one_of(
    st.integers(min_value=0, max_value=10**30).map(str),
    st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, MAX_DIGITS)),
)


@given(st.sampled_from(["", "-"]), DIGITS, st.none() | DIGITS)
def test_parse_rational_reads_the_grammar(sign, num, den):
    text = sign + num + ("" if den is None else "/" + den)
    if den is not None and not int(den):
        with pytest.raises(InputError):
            parse_rational(text)
    else:
        assert parse_rational(text) == Fraction(text)


OUTSIDE_GRAMMAR = st.one_of(
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-9, 10**7)),
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 99)),
    st.text(st.characters(categories=["Nd"], exclude_characters="0123456789"),
            min_size=1, max_size=4),
    st.builds(str.__mul__, st.sampled_from("123456789"),
              st.integers(MAX_DIGITS + 1, MAX_DIGITS + 40)),
    st.integers(MAX_DIGITS + 1, MAX_DIGITS + 40).map(lambda k: "1/" + "3" * k),
    st.sampled_from(["", "-", "1_000", " 1", "1 ", "1\n", "+1", "--1", "1/-2", "1/", "/2",
                     "1/2/3", "0x10", "１", "٣"]),
)


@given(OUTSIDE_GRAMMAR)
def test_parse_rational_rejects_what_the_grammar_does_not_hold(text):
    with pytest.raises(InputError, match="bad rational literal"):
        parse_rational(text)


def test_formatting_roundtrip():
    assert format_scalar(Fraction(-7, 3), QQ) == "-7/3"
    assert format_scalar(GaussianRational(1, -2), QI) == ["1", "-2"]
    assert format_scalar(GaussianRational(4), QI) == "4"


def horner(digits):
    """The int of a decimal digit string, built one digit at a time, not by int(str)."""
    n = 0
    for d in digits:
        n = 10 * n + "0123456789".index(d)
    return n


@pytest.mark.parametrize("width", [1, 599, 600, 601, 1200, 1201, 4300, 4301, 5000, 12001])
def test_format_rational_at_any_size(width):
    # str(int) refuses more than 4,300 digits by default; the output must not
    rng = random.Random(width)
    digits = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(width - 1))
    n = horner(digits)
    assert format_rational(n) == digits
    assert format_rational(-n) == "-" + digits
    if n > 1:
        assert format_rational(Fraction(-1, n)) == "-1/" + digits
    assert format_rational(10 ** width) == "1" + "0" * width
    assert format_rational(Fraction(-1, 10 ** width)) == "-1/1" + "0" * width
