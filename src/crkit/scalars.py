"""Exact scalars: rationals inside, Gaussian rationals only at the edges.

Every computation in the toolkit runs over Q with arbitrary precision
integers underneath, a complex one on the realification.  There is
deliberately no floating-point fallback anywhere: signatures, ranks and
kernels are tolerance-free.

A GaussianRational exists only at the edges: parse_scalar returns one
for a nonreal Q(i) file scalar, which its algebra stores until realify
splits it into rational parts, and format_scalar reads one from a
nonreal output entry.  The class keeps its field arithmetic because the
benchmark's per-layer trace counts calls of its operators
(scalars.gaussian_ops).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError, excerpt

QQ = "Q"
QI = "Q_i"

ZERO = Fraction(0)


class GaussianRational:
    """A number a + b*i with rational a, b.

    Supports field arithmetic, conjugation and exact division.  Mixed
    arithmetic with int / Fraction promotes the other operand.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other.__truediv__(self)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return None


def compact(x):
    """Collapse integral values to plain ints; exact and much cheaper.

    Mixed int / Fraction arithmetic coerces correctly, so integer-valued
    entries may always be stored unboxed; an integral GaussianRational from
    the parser collapses too.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, GaussianRational):
        if x.im == 0 and x.re.denominator == 1:
            return x.re.numerator
        return x
    return x


def exact_div(a, b):
    """a / b staying in exact arithmetic (never float) for int operands."""
    if isinstance(a, int) and isinstance(b, int):
        return compact(Fraction(a, b))
    return compact(a / b)


def real_part(x):
    return x.re if isinstance(x, GaussianRational) else x


def imag_part(x):
    return x.im if isinstance(x, GaussianRational) else ZERO


# digits in a numerator or a denominator: Python's default int_max_str_digits, fixed
MAX_DIGITS = 4300
_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def parse_rational(text):
    """Parse "num/den" or "num", -?[0-9]+(/[0-9]+)? in ASCII digits, into a Fraction.

    An integer literal "num" gives an int, which is how callers store an
    integral value anyway.  Anything else, a part past MAX_DIGITS digits or
    a zero denominator raises InputError.
    """
    if not isinstance(text, str):
        raise InputError(f"expected rational literal string, got {excerpt(repr(text))}")
    match = _RATIONAL.fullmatch(text)
    if match is None or max(len(match[2]), len(match[3] or "")) > MAX_DIGITS:
        problem = f"want -?[0-9]+(/[0-9]+)? with at most {MAX_DIGITS} digits in each part"
    else:
        try:
            if match[3] is None:
                return int(match[1] + match[2])
            return Fraction(int(match[1] + match[2]), int(match[3]))
        except (ValueError, ZeroDivisionError) as exc:
            problem = excerpt(str(exc))
    raise InputError(f"bad rational literal {excerpt(repr(text))}: {problem}")


def parse_scalar(value, field):
    """Parse a file scalar: "num/den" over Q, ["re", "im"] pair over Q(i)."""
    if field == QQ:
        return parse_rational(value)
    if field == QI:
        if isinstance(value, str):
            return GaussianRational(parse_rational(value))
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return GaussianRational(parse_rational(value[0]), parse_rational(value[1]))
        raise InputError(
            f"bad Q(i) literal {excerpt(repr(value))}: want \"a/b\" or [\"a/b\", \"c/d\"]"
        )
    raise InputError(f"unknown field tag {field!r}")


# digits per str() call: below 640, the least int_max_str_digits Python accepts
_PIECE = 600
_PIECE_BOUND = 10 ** _PIECE


def _decimal(n):
    """The decimal digits of an int n >= 0, past str(int)'s limit of 4,300 digits.

    n is split by the powers 10^(600 * 2^j) into pieces below 10^600,
    each written zero-padded to 600 digits.
    """
    if n < _PIECE_BOUND:
        return str(n)
    powers = [_PIECE_BOUND]
    while powers[-1] <= n:
        powers.append(powers[-1] * powers[-1])

    def digits(m, j):
        # m < powers[j + 1], written with exactly _PIECE * 2^(j + 1) digits
        if j < 0:
            return str(m).zfill(_PIECE)
        hi, lo = divmod(m, powers[j])
        return digits(hi, j - 1) + digits(lo, j - 1)

    return digits(n, len(powers) - 2).lstrip("0")


def format_rational(x):
    """x as "num/den", or "num" when integral; exact at any size."""
    x = Fraction(x)
    num = x.numerator
    text = _decimal(num) if num >= 0 else "-" + _decimal(-num)
    if x.denominator == 1:
        return text
    return f"{text}/{_decimal(x.denominator)}"


def format_scalar(x, field):
    if field == QQ:
        return format_rational(x)
    im = imag_part(x)
    if im == 0:
        return format_rational(real_part(x))
    return [format_rational(real_part(x)), format_rational(im)]
