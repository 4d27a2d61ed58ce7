"""Exact-arithmetic helpers shared across the package.

All dollar and price arithmetic is done in ``fractions.Fraction`` so that
values like $90.64 stay exact.  Floats are accepted at the boundary and
converted through their shortest decimal repr ("4.68" -> 117/25), which is
what a user typing 4.68 means.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, str, float, Decimal, Fraction]

# past every exponent repr(float) prints (1e+308, 5e-324); Fraction('1e3000000')
# would build 10**3000000 first
MAX_EXPONENT = 400


class ExponentError(ValueError):
    """Number text whose exponent is out of range."""


class BudgetExceeded(RuntimeError):
    """A request larger than the configured budget, refused before any work."""


def as_fraction(x: Rational) -> Fraction:
    """Convert a number-like value to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        _, e, exponent = x.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 9 or int(digits) > MAX_EXPONENT):
            raise ExponentError(f"exponent out of range in {x!r} (limit {MAX_EXPONENT})")
        return Fraction(x)
    if isinstance(x, Decimal):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact number")


def as_fractions(xs: Iterable[Rational]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(x) for x in xs)


def money_scale(values: Iterable[Fraction]) -> int:
    """Least common denominator, turning the values into exact integers."""
    scale = 1
    for v in values:
        scale = scale * v.denominator // math.gcd(scale, v.denominator)
    return scale


def scaled_ints(values: Sequence[Fraction], scale: int) -> list[int]:
    out = []
    for v in values:
        num = v.numerator * scale
        if num % v.denominator:
            raise ValueError(f"{v} does not scale to an integer by {scale}")
        out.append(num // v.denominator)
    return out


def fmt_dollars(x: Fraction) -> str:
    """Render a dollar amount, exact to the cent when it is one."""
    cents, rest = divmod(x.numerator * 100, x.denominator)
    if rest:
        return repr(float(x))
    sign = "-" if cents < 0 else ""
    whole, cents = divmod(abs(cents), 100)
    return f"{sign}{whole}.{cents:02d}"


def fmt_price(x: Fraction, delta: Fraction) -> str:
    """Quote-style price text with the decimals the grid needs (0.25 -> 2)."""
    for places in range(13):
        if 10 ** places % delta.denominator == 0:
            break
    else:
        return repr(float(x))
    scale = 10 ** places
    scaled, rest = divmod(x.numerator * scale, x.denominator)
    if rest:
        return repr(float(x))
    sign = "-" if scaled < 0 else ""
    if places == 0:
        return f"{sign}{abs(scaled)}"
    whole, part = divmod(abs(scaled), scale)
    return f"{sign}{whole}.{part:0{places}d}"
