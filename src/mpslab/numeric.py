"""Exact-arithmetic helpers shared across the package.

All dollar and price arithmetic is done in ``fractions.Fraction`` so that
values like $90.64 stay exact.  Floats are accepted at the boundary and
converted through their shortest decimal repr ("4.68" -> 117/25), which is
what a user typing 4.68 means.
"""

from __future__ import annotations

import math
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Optional, Union

Rational = Union[int, str, float, Decimal, Fraction]

# past every exponent repr(float) prints (1e+308, 5e-324); Fraction('1e3000000')
# would build 10**3000000 first
MAX_EXPONENT = 400


class ExponentError(ValueError):
    """Number text whose exponent is out of range."""


class BudgetExceeded(RuntimeError):
    """A request larger than the configured budget, refused before any work."""


def as_fraction(x: Rational) -> Fraction:
    """An exact Fraction of a number-like value; text, or a float's repr, that
    no Fraction reads ('abc', '1/0', 'nan') is a ValueError naming it."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        x = str(x)
    if isinstance(x, str):
        _, e, exponent = x.lower().partition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if e and digits.isdecimal() and (len(digits) > 9 or int(digits) > MAX_EXPONENT):
            raise ExponentError(f"exponent out of range in {x!r} (limit {MAX_EXPONENT})")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            limit = sys.get_int_max_str_digits()    # 0 is no limit
            if 0 < limit < max(map(len, re.findall(r"\d+", x.replace("_", ""))), default=0):
                raise ValueError(f"over Python's {limit}-digit int limit: {x[:20]!r}...") from None
            raise ValueError(f"not a number: {x!r}") from None
    if isinstance(x, Decimal):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact number")


def as_fractions(xs: Iterable[Rational]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(x) for x in xs)


def scaled(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as exact integers over their least common denominator,
    and that denominator."""
    values = list(values)
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _decimal(x: Fraction, den: int, limit: int) -> Optional[str]:
    """``x`` in decimal with the fewest places, at most ``limit``, that write
    every multiple of 1/den; None past ``limit`` or if ``x`` is not one."""
    for places in range(limit + 1):
        if 10 ** places % den == 0:
            digits, rest = divmod(x.numerator * 10 ** places, x.denominator)
            if rest:
                return None
            whole, part = divmod(abs(digits), 10 ** places)
            text = f"{whole}.{part:0{places}d}" if places else str(whole)
            return "-" + text if digits < 0 else text
    return None


_CENT = Fraction(1, 100)


def fmt_dollars(x: Fraction) -> str:
    """Render a dollar amount, exact to the cent when it is one."""
    return fmt_price(x, _CENT)


def fmt_price(x: Fraction, delta: Fraction) -> str:
    """Quote-style price text with the decimals the grid needs (0.25 -> 2),
    or the float repr past 12 places or off the grid's decimals."""
    return _decimal(x, delta.denominator, 12) or repr(float(x))


def exact_text(x: Fraction) -> str:
    """Text of ``x`` that reads back exactly: every decimal digit when the
    expansion ends ('2350.25', '-0.5', '2350'), else 'numerator/denominator'."""
    den = x.denominator
    return _decimal(x, den, den.bit_length()) or f"{x.numerator}/{den}"
