"""Price and dollar text against the Fraction formatting it replaced."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.numeric import fmt_dollars, fmt_price

DELTAS = [Fraction(1), Fraction(5), Fraction(1, 4), Fraction(1, 8), Fraction(1, 1000),
          Fraction(1, 3)]


def _fraction_fmt_dollars(x):
    """``fmt_dollars`` as it was, on Fraction products; frozen as the oracle."""
    cents = x * 100
    if cents.denominator == 1:
        sign = "-" if cents < 0 else ""
        c = abs(cents.numerator)
        return f"{sign}{c // 100}.{c % 100:02d}"
    return repr(float(x))


def _fraction_fmt_price(x, delta):
    """``fmt_price`` as it was, on Fraction products; frozen as the oracle."""
    for places in range(13):
        if (delta * 10 ** places).denominator == 1:
            break
    else:
        return repr(float(x))
    scaled = x * 10 ** places
    if scaled.denominator != 1:
        return repr(float(x))
    sign = "-" if scaled < 0 else ""
    digits = abs(scaled.numerator)
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits // 10 ** places}.{digits % 10 ** places:0{places}d}"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DELTAS), st.integers(-10 ** 9, 10 ** 9),
       st.fractions(max_denominator=2000, min_value=-10 ** 6, max_value=10 ** 6))
def test_fmt_price_matches_the_fraction_oracle(delta, count, off_grid):
    # on the grid (negative, zero and positive counts) and anywhere at all
    for price in (delta * count, off_grid):
        assert fmt_price(price, delta) == _fraction_fmt_price(price, delta)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-10 ** 12, 10 ** 12).map(lambda c: Fraction(c, 100)),
                 st.fractions(max_denominator=10 ** 6, min_value=-10 ** 6,
                              max_value=10 ** 6)))
def test_fmt_dollars_matches_the_fraction_oracle(dollars):
    assert fmt_dollars(dollars) == _fraction_fmt_dollars(dollars)


def test_fmt_goldens():
    assert fmt_price(Fraction("2350.25"), Fraction(1, 4)) == "2350.25"
    assert fmt_price(Fraction("-0.125"), Fraction(1, 8)) == "-0.125"
    assert fmt_price(Fraction(-10), Fraction(5)) == "-10"
    assert fmt_price(Fraction(1, 3), Fraction(1, 3)) == repr(1 / 3)     # no decimal grid
    assert fmt_price(Fraction(1, 8), Fraction(1, 4)) == "0.125"         # off the grid
    assert fmt_price(Fraction(1, 7), Fraction(1, 4)) == repr(1 / 7)
    assert fmt_dollars(Fraction("-90.64")) == "-90.64"
    assert fmt_dollars(Fraction(0)) == "0.00"
    assert fmt_dollars(Fraction(1, 100000)) == "1e-05"
