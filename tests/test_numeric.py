"""Number text in and out: the named refusal of bad number text, integer
scaling, and price, dollar and exact text against the formatting each replaced."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab.numeric import (ExponentError, as_fraction, exact_text, fmt_dollars, fmt_price,
                            scaled)

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


def test_number_text_no_fraction_reads_is_named():
    for x, text in [("abc", "abc"), ("1/0", "1/0"), ("23x", "23x"), ("", ""),
                    (float("nan"), "nan"), (float("-inf"), "-inf")]:
        with pytest.raises(ValueError) as info:
            as_fraction(x)
        assert type(info.value) is ValueError and str(info.value) == f"not a number: {text!r}"
    # a digit run past Python's int limit is named as such, the text cut short
    for text in ("1" * 5000, "0." + "1" * 4301, "1/" + "2_" * 4300 + "2"):
        with pytest.raises(ValueError) as info:
            as_fraction(text)
        assert type(info.value) is ValueError and \
            str(info.value) == f"over Python's 4300-digit int limit: {text[:20]!r}..."
    # the exponent is checked first, with its own message
    with pytest.raises(ExponentError, match=r"exponent out of range in '1e401' \(limit 400\)"):
        as_fraction("1e401")
    assert [as_fraction(x) for x in (" 1/4 ", 4.68, Decimal("0.1"), 3, "-1000.5")] == \
        [Fraction(1, 4), Fraction(117, 25), Fraction(1, 10), 3, Fraction(-2001, 2)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=10 ** 4), max_size=8))
def test_scaled_is_exact_over_the_least_common_denominator(values):
    ints, scale = scaled(iter(values))
    assert [Fraction(i, scale) for i in ints] == values
    assert scale == math.lcm(*[v.denominator for v in values])


def _old_exact_text(x):
    """The tick writer's price text as it was, for positive prices; frozen as the oracle."""
    den = x.denominator
    places = next((k for k in range(den.bit_length()) if 10 ** k % den == 0), None)
    if places is None:
        return f"{x.numerator}/{den}"
    whole, part = divmod(x.numerator * 10 ** places // den, 10 ** places)
    return f"{whole}.{part:0{places}d}" if places else str(whole)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 20), st.sampled_from([1, 2, 4, 8, 5, 25, 3, 7, 12, 2 ** 40, 10 ** 9]))
def test_exact_text_reads_back_and_matches_the_tick_writer(num, den):
    x = Fraction(num, den)
    assert exact_text(x) == _old_exact_text(x)
    for y in (x, -x):
        assert Fraction(exact_text(y)) == y
    assert exact_text(-x) == "-" + exact_text(x)


def test_exact_text_goldens():
    assert [exact_text(Fraction(x)) for x in ("2350.25", "2350", "-0.5", "1/3", "0")] == \
        ["2350.25", "2350", "-0.5", "1/3", "0"]
    assert exact_text(Fraction(1, 2 ** 10)) == "0.0009765625"
