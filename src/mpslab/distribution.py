"""Closed-form combinatorics of the strategy universe.

For a position limit W and n ticks there are (2W+1)^(n-1) strategies whose
positions stay inside [-W, W] and end flat.  This module carries the exact
counting results over that universe: how many strategies, actions,
do-nothings and transactions there are, the full distribution of action
sizes m in [-2W, 2W] (counts, PMF, CDF, characteristic function, moments),
the dollars the universe pays the industry, per-tick slice sums, and the
position/action covariance identities.  Counts are Python big ints and
probabilities exact Fractions; nothing here is floating point except the
characteristic function's cosines.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .model import PositionSeries, Strategy, _checked_make, positions_to_strategy
from .numeric import Rational, as_fraction, as_fractions


class _UniverseFields(NamedTuple):
    limit: int
    n: int


class UniverseParams(_UniverseFields):
    """Position limit W >= 1 and tick count n >= 2."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, limit: int, n: int):
        if limit < 1:
            raise ValueError("position limit must be >= 1")
        if n < 2:
            raise ValueError("formulas need n >= 2 (n=1 leaves only the do-nothing strategy)")
        return super().__new__(cls, limit, n)

    @property
    def base(self) -> int:
        """Number of admissible positions per tick, 2W+1."""
        return 2 * self.limit + 1

    @property
    def size(self) -> int:
        """Number of strategies in the universe, (2W+1)^(n-1)."""
        return self.base ** (self.n - 1)


class UniverseCounts(NamedTuple):
    strategies: int
    actions_total: int
    do_nothing: int
    transactions: int


def universe_counts(p: UniverseParams) -> UniverseCounts:
    """The four closed-form universe totals."""
    b, n = p.base, p.n
    return UniverseCounts(
        strategies=b ** (n - 1),
        actions_total=n * b ** (n - 1),
        do_nothing=n * b ** (n - 2),
        transactions=2 * n * p.limit * b ** (n - 2),
    )


def _weight(m: Rational, p: UniverseParams) -> int:
    """The action law as an integer weight over n b^2, b = 2W+1: slices 1 and n
    uniform on [-W, W] (b each), the n-2 middle ones triangular (b - |m|), so
    r(m) = b n - (n-2)|m| - 2b [|m| > W] for an integer |m| <= 2W, else 0."""
    w, n = p.limit, p.n
    a = abs(m)
    if a > 2 * w or a % 1:
        return 0
    b = 2 * w + 1
    return b * n - (n - 2) * int(a) - (2 * b if a > w else 0)


def action_weights(p: UniverseParams) -> Iterator[tuple[int, int]]:
    """(m, r(m)) for each action size m in [-2W, 2W], in order."""
    return ((m, _weight(m, p)) for m in range(-2 * p.limit, 2 * p.limit + 1))


def action_count(m: Rational, p: UniverseParams) -> int:
    """Exact number of actions of size m among the n b^(n-1) of the universe,
    r(m) n b^(n-1) / (n b^2): exact for n = 2 too, and 0 for a non-integral m."""
    b = p.base
    return _weight(m, p) * b ** (p.n - 1) // (b * b)


def action_pmf(p: UniverseParams) -> dict[int, Fraction]:
    """Exact PMF of action sizes, r(m) / (n b^2); p(0) = 1/(2W+1) for every n."""
    den = p.n * p.base ** 2
    return {m: Fraction(r, den) for m, r in action_weights(p)}


def limit_pmf(p: UniverseParams) -> dict[int, Fraction]:
    """n -> infinity limit of the PMF: (2W+1-|m|)/(2W+1)^2."""
    b = p.base
    return {m: Fraction(b - abs(m), b * b) for m in range(-2 * p.limit, 2 * p.limit + 1)}


def action_cdf(x: Rational, p: UniverseParams) -> Fraction:
    """Right-continuous step CDF F(x) of the action distribution."""
    xf = as_fraction(x) if not isinstance(x, float) else x
    return Fraction(sum(r for m, r in action_weights(p) if m <= xf), p.n * p.base ** 2)


def char_fn(t: float, p: UniverseParams) -> float:
    """Characteristic function f(t), real and even: the cosines are floats but
    the integer weights sum exactly, so f(0) = 1 and f(-t) = f(t) exactly."""
    acc = sum(r * Fraction(math.cos(t * m)) for m, r in action_weights(p))
    return float(acc / (p.n * p.base ** 2))


def moment(s: int, p: UniverseParams) -> Fraction:
    """Beginning moment alpha_s = sum r(m) m^s / (n b^2); odd moments vanish."""
    if s < 0:
        raise ValueError("moment order must be >= 0")
    return Fraction(sum(r * m ** s for m, r in action_weights(p)), p.n * p.base ** 2)


def variance(p: UniverseParams) -> Fraction:
    """Closed form mu_2 = 2W(W+1)(n-1)/(3n)."""
    w, n = p.limit, p.n
    return Fraction(2 * w * (w + 1) * (n - 1), 3 * n)


class IndustryGain(NamedTuple):
    total_dollars: Fraction
    mean_pl: Fraction


def industry_gain(cost: Rational, p: UniverseParams) -> IndustryGain:
    """Dollars the whole universe pays as costs, and the (negative) mean PL."""
    c = as_fraction(cost)
    if c < 0:
        raise ValueError("cost must be non-negative")
    w, n = p.limit, p.n
    total = c * _exact_div(2 * w * (w + 1) * (2 * n - 1) * p.base ** (n - 2), 3)
    return IndustryGain(total, -total / p.size)


class ExtremeGain(NamedTuple):
    """Extreme industry gains: coefficients are dollars per unit cost."""

    max_gain: int
    witness_count: int
    witnesses: tuple[Strategy, Strategy]
    min_gain: int = 0
    min_witness_count: int = 1


def extreme_gain_strategies(p: UniverseParams) -> ExtremeGain:
    """Only two strategies reach the maximum gain 2CW(n-1): the full
    reversal chain (W, -2W, ..., 2W, -W) and its negation."""
    w, n = p.limit, p.n
    positions = [w if i % 2 == 0 else -w for i in range(n - 1)] + [0]
    witness = positions_to_strategy(PositionSeries(positions))
    return ExtremeGain(max_gain=2 * w * (n - 1), witness_count=2,
                       witnesses=(witness, -witness))


class SliceSums(NamedTuple):
    sum_u: int
    sum_abs_u: int
    sum_u2: int


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def _square_sum(p: UniverseParams) -> int:
    """Q = W(W+1)(2W+1)^(n-1)/3: the universe sum of U_1^2, of U_n^2 and of
    each W_i^2 with i < n, and minus that of each U_i U_{i+1}."""
    w = p.limit
    return _exact_div(w * (w + 1) * p.base ** (p.n - 1), 3)


def slice_sums(i: int, p: UniverseParams) -> SliceSums:
    """Universe sums of U_i, |U_i|, U_i^2 in the time slice i (1-based):
    the edge slices square-sum to Q, the middle ones to 2Q."""
    w, n, b = p.limit, p.n, p.base
    if not 1 <= i <= n:
        raise ValueError(f"slice index {i} out of [1, {n}]")
    ww1 = w * (w + 1)
    if i == 1 or i == n:
        return SliceSums(0, ww1 * b ** (n - 2), _square_sum(p))
    return SliceSums(0, _exact_div(4 * ww1 * b ** (n - 2), 3), 2 * _square_sum(p))


def position_cov(i: int, l: int, p: UniverseParams) -> int:
    """sum_j W_{i,j} W_{l,j}: Q on the diagonal, else 0."""
    n = p.n
    if not (1 <= i <= n and 1 <= l <= n):
        raise ValueError("slice index out of range")
    if i == n or l == n or i != l:
        return 0
    return _square_sum(p)


def action_cov(i: int, lag: int, p: UniverseParams) -> int:
    """sum_j U_{i,j} U_{i+lag,j}: -Q at lag 1, else 0."""
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if not (1 <= i and i + lag <= p.n):
        raise ValueError("indices out of range")
    return -_square_sum(p) if lag == 1 else 0


def abs_action_case(i: int, r: int, p: UniverseParams) -> str:
    """Which of the six closed forms A-F applies to the pair (i, r), i < r."""
    n = p.n
    if not (1 <= i < r <= n):
        raise ValueError(f"need 1 <= i < r <= n, got ({i}, {r}) for n={n}")
    if n == 2:
        return "A"
    if (i, r) == (1, 2) or (i, r) == (n - 1, n):
        return "B"
    if (i, r) == (1, n):
        return "C"
    if i == 1 or r == n:
        return "D"
    if r == i + 1:
        return "E"
    return "F"


# the closed forms B-F as x (a x + e) b^(n-3) / d with x = W(W+1), b = 2W+1:
# (a, e, d); E's numerator W(28W^3 + 56W^2 + 27W - 1) is x (28 x - 1)
_ABS_COV_FORMS = {"B": (3, 0, 2), "C": (1, 0, 1), "D": (4, 0, 3),
                  "E": (28, -1, 15), "F": (16, 0, 9)}


def abs_action_cov(i: int, r: int, p: UniverseParams) -> int:
    """sum_j |U_{i,j}| |U_{r,j}| via the closed forms A-F; A (n = 2) is Q."""
    case = abs_action_case(i, r, p)
    if case == "A":
        return _square_sum(p)
    a, e, d = _ABS_COV_FORMS[case]
    x = p.limit * (p.limit + 1)
    return _exact_div(x * (a * x + e) * p.base ** (p.n - 3), d)


class PlVariance(NamedTuple):
    var_price_leg: Fraction
    var_cost_leg: Fraction
    var_total: Fraction


def pl_variance(prices: Sequence[Rational], cost: Rational, p: UniverseParams,
                k: Rational) -> PlVariance:
    """Sample variance of PL over the universe for one price scenario.

    The price-leg variance depends only on squared increments,
    k^2 Q sum(dP^2) / (S-1), S the universe size; the cost-leg variance has
    an n = 2 special case and a general 3 <= n closed form; the two add
    exactly because the cross moment sum_j PL^I_j PL^II_j vanishes.
    """
    ps = as_fractions(prices)
    if len(ps) != p.n:
        raise ValueError(f"expected {p.n} prices, got {len(ps)}")
    c = as_fraction(cost)
    kf = as_fraction(k)
    w, n, b, s = p.limit, p.n, p.base, p.size
    sq_incr = sum((ps[i] - ps[i - 1]) ** 2 for i in range(1, n))
    var_i = kf * kf * Fraction(_square_sum(p), s - 1) * sq_incr
    if n == 2:
        # The additive structure PL^II = -2C|m| over m in [-W, W] gives
        # 2C^2 (W+1)(W^2+W+1) / (3(2W+1)); matches the enumeration oracle.
        var_ii = 2 * c * c * Fraction((w + 1) * (w * w + w + 1), 3 * b)
    else:
        var_ii = (4 * c * c * w * (w + 1) * b ** (n - 3)
                  * Fraction(6 * n * (2 * w * w + 2 * w + 1) - 11 * w * (w + 1) - 3,
                             45 * (s - 1)))
    return PlVariance(var_i, var_ii, var_i + var_ii)


def pl_price_variance_bound(prices: Sequence[Rational], p: UniverseParams,
                            k: Rational) -> Fraction:
    """Upper bound 4 k^2 W^2 (sum P_i)^2 on the price-leg variance."""
    ps = as_fractions(prices)
    kf = as_fraction(k)
    return 4 * kf * kf * p.limit ** 2 * sum(ps) ** 2
