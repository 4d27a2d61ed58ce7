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
from typing import Mapping, NamedTuple, Sequence

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


class _ActionFields(NamedTuple):
    counts: Mapping[int, int]
    total: int


class ActionDistribution(_ActionFields):
    """Exact action-type counts over the universe; total = n(2W+1)^(n-1)."""

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, counts: Mapping[int, int], total: int):
        if sum(counts.values()) != total:
            raise ValueError("action counts must sum to the total")
        return super().__new__(cls, counts, total)

    def pmf(self) -> dict[int, Fraction]:
        return {m: Fraction(c, self.total) for m, c in sorted(self.counts.items())}


def universe_counts(p: UniverseParams) -> UniverseCounts:
    """The four closed-form universe totals."""
    b, n = p.base, p.n
    return UniverseCounts(
        strategies=b ** (n - 1),
        actions_total=n * b ** (n - 1),
        do_nothing=n * b ** (n - 2),
        transactions=2 * n * p.limit * b ** (n - 2),
    )


def action_count(m: int, p: UniverseParams) -> int:
    """Exact number of actions of size m over the whole universe.

    Count_A = [(2W+1)n - (n-2)|m|] (2W+1)^(n-3) for |m| <= W, and
    Count_B = Count_A - 2(2W+1)^(n-2) for W < |m| <= 2W.  The n-3 exponent
    is evaluated as an exact rational so n = 2 works (counts stay integral).
    """
    w, n, b = p.limit, p.n, p.base
    a = abs(m)
    if a > 2 * w:
        return 0
    count = Fraction(b * n - (n - 2) * a) * Fraction(b) ** (n - 3)
    if a > w:
        count -= 2 * Fraction(b) ** (n - 2)
    if count.denominator != 1:
        raise ArithmeticError(f"non-integral action count for m={m}, {p}")
    return count.numerator


def action_distribution(p: UniverseParams) -> ActionDistribution:
    counts = {m: action_count(m, p) for m in range(-2 * p.limit, 2 * p.limit + 1)}
    return ActionDistribution(counts, p.n * p.size)


def action_pmf(p: UniverseParams) -> dict[int, Fraction]:
    """Exact PMF of action sizes; p(0) = 1/(2W+1) independently of n.

    Count / (n (2W+1)^(n-1)) with the common power cancelled, in O(1) per m:
    (bn - (n-2)|m|) / (n b^2), less 2 / (n b) for |m| > W, where b = 2W+1.
    """
    w, n, b = p.limit, p.n, p.base
    return {m: Fraction(b * n - (n - 2) * abs(m), n * b * b)
            - (Fraction(2, n * b) if abs(m) > w else 0)
            for m in range(-2 * w, 2 * w + 1)}


def limit_pmf(p: UniverseParams) -> dict[int, Fraction]:
    """n -> infinity limit of the PMF: (2W+1-|m|)/(2W+1)^2."""
    b = p.base
    return {m: Fraction(b - abs(m), b * b) for m in range(-2 * p.limit, 2 * p.limit + 1)}


def action_cdf(x: Rational, p: UniverseParams) -> Fraction:
    """Right-continuous step CDF F(x) of the action distribution."""
    xf = as_fraction(x) if not isinstance(x, float) else x
    pmf = action_pmf(p)
    return sum((q for m, q in pmf.items() if m <= xf), Fraction(0))


def char_fn(t: float, p: UniverseParams) -> float:
    """Characteristic function f(t); real and even, f(0) = 1 exactly.

    Cosines are IEEE floats but the PMF weights stay rational, so values at
    t = 0 and the evenness f(-t) = f(t) are exact.
    """
    acc = Fraction(0)
    for m, q in action_pmf(p).items():
        acc += q * Fraction(math.cos(t * m))
    return float(acc)


def char_fn_curvature(p: UniverseParams, h: float = 1e-3) -> float:
    """-f''(0) by a fourth-order central stencil; approximates moment(2)."""
    f = lambda t: char_fn(t, p)
    return -(-f(2 * h) + 16 * f(h) - 30.0 + 16 * f(-h) - f(-2 * h)) / (12 * h * h)


def moment(s: int, p: UniverseParams) -> Fraction:
    """Beginning moment alpha_s from the s-th derivative of f at t=0.

    d^s/dt^s cos(mt) = m^s cos(mt + pi s/2), so odd moments vanish and even
    ones reduce to three exact power sums.
    """
    if s < 0:
        raise ValueError("moment order must be >= 0")
    if s % 2 == 1:
        return Fraction(0)
    w, n, b = p.limit, p.n, p.base
    pow_s = sum(Fraction(m) ** s for m in range(1, 2 * w + 1))
    pow_s1 = sum(Fraction(m) ** (s + 1) for m in range(1, 2 * w + 1))
    pow_s_hi = sum(Fraction(m) ** s for m in range(w + 1, 2 * w + 1))
    alpha = (Fraction(2) * pow_s / b
             - Fraction(2 * (n - 2)) * pow_s1 / (n * b * b)
             - Fraction(4) * pow_s_hi / (n * b))
    if s == 0:
        alpha += Fraction(1, b)
    return alpha


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
    w, n, b = p.limit, p.n, p.base
    total = 2 * c * w * (w + 1) * Fraction(b) ** (n - 2) * Fraction(2 * n - 1, 3)
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


def slice_sums(i: int, p: UniverseParams) -> SliceSums:
    """Universe sums of U_i, |U_i|, U_i^2 in the time slice i (1-based)."""
    w, n, b = p.limit, p.n, p.base
    if not 1 <= i <= n:
        raise ValueError(f"slice index {i} out of [1, {n}]")
    ww1 = w * (w + 1)
    if i == 1 or i == n:
        sum_abs = ww1 * b ** (n - 2)
        sum_sq = _exact_div(ww1 * b ** (n - 1), 3)
    else:
        sum_abs = _exact_div(4 * ww1 * b ** (n - 2), 3)
        sum_sq = _exact_div(2 * ww1 * b ** (n - 1), 3)
    return SliceSums(0, sum_abs, sum_sq)


def position_cov(i: int, l: int, p: UniverseParams) -> int:
    """sum_j W_{i,j} W_{l,j}: W(W+1)(2W+1)^(n-1)/3 on the diagonal, else 0."""
    w, n, b = p.limit, p.n, p.base
    if not (1 <= i <= n and 1 <= l <= n):
        raise ValueError("slice index out of range")
    if i == n or l == n or i != l:
        return 0
    return _exact_div(w * (w + 1) * b ** (n - 1), 3)


def action_cov(i: int, lag: int, p: UniverseParams) -> int:
    """sum_j U_{i,j} U_{i+lag,j}: -W(W+1)(2W+1)^(n-1)/3 at lag 1, else 0."""
    w, n, b = p.limit, p.n, p.base
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if not (1 <= i and i + lag <= n):
        raise ValueError("indices out of range")
    if lag != 1:
        return 0
    return -_exact_div(w * (w + 1) * b ** (n - 1), 3)


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


def abs_action_cov(i: int, r: int, p: UniverseParams) -> int:
    """sum_j |U_{i,j}| |U_{r,j}| via the closed forms A-F."""
    w, n, b = p.limit, p.n, p.base
    case = abs_action_case(i, r, p)
    ww1 = w * (w + 1)
    scale = b ** (n - 3) if n >= 3 else None
    if case == "A":
        value = Fraction(ww1 * b, 3)
    elif case == "B":
        value = Fraction(3 * ww1 * ww1 * scale, 2)
    elif case == "C":
        value = Fraction(ww1 * ww1 * scale)
    elif case == "D":
        value = Fraction(4 * ww1 * ww1 * scale, 3)
    elif case == "E":
        value = Fraction(w * (28 * w ** 3 + 56 * w * w + 27 * w - 1) * scale, 15)
    else:
        value = Fraction(16 * ww1 * ww1 * scale, 9)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral covariance for ({i},{r}), {p}")
    return value.numerator


class PlVariance(NamedTuple):
    var_price_leg: Fraction
    var_cost_leg: Fraction
    var_total: Fraction


def pl_variance(prices: Sequence[Rational], cost: Rational, p: UniverseParams,
                k: Rational) -> PlVariance:
    """Sample variance of PL over the universe for one price scenario.

    The price-leg variance depends only on squared increments,
    k^2 W(W+1) S / (3(S-1)) * sum(dP^2); the cost-leg variance has an n = 2
    special case and a general 3 <= n closed form; the two add exactly
    because the cross moment sum_j PL^I_j PL^II_j vanishes.
    """
    ps = as_fractions(prices)
    if len(ps) != p.n:
        raise ValueError(f"expected {p.n} prices, got {len(ps)}")
    c = as_fraction(cost)
    kf = as_fraction(k)
    w, n, b, s = p.limit, p.n, p.base, p.size
    sq_incr = sum((ps[i] - ps[i - 1]) ** 2 for i in range(1, n))
    var_i = kf * kf * Fraction(w * (w + 1) * s, 3 * (s - 1)) * sq_incr
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
