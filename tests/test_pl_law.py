"""The exact P&L law of the strategy universe, by a counting transfer DP
over positions, against the paper's money closed forms: universe size,
mean and variance of P&L, the maximum profit strategy, the brute-force
extrema and the extreme gain strategies, at universes up to 10^94."""

import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mpslab import (ContractSpec, brute_force_mls, brute_force_mps, extreme_gain_strategies,
                    industry_gain, mps0, pl_variance, universe_counts)
from mpslab.distribution import UniverseParams
from mpslab.numeric import as_fraction, scaled


def pl_law(prices, cost, limit, k=1):
    """The P&L law of the universe at position limit ``limit``: a Counter of
    P&L times ``scale`` -> strategies, and that scale.  A strategy adds
    -(k P_i u + c |u|) at tick i for its action u = w - v from position v to
    w, and its last position is 0; the law is carried per position, in the
    integers of ``numeric.scaled``."""
    ints, scale = scaled([as_fraction(k) * as_fraction(x) for x in prices]
                         + [as_fraction(cost)])
    *moves, c = ints
    laws = {0: Counter({0: 1})}      # position -> P&L -> strategies reaching it
    for i, p in enumerate(moves):
        ends = range(-limit, limit + 1) if i < len(moves) - 1 else [0]
        after = {w: Counter() for w in ends}
        for v, law in laws.items():
            for w, out in after.items():
                step = -(p * (w - v) + c * abs(w - v))
                for pl, count in law.items():
                    out[pl + step] += count
        laws = after
    return laws[0], scale


def moments(law, scale):
    """Size, mean and sample variance (size - 1 divisor) of a law."""
    size = sum(law.values())
    total = sum(pl * count for pl, count in law.items())
    squares = sum(pl * pl * count for pl, count in law.items())
    return (size, Fraction(total, size * scale),
            Fraction(size * squares - total * total, size * (size - 1) * scale * scale))


def check_closed_forms(prices, cost, limit, k):
    """Size, mean, variance and maximum of the law against the closed forms
    and ``mps0``; returns the law, its scale and the universe."""
    p = UniverseParams(limit, len(prices))
    law, scale = pl_law(prices, cost, limit, k)
    size, mean, var = moments(law, scale)
    assert size == universe_counts(p).strategies
    assert mean == industry_gain(cost, p).mean_pl
    assert var == pl_variance(prices, cost, p, k).var_total
    assert Fraction(max(law), scale) == mps0(prices, cost, limit, ContractSpec("T", k, 1)).pl
    return law, scale, p


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(2, 20), st.sampled_from([1, 2, 5]),
       st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1, Fraction(5, 4)]),
       st.lists(st.integers(-3, 3), min_size=19, max_size=19), st.integers(1, 100))
def test_law_matches_the_closed_forms_and_the_oracles(limit, n, k, cost, steps, first):
    prices = [first]
    for step in steps[:n - 1]:
        prices.append(prices[-1] + step)
    law, scale, p = check_closed_forms(prices, cost, limit, k)
    if p.size <= 3 ** 8:
        best = brute_force_mps(prices, [cost] * n, p, k)
        assert (best.best_pl, len(best.witnesses)) == (Fraction(max(law), scale), law[max(law)])
        assert brute_force_mls(prices, [cost] * n, p, k).worst_pl == Fraction(min(law), scale)


def test_law_at_universes_past_enumeration():
    # (2W+1)^(n-1) = 7^59 ~ 10^49 and 3^199 ~ 10^94 strategies
    rng = random.Random(7)
    for limit, n, cost in [(3, 60, Fraction(1, 2)), (1, 200, 1)]:
        prices = [100]
        for _ in range(n - 1):
            prices.append(prices[-1] + rng.randint(-2, 2))
        check_closed_forms(prices, cost, limit, 1)
        assert moments(*pl_law(prices, 0, limit))[1] == 0      # the price leg's mean


def test_extreme_gain_on_constant_prices():
    for limit, n, cost in [(2, 30, 1), (1, 40, Fraction(3, 2))]:
        p = UniverseParams(limit, n)
        law, scale = pl_law([50] * n, cost, limit)
        extreme = extreme_gain_strategies(p)
        worst = Fraction(min(law), scale)
        assert worst == -cost * extreme.max_gain == -2 * cost * limit * (n - 1)
        assert law[min(law)] == extreme.witness_count == 2
        assert [s.traded_contracts * cost for s in extreme.witnesses] == [-worst] * 2
        assert max(law) == 0 and law[0] == 1     # only doing nothing pays nothing
