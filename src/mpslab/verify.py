"""Formula-versus-enumeration verification matrix.

Every closed form in the distribution module is checked against one
brute-force sweep of every universe that fits the budget: counts, the
action distribution, slice sums, position/action/absolute-action
covariances, industry gains, the second moment, and the P&L variances on
seeded random price grids.  All comparisons are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from . import distribution as dist
from . import oracle
from .distribution import UniverseParams

DEFAULT_MAX_UNIVERSE = 10 ** 6
_MAX_LIMIT = 6
_VARIANCE_TRIALS = 3
_K = 50
_COST = Fraction(117, 25)  # $4.68


class CheckResult(NamedTuple):
    limit: int
    n: int
    check: str
    ok: bool


def default_pairs(max_universe: int = DEFAULT_MAX_UNIVERSE) -> list[UniverseParams]:
    """All (W, n) with (2W+1)^(n-1) <= max_universe, W up to 6."""
    pairs = []
    for w in range(1, _MAX_LIMIT + 1):
        n = 2
        while UniverseParams(w, n).size <= max_universe:
            pairs.append(UniverseParams(w, n))
            n += 1
    return pairs


def _random_grid(p: UniverseParams, trial: int) -> list[Fraction]:
    rng = random.Random(f"mpslab:{p.limit}:{p.n}:{trial}")
    delta = Fraction(1, 4)
    level = 8000  # deltas, i.e. price 2000.00
    prices = []
    for _ in range(p.n):
        level += rng.randint(-3, 3)
        prices.append(level * delta)
    return prices


def verify_pair(p: UniverseParams, budget: int) -> list[CheckResult]:
    """Run every closed form against one sweep of the universe."""
    sums = oracle.sweep(p, budget=budget)
    n, s = p.n, p.size
    results = []

    def check(name: str, ok: bool):
        results.append(CheckResult(p.limit, p.n, name, bool(ok)))

    counts = dist.universe_counts(p)
    total_actions = sum(sums.action_counts.values())
    check("universe_counts", (
        counts.strategies == s
        and counts.actions_total == total_actions
        and counts.do_nothing == sums.action_counts[0]
        and counts.transactions == total_actions - sums.action_counts[0]
    ))
    check("action_count", all(
        dist.action_count(m, p) == sums.action_counts.get(m, 0)
        for m in range(-2 * p.limit - 1, 2 * p.limit + 2)
    ))
    check("slice_sums", all(
        (ss := dist.slice_sums(i, p)).sum_abs_u == sums.slice_abs[i - 1]
        and ss.sum_u2 == sums.slice_sq[i - 1]
        for i in range(1, n + 1)
    ))
    check("position_cov", all(
        dist.position_cov(i, l, p) == int(sums.gram_positions[i - 1][l - 1])
        for i in range(1, n + 1) for l in range(1, n + 1)
    ))
    check("action_cov", all(
        dist.action_cov(i, lag, p) == int(sums.gram_actions[i - 1][i + lag - 1])
        for i in range(1, n) for lag in range(1, n - i + 1)
    ))
    check("abs_action_cov", all(
        dist.abs_action_cov(i, r, p) == int(sums.gram_abs_actions[i - 1][r - 1])
        for i in range(1, n + 1) for r in range(i + 1, n + 1)
    ))
    gain = dist.industry_gain(_COST, p)
    check("industry_gain", (
        gain.total_dollars == _COST * sums.total_abs
        and gain.mean_pl == -_COST * Fraction(sums.total_abs, s)
    ))
    extreme = dist.extreme_gain_strategies(p)
    check("extreme_gain", (
        extreme.max_gain == sums.max_abs_row
        and extreme.witness_count == sums.max_abs_row_count
        and all(w.traded_contracts == extreme.max_gain for w in extreme.witnesses)
    ))
    empirical_m2 = Fraction(
        sum(m * m * c for m, c in sums.action_counts.items()), total_actions)
    check("moment2", dist.moment(2, p) == empirical_m2
          and dist.variance(p) == empirical_m2)

    ok_var = True
    for trial in range(_VARIANCE_TRIALS):
        prices = _random_grid(p, trial)
        closed = dist.pl_variance(prices, _COST, p, _K)
        swept = sums.pl_variance(prices, _COST, _K)
        ok_var &= (closed.var_price_leg == swept.var_price_leg
                   and closed.var_cost_leg == swept.var_cost_leg
                   and closed.var_total == swept.var_total
                   and swept.cross_sum == 0
                   and closed.var_price_leg <= dist.pl_price_variance_bound(prices, p, _K))
    check("pl_variance", ok_var)
    return results


def verify_matrix(max_universe: int = DEFAULT_MAX_UNIVERSE) -> list[CheckResult]:
    results = []
    for p in default_pairs(max_universe):
        results.extend(verify_pair(p, budget=max_universe))
    return results
