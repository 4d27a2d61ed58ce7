"""Maximum-profit strategy without reinvestment (MPS0).

Dynamic program over position states -W..W: best P&L of any prefix ending
at tick i with position w, paying the per-contract cost on every contract
moved, with the strategy forced flat at the last tick.  Exact integer
arithmetic after scaling all dollar amounts to a common denominator.  Ties
are broken toward fewer traded contracts, then earlier transactions, which
makes the result deterministic and lines the trade boundaries up with first
occurrences of price extremes.

A state's key (scaled pl, -traded contracts, -sum of i*|U_i|) lives in Z^3
under lexicographic order, a totally ordered abelian group.  At tick i,
moving w up by one contract (buying) adds buy = (-(p_i+c), -1, -i) to the
key and moving it down by one (selling) adds -sell, where
sell = (-(p_i-c), +1, +i); sell - buy = (2c, 2, 2i) > 0, so the move cost
is concave in the move, and the value function V_i(w) stays concave on the
2W+1 states.  One tick clamps each unit slope V(w+1) - V(w) into
[buy, sell] (the "slope trick" for max-plus convolution of concave
functions), and the best previous state of w is w clamped into the range
where the slopes were left alone.  V is carried as runs of equal slopes,
falling from left to right; each tick pushes at most two runs, so the DP
takes amortised O(n) time and O(n) memory whatever W is.

After tick 0 every slope of V is the buy or sell slope of a tick j < i.
If its P&L equals that of tick i's sell slope, its key ranks below sell
(its second coordinate is -1 against +1, or its third is j < i);
likewise, if it equals that of buy, it ranks above buy.  So comparing P&L
alone, with strict inequalities, clamps exactly the runs the full keys
would, and the DP carries the P&L coordinate only.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import inf
from typing import NamedTuple, Sequence

from .model import ContractSpec, Strategy, strategy_to_positions
from .numeric import BudgetExceeded, Rational, as_fraction, money_scale, scaled_ints

# a request of more position states than this, n*(2W+1), is refused (exit 2)
# before any work; the DP itself takes O(n) time and memory
MAX_DP_STATES = 10 ** 7


class MpsTrade(NamedTuple):
    """One optimal trade: entry tick, exit tick, +1 long or -1 short."""

    start: int
    end: int
    direction: int


class MpsResult(NamedTuple):
    strategy: Strategy
    pl: Fraction
    trades: tuple[MpsTrade, ...]


def trades_of(strategy: Strategy) -> tuple[MpsTrade, ...]:
    """Trades as maximal constant-sign position runs of a strategy."""
    positions = strategy_to_positions(strategy).positions
    trades = []
    start = None
    sign = 0
    for i, w in enumerate(positions):
        s = (w > 0) - (w < 0)
        if s != sign:
            if sign != 0:
                trades.append(MpsTrade(start, i, sign))
            start = i if s != 0 else None
            sign = s
    if sign != 0:
        # flat at the end is guaranteed for universe members
        trades.append(MpsTrade(start, len(positions) - 1, sign))
    return tuple(trades)


def mps0(prices: Sequence[Rational], cost_per_transaction: Rational, limit: int,
         spec: ContractSpec) -> MpsResult:
    """The strategy with maximum P&L under the position limit.

    Returns exactly the maximum of the P&L formula over the universe
    (verified against the brute-force sweep); the do-nothing strategy keeps
    the result at or above zero.  Raises ``BudgetExceeded`` before any work
    when n*(2W+1) exceeds ``MAX_DP_STATES``.
    """
    n = len(prices)
    if n == 0:
        raise ValueError("need at least one price")
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    width = 2 * limit + 1
    if n * width > MAX_DP_STATES:
        raise BudgetExceeded(f"n*(2W+1) = {n * width} DP states, "
                             f"over the limit of {MAX_DP_STATES}")
    grid: dict = {}
    deltas = []
    for x in prices:
        d = grid.get(x)
        if d is None:
            d = grid[x] = spec.to_deltas(x)
        deltas.append(d)
    c = as_fraction(cost_per_transaction)
    if c < 0:
        raise ValueError("cost must be non-negative")
    kd = spec.delta_dollars
    scale = money_scale([kd, c])
    kd_i, c_i = scaled_ints([kd, c], scale)

    # runs (P&L slope, count) of V over w = 0..2W, starting as the one
    # reachable state w = W; the infinite slopes are clamped at tick 0
    runs = deque(((inf, limit), (-inf, limit)))
    his, los = [], []
    for d in deltas:
        price_i = kd_i * d
        buy, sell = -price_i - c_i, c_i - price_i
        hi = 0
        while runs and runs[0][0] > sell:
            hi += runs.popleft()[1]
        if hi:
            runs.appendleft((sell, hi))
        popped = 0
        while runs and runs[-1][0] < buy:
            popped += runs.pop()[1]
        if popped:
            runs.append((buy, popped))
        # the best previous state of w is w clamped into [hi, lo]: w < hi is
        # best reached by selling from hi, w > lo by buying from lo
        his.append(hi)
        los.append(2 * limit - popped)

    actions = []
    w = limit
    for hi, lo in zip(reversed(his), reversed(los)):
        prev = min(max(w, hi), lo)
        actions.append(w - prev)
        w = prev
    actions.reverse()
    strategy = Strategy(tuple(actions))
    pl = -sum(kd_i * d * u + c_i * abs(u) for d, u in zip(deltas, actions))
    return MpsResult(strategy, Fraction(pl, scale), trades_of(strategy))
