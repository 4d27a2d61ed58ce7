"""Maximum-profit strategy without reinvestment (MPS0).

Dynamic program over position states -W..W: best P&L of any prefix ending
at tick i with position w, paying the per-contract cost on every contract
moved, with the strategy forced flat at the last tick.  Exact integer
arithmetic after scaling all dollar amounts to a common denominator.  Ties
are broken toward fewer traded contracts, then earlier transactions, which
makes the result deterministic and lines the trade boundaries up with first
occurrences of price extremes.

O(n (2W+1)) time: moving from w' to w costs a fixed amount per contract on
each side of w' = w, so the best w' for every w comes out of one ascending
and one descending pass per tick, the 1-D L1 distance transform of
Felzenszwalb and Huttenlocher, "Distance Transforms of Sampled Functions",
Theory of Computing 8 (2012).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import ContractSpec, Strategy, strategy_to_positions
from .numeric import BudgetExceeded, Rational, as_fraction, money_scale, scaled_ints

# n*(2W+1) above this is refused before any table is built: ~10 s of DP and
# a back-pointer table of a few bytes per state
MAX_DP_STATES = 10 ** 7


@dataclass(frozen=True)
class MpsTrade:
    """One optimal trade: entry tick, exit tick, +1 long or -1 short."""

    start: int
    end: int
    direction: int


@dataclass(frozen=True)
class MpsResult:
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
    the result at or above zero.  Raises ``BudgetExceeded`` before building
    any table when n*(2W+1) exceeds ``MAX_DP_STATES``.
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

    # state value: (scaled pl, -traded contracts, -sum of i*|U_i|); moving
    # m contracts at tick i adds m times a fixed vector to it, so a running
    # best keeps its lexicographic rank as it is carried along a pass
    values: list = [None] * width
    values[limit] = (0, 0, 0)
    blank = array("B" if width <= 1 << 8 else "H" if width <= 1 << 16 else "L", [0]) * width
    parents = []
    for i, d in enumerate(deltas):
        price_i = kd_i * d
        up, down = price_i + c_i, price_i - c_i
        best = [None] * width
        par = blank[:]
        # ascending pass, w' <= w: buying costs price + cost per contract;
        # strict > keeps the lowest w' among equal keys
        run = None
        src = 0
        for w in range(width):
            if run is not None:
                run = (run[0] - up, run[1] - 1, run[2] - i)
            v = values[w]
            if v is not None and (run is None or v > run):
                run = v
                src = w
            best[w] = run
            par[w] = src
        # descending pass, w' > w: selling earns price - cost per contract;
        # >= keeps the lowest w', and a tie with the ascending pass stays there
        run = None
        for w in range(width - 1, -1, -1):
            if run is not None:
                run = (run[0] + down, run[1] - 1, run[2] - i)
                b = best[w]
                if b is None or run > b:
                    best[w] = run
                    par[w] = src
            v = values[w]
            if v is not None and (run is None or v >= run):
                run = v
                src = w
        values = best
        parents.append(par)

    final = values[limit]
    actions = []
    w = limit
    for i in range(n - 1, -1, -1):
        prev = parents[i][w]
        actions.append(w - prev)
        w = prev
    actions.reverse()
    strategy = Strategy(tuple(actions))
    return MpsResult(strategy, Fraction(final[0], scale), trades_of(strategy))
