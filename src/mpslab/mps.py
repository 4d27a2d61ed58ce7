"""Maximum-profit strategy without reinvestment (MPS0), and the trade scan.

The best P&L of any strategy whose position stays in [-W, W] and ends
flat, paying the per-contract cost on every contract moved.  The limits
on a path's positions form an interval matrix, which is totally
unimodular (Hoffman and Kruskal, 1956), so the optimum at limit W is W
times the optimum at W = 1: the same trades, of W contracts each.  At
W = 1 the optimum is the trade chain of the trailing-extreme scan below,
with the birth threshold floor(2c/(delta k)) + 1 deltas, the least move
that pays the round trip 2c.  Trades start and end at first occurrences
of extremes, which breaks ties toward fewer traded contracts, then
earlier transactions.  The scan keeps the live trade's close level, the
threshold back from its extreme, and moves it only with a new extreme, so
a tick costs one list read and at most two integer comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import ContractSpec, Strategy
from .numeric import BudgetExceeded, Rational, as_fraction

# a request of more prices than this is refused (exit 2) before any work;
# the scan takes O(n) time and memory whatever the limit W
MAX_PRICES = 10 ** 7 // 3

# the scan state before any tick: no trade born, tick 0 the first extremes
SCAN_START = (0, 0, 0, 0)


class MpsTrade(NamedTuple):
    """One optimal trade: entry tick, exit tick, +1 long or -1 short."""

    start: int
    end: int
    direction: int


class MpsResult(NamedTuple):
    strategy: Strategy
    pl: Fraction
    trades: tuple[MpsTrade, ...]


def scan_trades(deltas: Sequence[int], threshold: int, state: tuple,
                i: int) -> tuple[list[tuple[int, int, int, int]], tuple]:
    """Trailing-extreme scan of the grid counts ``deltas[i:]`` from ``state``.

    A trade is born once the price has retraced ``threshold`` deltas from
    the trailing extreme, the first occurrence of the live trade's best
    price or, before the first birth, of the minimum or maximum so far.
    The birth closes the live trade at that extreme and starts the opposite
    one there.  Each tick of a born trade is tested against its extreme,
    then against its close level (extreme - threshold long, + threshold
    short), which moves only when the extreme does.  Returns the trades
    closed, as (direction, start, birth, end) with direction +1 long and -1
    short, and the state to resume from: (direction, start, birth, extreme)
    of the live trade, or (0, minimum, 0, maximum) before the first birth.
    """
    direction, start, birth, ext_i = state
    stop = len(deltas)
    trades = []
    if direction == 0:
        lo_i, hi_i = start, ext_i
        for i in range(i, stop):
            n = deltas[i]
            if n < deltas[lo_i]:
                lo_i = i
            elif n > deltas[hi_i]:
                hi_i = i
            if n - deltas[lo_i] >= threshold:
                direction, start = 1, lo_i
                break
            if deltas[hi_i] - n >= threshold:
                direction, start = -1, hi_i
                break
        else:
            return trades, (0, lo_i, 0, hi_i)
        birth = ext_i = i
        i += 1
    ext = deltas[ext_i]
    up = direction > 0
    close = ext - threshold if up else ext + threshold
    for i in range(i, stop):
        n = deltas[i]
        if up:
            if n > ext:
                ext, ext_i, close = n, i, n - threshold
            elif n <= close:
                trades.append((1, start, birth, ext_i))
                # the opposite trade starts at the extreme and is born here
                start, birth, up = ext_i, i, False
                ext, ext_i, close = n, i, n + threshold
        elif n < ext:
            ext, ext_i, close = n, i, n + threshold
        elif n >= close:
            trades.append((-1, start, birth, ext_i))
            start, birth, up = ext_i, i, True
            ext, ext_i, close = n, i, n - threshold
    return trades, (1 if up else -1, start, birth, ext_i)


def birth_threshold(filtering_cost: Rational, spec: ContractSpec) -> int:
    """Deltas the price must retrace to prove a new trade: floor(2FC/(dk))+1."""
    fc = as_fraction(filtering_cost)
    if fc < 0:
        raise ValueError("filtering cost must be non-negative")
    return 2 * fc // spec.delta_dollars + 1


def trade_pl(move: int, cost: Fraction, spec: ContractSpec) -> Fraction:
    """P&L of one contract traded over ``move`` deltas in its favour, paying
    ``cost`` in and ``cost`` out: k*delta*move - 2c."""
    return spec.delta_dollars * move - 2 * cost


def mps0(prices: Sequence[Rational], cost_per_transaction: Rational, limit: int,
         spec: ContractSpec) -> MpsResult:
    """The strategy with maximum P&L under the position limit.

    Returns exactly the maximum of the P&L formula over the universe
    (verified against the brute-force sweep); the do-nothing strategy keeps
    the result at or above zero.  Raises ``BudgetExceeded`` before any work
    when there are more than ``MAX_PRICES`` prices.
    """
    n = len(prices)
    if n == 0:
        raise ValueError("need at least one price")
    if limit < 1:
        raise ValueError("position limit must be >= 1")
    if n > MAX_PRICES:
        raise BudgetExceeded(f"{n} prices, over the limit of {MAX_PRICES}")
    deltas = spec.grid_counts(prices)
    c = as_fraction(cost_per_transaction)
    if c < 0:
        raise ValueError("cost must be non-negative")
    trades, live = scan_trades(deltas, birth_threshold(c, spec), SCAN_START, 0)
    if live[0]:
        trades.append(live)           # the last trade ends at its extreme
    actions = [0] * n
    move = 0
    for direction, start, _, end in trades:
        actions[start] += direction * limit
        actions[end] -= direction * limit
        move += (deltas[end] - deltas[start]) * direction
    # each trade ends where the next starts, so the chain's P&L is the sum of
    # its trades': k*delta times the total move, less the round trip 2c per trade
    pl = limit * trade_pl(move, len(trades) * c, spec)
    return MpsResult(Strategy(actions), pl,
                     tuple(MpsTrade(start, end, direction)
                           for direction, start, _, end in trades))
